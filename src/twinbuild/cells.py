"""Schubert-cell bookkeeping for flag and loop quotients.

A parabolic quotient W/W_J decomposes into cells, one per coset, of
real dimension panel_dim times the length of the minimal coset
representative (panel_dim = 2 for the complex quotients, whose panels
are projective lines).  This module counts those cells: Poincare series
of Schubert varieties (Bruhat intervals), of the based-loop quotient of
the affine system, and the coefficientwise comparison of the two that
underlies the classical low-degree equivalence between Gr_k(C^{2k}) and
the loop space.
"""

from .coxeter import (
    CoxeterMatrix,
    bruhat_leq,
    coset_min_split,
    coxeter_matrix,
    generalized_length,
    min_coset_reps,
    reduce_word,
    window_to_word,
    word_to_window,
)
from .errors import DomainError

__all__ = [
    "PoincareSeries",
    "bott_equivalence_check",
    "cell_dim",
    "loop_poincare",
    "schubert_poincare",
]


class PoincareSeries:
    """Integer coefficients by degree, up to a truncation degree.

    ``coeffs[d]`` counts the cells of dimension d; the list always has
    ``truncation + 1`` entries.

    >>> PoincareSeries([1, 0, 1], 4).coeffs
    (1, 0, 1, 0, 0)
    >>> print(PoincareSeries([1, 0, 2, 0, 1], 4))
    1 + 2*t^2 + t^4
    """

    __slots__ = ("coeffs", "truncation")

    def __init__(self, coeffs, truncation):
        truncation = int(truncation)
        if truncation < 0:
            raise DomainError("truncation degree must be >= 0")
        cs = [int(c) for c in coeffs]
        if any(c < 0 for c in cs):
            raise DomainError("Poincare coefficients must be nonnegative")
        if len(cs) > truncation + 1:
            raise DomainError("coefficient list exceeds the truncation degree")
        cs.extend([0] * (truncation + 1 - len(cs)))
        object.__setattr__(self, "coeffs", tuple(cs))
        object.__setattr__(self, "truncation", truncation)

    def __setattr__(self, name, value):  # pragma: no cover - immutability
        raise AttributeError("PoincareSeries is immutable")

    @classmethod
    def from_dims(cls, dims, truncation):
        """Count a multiset of cell dimensions into a series."""
        cs = [0] * (truncation + 1)
        for d in dims:
            if 0 <= d <= truncation:
                cs[d] += 1
        return cls(cs, truncation)

    def coefficient(self, d: int) -> int:
        if not 0 <= d <= self.truncation:
            raise DomainError(
                f"degree {d} outside the computed window 0..{self.truncation}"
            )
        return self.coeffs[d]

    def cell_dims(self):
        """The multiset of cell dimensions, sorted ascending.

        >>> PoincareSeries([1, 0, 2], 2).cell_dims()
        [0, 2, 2]
        """
        out = []
        for d, c in enumerate(self.coeffs):
            out.extend([d] * c)
        return out

    def agrees_through(self, other: "PoincareSeries", degree: int) -> bool:
        """Coefficientwise equality for all degrees <= degree."""
        if degree > self.truncation or degree > other.truncation:
            raise DomainError("comparison degree exceeds a truncation window")
        return self.coeffs[: degree + 1] == other.coeffs[: degree + 1]

    def __eq__(self, other):
        if not isinstance(other, PoincareSeries):
            return NotImplemented
        return self.coeffs == other.coeffs and self.truncation == other.truncation

    def __hash__(self):
        return hash((self.coeffs, self.truncation))

    def __str__(self):
        terms = []
        for d, c in enumerate(self.coeffs):
            if not c:
                continue
            if d == 0:
                terms.append(str(c))
            else:
                head = "" if c == 1 else f"{c}*"
                terms.append(f"{head}t^{d}" if d != 1 else f"{head}t")
        return " + ".join(terms) if terms else "0"

    def __repr__(self):
        return f"PoincareSeries({list(self.coeffs)!r}, {self.truncation})"


def _min_rep_word(M: CoxeterMatrix, J, w):
    J = frozenset(J)
    for s in J:
        if s not in M.generators:
            raise DomainError(f"generator {s} outside the system")
    win, _ = coset_min_split(word_to_window(w, M), J)
    return window_to_word(win, M), J


def cell_dim(M: CoxeterMatrix, J, w, panel_dim=2) -> int:
    """Dimension of the Schubert cell of the coset w W_J.

    ``panel_dim`` is a uniform integer weight, or a mapping from
    generators to weights (which must agree across odd bonds).

    >>> M = coxeter_matrix("finite-A", 4)
    >>> cell_dim(M, {1, 3}, (2, 1, 3, 2))
    8
    >>> cell_dim(M, {1, 3}, ())
    0
    """
    word, _ = _min_rep_word(M, J, w)
    if isinstance(panel_dim, int):
        return panel_dim * len(word)
    return generalized_length(word, M, panel_dim)


def schubert_poincare(M: CoxeterMatrix, J, w, truncation=None) -> PoincareSeries:
    """Poincare series of the Schubert variety of w W_J: one cell of
    dimension 2*length for every coset v W_J with v <= w.

    ``w`` must be the minimal representative of its coset (any spelling).

    >>> M = coxeter_matrix("finite-A", 3)
    >>> print(schubert_poincare(M, {2}, (2, 1)))
    1 + t^2 + t^4
    """
    word, J = _min_rep_word(M, J, reduce_word(w, M))
    if len(word) != len(reduce_word(w, M)):
        raise DomainError("w must be the minimal representative of its coset")
    full = 2 * len(word)
    if truncation is None:
        truncation = full
    dims = []
    for v in min_coset_reps(M, J, len(word)):
        if 2 * len(v) <= truncation and bruhat_leq(v, word, M):
            dims.append(2 * len(v))
    return PoincareSeries.from_dims(dims, truncation)


def loop_poincare(n: int, truncation: int) -> PoincareSeries:
    """Poincare series of the based-loop quotient of the affine system
    of SL_n: cosets of the finite subgroup W_{1..n-1}, one cell of
    dimension 2*length each.

    >>> print(loop_poincare(2, 6))
    1 + t^2 + t^4 + t^6
    """
    if truncation < 0:
        raise DomainError("truncation degree must be >= 0")
    M = coxeter_matrix("affine-A", n)
    finite = set(range(1, n))
    reps = min_coset_reps(M, finite, truncation // 2)
    return PoincareSeries.from_dims([2 * len(v) for v in reps], truncation)


def bott_equivalence_check(k: int, through_degree: int) -> bool:
    """Whether the Grassmannian Gr_k(C^{2k}) and the based-loop quotient
    of SL_{2k} have the same cell counts through the given degree.

    Both sides live in the affine system on 2k generators: the loop side
    deletes generator 1, the Grassmannian side is the parabolic that
    deletes generator k+1, quotiented by its own finite-node subgroup.
    Agreement is guaranteed for degrees < 2k.

    >>> bott_equivalence_check(2, 5)
    True
    >>> bott_equivalence_check(2, 6)
    False
    """
    if k < 1:
        raise DomainError("k must be >= 1")
    if through_degree < 0:
        raise DomainError("degree must be >= 0")
    n = 2 * k
    M = coxeter_matrix("affine-A", n)
    gens = set(M.generators)
    loop_j = gens - {1}
    gr_k = gens - {k + 1}
    gr_j = gr_k - {1}
    finite_reps = min_coset_reps(M, gr_j, n * (n - 1) // 2, within=gr_k)
    finite = PoincareSeries.from_dims(
        [2 * len(v) for v in finite_reps], through_degree
    )
    affine_reps = min_coset_reps(M, loop_j, through_degree // 2)
    affine = PoincareSeries.from_dims(
        [2 * len(v) for v in affine_reps], through_degree
    )
    return finite.agrees_through(affine, through_degree)
