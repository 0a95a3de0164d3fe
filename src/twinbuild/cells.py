"""Schubert-cell bookkeeping for flag and loop quotients.

A parabolic quotient W/W_J decomposes into cells, one per coset, of
real dimension panel_dim times the length of the minimal coset
representative; panel_dim is one integer for every generator (2 for the
complex quotients, whose panels are projective lines).  This module
counts those cells: Poincare series of Schubert varieties (Bruhat
intervals), of the based-loop quotient of the affine system, and the
coefficientwise comparison of the two that underlies the classical
low-degree equivalence between Gr_k(C^{2k}) and the loop space.
"""

from .coxeter import (
    CoxeterMatrix,
    _check_subset,
    _coset_levels,
    coset_act,
    coset_min_split,
    coxeter_matrix,
    wdescents_right,
    widentity,
    window_to_word,
    wlength,
    word_to_window,
)
from .errors import DomainError
from .record import Record

__all__ = [
    "PoincareSeries",
    "bott_equivalence_check",
    "cell_dim",
    "loop_poincare",
    "schubert_poincare",
]


class PoincareSeries(Record):
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

    @classmethod
    def from_dims(cls, dims, truncation):
        """Count a multiset of cell dimensions into a series."""
        cs = [0] * (truncation + 1)
        for d in dims:
            if 0 <= d <= truncation:
                cs[d] += 1
        return cls(cs, truncation)

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


def cell_dim(M: CoxeterMatrix, J, w, panel_dim=2) -> int:
    """Dimension of the Schubert cell of the coset w W_J: ``panel_dim``
    (an int, the real dimension of a panel) times the length of the
    minimal coset representative.

    >>> M = coxeter_matrix("finite-A", 4)
    >>> cell_dim(M, {1, 3}, (2, 1, 3, 2))
    8
    >>> cell_dim(M, {1, 3}, ())
    0
    """
    J = _check_subset(J, M)
    u, _ = coset_min_split(word_to_window(w, M), J)
    return panel_dim * wlength(u)


def schubert_poincare(M: CoxeterMatrix, J, w, truncation=None) -> PoincareSeries:
    """Poincare series of the Schubert variety X_w of the coset w W_J: one
    cell of dimension 2*length(v) for every J-minimal v <= w.

    ``w`` must be the minimal representative of its coset (any spelling).
    By the subword property (Bjorner-Brenti, Theorem 2.2.2) the v <= w are
    the products of subwords of one reduced word of w, and by Deodhar's
    lemma (Lemma 2.5.1) the J-minimal representative of s*v is
    ``coset_act(s, v, J)``.  So the cells are what the reduced word,
    read from its last letter to its first, each letter acting or not,
    reaches from the identity.  A reduced subword reaches its cell through
    smaller cells, so the search stops at the truncation degree.

    >>> M = coxeter_matrix("finite-A", 3)
    >>> print(schubert_poincare(M, {2}, (2, 1)))
    1 + t^2 + t^4
    """
    u = word_to_window(w, M)
    J = _check_subset(J, M)
    if any(d in J for d in wdescents_right(u)):
        raise DomainError("w must be the minimal representative of its coset")
    word = window_to_word(u, M)
    if truncation is None:
        truncation = 2 * len(word)
    top = truncation // 2
    # cell -> length.  The cells reached so far form a lower Bruhat ideal:
    # a shorter s*v is in it already, so a new cell met from length l has
    # length l + 1.
    cells = {widentity(M.n): 0}
    for s in reversed(word):
        for v, ell in list(cells.items()):
            if ell < top:
                cells.setdefault(coset_act(s, v, J), ell + 1)
    return PoincareSeries.from_dims([2 * ell for ell in cells.values()], truncation)


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
    levels = _coset_levels(n, set(range(1, n)), M.generators, truncation // 2)
    coeffs = [0] * (truncation + 1)
    for ell, level in enumerate(levels):
        coeffs[2 * ell] = len(level)
    return PoincareSeries(coeffs, truncation)


def bott_equivalence_check(k: int, through_degree: int) -> bool:
    """Whether the Grassmannian Gr_k(C^{2k}) and the based-loop quotient
    of SL_{2k} have the same cell counts through the given degree.

    The Grassmannian side is the Schubert series of the top cell of
    S_{2k} / W_J, with J every generator but k, truncated at the degree;
    the loop side is ``loop_poincare(2k, degree)``.  Agreement is
    guaranteed for degrees < 2k (Quillen-Mitchell).  The cost follows the
    degree, not the C(2k, k) Grassmannian cells.

    >>> bott_equivalence_check(2, 5)
    True
    >>> bott_equivalence_check(2, 6)
    False
    """
    if k < 1:
        raise DomainError("k must be >= 1")
    if through_degree < 0:
        raise DomainError("degree must be >= 0")
    M = coxeter_matrix("finite-A", 2 * k)
    J = set(M.generators) - {k}
    # The top cell: the permutation exchanging the halves 1..k and k+1..2k.
    top = window_to_word(tuple(range(k + 1, 2 * k + 1)) + tuple(range(1, k + 1)), M)
    grassmannian = schubert_poincare(M, J, top, through_degree)
    loop = loop_poincare(2 * k, through_degree)
    return grassmannian.agrees_through(loop, through_degree)
