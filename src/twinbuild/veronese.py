"""Veronese embeddings of the buildings into spaces of hermitian
operators.

Spherical case: a subspace V of Q(i)^n maps to the self-adjoint
projector with kernel V, recentred to trace zero; flags map to weighted
sums of their subspace images, and the flag is recoverable from the
eigenspace chain.  Affine case: vertices of the polynomial-side building
map to gauge transforms of the recentred coordinate projectors,
X |-> g X g# + (z d/dz g) g#, with g a unitary loop; the image lives in
the sharp-fixed traceless matrices.

All unitary elements are Q(i)-expressible: permutation/phase matrices
and the loops 1 + (z-1)P for projectors P, plus their products; nothing
here takes square roots.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import DomainError, NotInImageError, _integer, check_rank
from .exactalg import (
    LMat,
    LP_ONE,
    LP_ZERO,
    LaurentPoly,
    QI_ONE,
    QI_ZERO,
    _scalar,
    charpoly,
    kernel_basis,
    qi_roots,
    rref,
    sparse_rank,
)
from .record import Record

__all__ = [
    "SubspaceFlag",
    "subspace",
    "perp",
    "projector_of",
    "spherical_veronese",
    "recover_flag",
    "squared_distance",
    "unitary_loop",
    "sl_loop_pair",
    "is_unitary_loop",
    "gauge",
    "pi_projector",
    "pi_tls",
    "affine_veronese_vertex",
    "barycentric_affine_veronese",
    "caveat_check",
]


def subspace(vectors):
    """Canonical form of a span: reduced row echelon basis, zero rows
    dropped, as a tuple of coefficient tuples.  Entries are ints,
    Fractions or GaussRats; any other type raises TypeError."""
    red, pivots = rref([[_scalar(x) for x in v] for v in vectors])
    return tuple(tuple(red[r]) for r in range(len(pivots)))


def _contains(big, small):
    """Is span(small) inside span(big)?  Both in canonical form."""
    if not small:
        return True
    return len(subspace(list(big) + list(small))) == len(big)


class SubspaceFlag(Record):
    """A strictly increasing chain of proper nonzero subspaces of
    Q(i)^n, each held in canonical form; an immutable value."""

    __slots__ = ("n", "steps")

    def __init__(self, n, subspaces):
        subspaces = [[list(row) for row in s] for s in subspaces]
        if any(len(row) != n for s in subspaces for row in s):
            raise DomainError(f"flag subspaces must be spanned by rows of {n} entries")
        steps = tuple(subspace(s) for s in subspaces)
        if not steps:
            raise DomainError("a flag needs at least one subspace")
        prev_dim = 0
        for s in steps:
            d = len(s)
            if d == 0 or d >= n:
                raise DomainError("flag subspaces must be proper and nonzero")
            if d <= prev_dim:
                raise DomainError("flag dimensions must strictly increase")
            prev_dim = d
        for small, big in zip(steps, steps[1:]):
            if not _contains(big, small):
                raise DomainError("flag subspaces must be nested")
        Record.__init__(self, n, steps)

    @property
    def dims(self):
        return tuple(len(s) for s in self.steps)

    def __repr__(self):
        return f"<SubspaceFlag n={self.n} dims={self.dims}>"


def perp(v, n=None):
    """Orthogonal complement for <x,y> = sum conj(x_i) y_i.

    Takes a subspace (vectors or canonical rows, all of length n, which
    defaults to the first's; the zero subspace's complement is all of
    Q(i)^n) and returns canonical rows; takes a SubspaceFlag and returns
    the reversed flag of complements."""
    if isinstance(v, SubspaceFlag):
        return SubspaceFlag(v.n, [perp(s, v.n) for s in reversed(v.steps)])
    v = [list(x) for x in v]
    if n is None:
        if not v:
            raise DomainError("cannot infer the ambient dimension of 0")
        n = len(v[0])
    if any(len(x) != n for x in v):
        raise DomainError(f"perp needs vectors of {n} entries")
    conj_rows = [[x.conj for x in r] for r in subspace(v)] or [[QI_ZERO] * n]
    return subspace(kernel_basis(conj_rows))


def _grid(mat: LMat):
    """Constant LMat -> nested lists of GaussRat."""
    if not mat.is_constant():
        raise DomainError("expected a constant matrix")
    return [[mat[i, j].coeff(0) for j in range(mat.ncols)] for i in range(mat.nrows)]


def projector_of(v) -> LMat:
    """The self-adjoint projector X_V with kernel exactly V (image the
    orthogonal complement): X_V = 1 - A (A*A)^{-1} A* for a basis A."""
    rows = subspace(v)
    k = len(rows)
    if k == 0:
        raise DomainError("the zero subspace has no projector here")
    n = len(rows[0])
    if k >= n:
        raise DomainError("the full space has no projector here")
    a = LMat.from_cols(rows)
    a_star = a.star()
    return LMat.identity(n) - a @ (a_star @ a).inv() @ a_star


def _recentered(x: LMat) -> LMat:
    """Subtract (trace/n) * identity."""
    n = x.nrows
    shift = x.trace() * Fraction(1, n)
    return x - LMat.diag([shift] * n)


def _weights(weights):
    """Barycentric weights as GaussRats: DomainError unless they are
    positive rationals summing to 1, TypeError for a value that is not
    an int, a Fraction or a GaussRat."""
    ws = [_scalar(x) for x in weights]
    if any(w.im or w.re <= 0 for w in ws):
        raise DomainError("weights must be positive rationals")
    if sum(ws, QI_ZERO) != QI_ONE:
        raise DomainError("weights must sum to 1")
    return ws


def spherical_veronese(flag: SubspaceFlag, weights) -> LMat:
    """Weighted barycentre of the recentred projectors of the flag's
    subspaces; weights are positive rationals summing to 1."""
    ws = _weights(weights)
    if len(ws) != len(flag.steps):
        raise DomainError("one weight per flag subspace")
    n = flag.n
    acc = LMat.zeros(n, n)
    for w, step in zip(ws, flag.steps):
        acc = acc + _recentered(projector_of(step)).scale(w)
    return acc


def squared_distance(x: LMat, y: LMat):
    """Exact squared euclidean distance tr((X-Y)* (X-Y)) between
    constant hermitian matrices."""
    d = x - y
    return (d.star() @ d).trace().coeff(0)


def recover_flag(x: LMat) -> SubspaceFlag:
    """The flag of cumulative eigenspaces of a constant hermitian matrix
    with rational spectrum, eigenvalues ascending; inverts
    spherical_veronese whenever the weights have distinct partial sums.

    Raises NotInImageError when the spectrum is not rational (counted
    with multiplicity, fewer than n eigenvalues lie in Q: this covers
    irrational and non-real eigenvalues), when the matrix is scalar, and
    when it is not diagonalizable.
    """
    if x.nrows != x.ncols:
        raise DomainError("recover_flag needs a square matrix")
    grid = _grid(x)
    n = x.nrows
    roots = qi_roots(charpoly(grid))
    if len(roots) < n:
        raise NotInImageError("spectrum is not rational: not a hermitian image")
    distinct = sorted({r.re for r in roots})
    if len(distinct) < 2:
        raise NotInImageError("scalar matrix carries no flag")
    accumulated = []
    total = 0
    steps = []
    for lam in distinct:
        ker = kernel_basis([[c - lam if i == j else c for j, c in enumerate(row)]
                            for i, row in enumerate(grid)])
        total += len(ker)
        accumulated.extend(ker)
        if total < n:
            steps.append(subspace(accumulated))
    if total != n:
        raise NotInImageError("matrix is not diagonalizable over Q(i)")
    return SubspaceFlag(n, steps)


# ---------------------------------------------------------------------------
# Unitary loops and the affine Veronese map
# ---------------------------------------------------------------------------


def _is_projector(p: LMat) -> bool:
    return (
        p.nrows == p.ncols
        and p.is_constant()
        and p @ p == p
        and p.star() == p
    )


def unitary_loop(p: LMat) -> LMat:
    """The loop g_P = 1 + (z-1) P for a constant self-adjoint projector
    P; satisfies g_P sharp(g_P) = 1 and det g_P = z^rank(P)."""
    if not _is_projector(p):
        raise DomainError("unitary_loop needs a constant self-adjoint projector")
    return _loop_of(p)


def _loop_of(p: LMat) -> LMat:
    """g_P = 1 + (z-1) P for a p already checked to be a projector."""
    zm1 = LaurentPoly({1: QI_ONE, 0: -QI_ONE})
    return LMat.identity(p.nrows) + p.scale(zm1)


def sl_loop_pair(p: LMat, q: LMat) -> LMat:
    """The determinant-1 unitary loop g_P g_Q^{-1} for projectors of
    equal rank; g_Q^{-1} is g_Q's sharp, as g_Q is unitary."""
    if not (_is_projector(p) and _is_projector(q)):
        raise DomainError("sl_loop_pair needs two projectors")
    if p.trace() != q.trace():
        raise DomainError("sl_loop_pair needs projectors of equal rank")
    return _loop_of(p) @ _loop_of(q).sharp()


def is_unitary_loop(g: LMat) -> bool:
    return g.nrows == g.ncols and g @ g.sharp() == LMat.identity(g.nrows)


def gauge(g: LMat, x: LMat) -> LMat:
    """The gauge action g * X = g X g# + (z d/dz g) g# on sharp-fixed
    traceless matrices; a left group action of the unitary loops whose
    determinant has no winding.

    The winding restriction is forced: the derivative term contributes
    trace z d/dz log det(g), which is exactly the winding number of the
    determinant, so a loop like diag(z, 1) would push X out of the
    traceless space.  Determinant-one loops (and constant unitaries)
    all pass.
    """
    if not is_unitary_loop(g):
        raise DomainError("gauge needs a unitary loop")
    if g.det().val0() != 0:
        raise DomainError(
            "gauge needs a winding-free determinant; "
            "pair projector loops into determinant-one products first"
        )
    if x.sharp() != x or x.trace() != LP_ZERO:
        raise DomainError("gauge acts on sharp-fixed traceless matrices")
    gs = g.sharp()
    return g @ x @ gs + g.z_ddz() @ gs


def pi_projector(n, k) -> LMat:
    """The coordinate projector onto span(e_1..e_k); n and k are read by
    ``_integer``."""
    n, k = _integer(n, "matrix size n"), _integer(k, "projector rank k")
    if not 0 <= k <= n:
        raise DomainError("projector rank out of range")
    return LMat.diag([LP_ONE] * k + [LP_ZERO] * (n - k))


def pi_tls(n, k) -> LMat:
    """The recentred coordinate projector Pi_k - (k/n) 1."""
    check_rank(n)
    return _recentered(pi_projector(n, k))


def affine_veronese_vertex(g: LMat, k) -> LMat:
    """Image of the type-k vertex moved by the unitary loop g:
    gauge(g, Pi_k^tls)."""
    n = g.nrows
    if not 0 <= k < n:
        raise DomainError("vertex type out of range")
    return gauge(g, pi_tls(n, k))


def barycentric_affine_veronese(g: LMat, weights) -> LMat:
    """Convex combination over vertex types sharing one loop g: the
    gauge transform of sum_k w_k Pi_k^tls; weights is a mapping
    type -> positive rational, summing to 1."""
    n = g.nrows
    types = sorted(weights)
    if any(not 0 <= k < n for k in types):
        raise DomainError("vertex type out of range")
    acc = LMat.zeros(n, n)
    for k, w in zip(types, _weights([weights[k] for k in types])):
        acc = acc + pi_tls(n, k).scale(w)
    return gauge(g, acc)


# ---------------------------------------------------------------------------
# The eigenvalue caveat
# ---------------------------------------------------------------------------


def caveat_check(n, bound, x: LMat | None = None) -> bool:
    """Does z d/dz - X - lambda have trivial interior-window kernel for
    every candidate eigenvalue lambda in (1/n) Z with |lambda| <= bound?

    The default X = diag(a,..,a,(1-n)a) with a = z + 1/z is the standard
    non-image example: the answer is expected True (no eigenvectors, so
    X represents no vertex).  Feeding a genuine vertex image such as
    pi_tls(n, k) returns False, because its eigenvectors z^m e_j are
    supported on single powers and survive the truncation.

    Vectors are truncated to z-support [-bound+2, bound-2] and the
    equations cover the full image window, so boundary artifacts cannot
    fake a kernel.  The system is banded: the unknown v_i[z^m] meets
    only the equations at z^(m+e) for e in X's exponent support, and
    only its diagonal entry m - lambda depends on lambda.  So it is built
    once as sparse rows, with the top z-level as the first columns, and
    each lambda is decided by ``sparse_rank``: the kernel is trivial
    exactly when the rank is the number of unknowns.
    """
    check_rank(n)
    bound = _integer(bound, "the bound")
    if x is None:
        a = LaurentPoly({1: QI_ONE, -1: QI_ONE})
        x = LMat.diag([a] * (n - 1) + [a * (1 - n)])
    if x.nrows != n or x.ncols != n:
        raise DomainError("matrix size mismatch")
    if x.sharp() != x or x.trace() != LP_ZERO:
        raise DomainError("caveat_check needs a sharp-fixed traceless matrix")
    lo, hi = -bound + 2, bound - 2
    if lo > hi:
        raise DomainError("bound too small for an interior window")
    # Column (hi - m) * n + i is v_i[z^m]; the equation at z^k, row r,
    # is keyed (k, r) and holds -X[r, i][z^(k - m)].
    unknowns = [(m, i, (hi - m) * n + i) for m in range(lo, hi + 1) for i in range(n)]
    system = {}
    for m, i, c in unknowns:
        for r in range(n):
            for e, coeff in x[r, i].coeffs.items():
                system.setdefault((m + e, r), {})[c] = -coeff
    for j in range(-n * bound, n * bound + 1):
        lam = _scalar(Fraction(j, n))
        rows = dict(system)
        for m, i, c in unknowns:
            row = rows[m, i] = dict(system.get((m, i), {}))
            row[c] = row.get(c, QI_ZERO) + (m - lam)
        if sparse_rank(rows.values()) < len(unknowns):
            return False
    return True
