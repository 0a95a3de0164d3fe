"""Lattices over Q(i)[z] (plus side) and Q(i)[1/z] (minus side) inside the
Laurent vector space, their projective classes, types, membership,
incidence, and the projective-line charts on panels.

The minus side reuses the plus-side code through the substitution z -> 1/z;
module-level computations (Hermite forms, membership, incidence, charts)
are side-symmetric.  Ordered-basis conventions (which columns carry the
z-marks in a chamber chain) differ between the sides so that each
standard chain is stabilized by its Borel subgroup; see
vertex_classes_of_basis.  A panel chart is read off the basis of a chamber
through the panel with one Hermite form, that of the chain lattice just
above the missing vertex; no vertex class is computed for it.

Invariant, by construction: a LatticeClass is built from generators, any
of them, and its ``mat`` is the canonical form it computes (upper
triangular, monic monomial diagonal, least exponent 0; through z -> 1/z
on '-').  So is every z^k multiple of it, since the canonical form is
unique and commutes with the z-shift.  Class matrices and their
``scaled`` multiples serve as they are, for back substitution and
determinant valuations; Hermite forms are taken only of modules given by
arbitrary generators.
"""

from __future__ import annotations

import math

from .errors import DomainError, NotInvertibleError
from .exactalg import (
    LMat,
    LaurentPoly,
    QI_ONE,
    QI_ZERO,
    Z,
    _col_sub,
    _lp,
    _mul_sub,
    divexact,
    poly_divmod,
    zpow,
)
from .record import Record

INF = math.inf

__all__ = [
    "LatticeClass",
    "type_of",
    "incident",
    "member",
    "vertex_classes_of_basis",
    "PanelChart",
]


def _check_side(side):
    if side not in ("+", "-"):
        raise DomainError(f"side must be '+' or '-', got {side!r}")


def _to_plus(side, mat):
    """``mat`` read in the other variable on '-': z -> 1/z, an involution,
    so it also takes a plus-side matrix back to the minus side."""
    return mat if side == "+" else mat.subs_zinv()


class LatticeClass(Record):
    """Projective class [L] = {z^k L} of the lattice spanned by the columns
    of ``gens``: an LMat with n rows and at least n columns, in z on '+'
    and in 1/z on '-'.  ``mat`` is the canonical representative the
    constructor computes, so equality is syntactic (see the module
    invariant).  Generators that span no lattice raise
    NotInvertibleError.

    >>> LatticeClass("+", LMat([[0, 1], [1, 0]])).mat == LMat.identity(2)
    True
    >>> c = LatticeClass("-", LMat.diag([zpow(-2), zpow(-1)]))  # = [z^-1 L]
    >>> print(c.mat)
    [z^-1, 0]
    [0, 1]
    >>> c.type
    1
    """

    __slots__ = ("side", "mat")

    def __init__(self, side: str, gens: LMat):
        _check_side(side)
        if not isinstance(gens, LMat):
            raise DomainError("a lattice class needs an LMat of generators")
        n = gens.nrows
        h, _ = _canonical_plus_cols(_to_plus(side, gens).cols(), n)
        if any(len(h.rows[i][i].coeffs) != 1 for i in range(n)):
            raise NotInvertibleError(
                "generators span no lattice: their determinant is not a unit c*z^k"
            )
        v = min(a.val0() for row in h.rows for a in row if a)
        if v:
            h = h.scale(zpow(-int(v)))
        object.__setattr__(self, "side", side)
        object.__setattr__(self, "mat", _to_plus(side, h))

    @property
    def n(self):
        return self.mat.nrows

    @property
    def type(self) -> int:
        return type_of(self)

    def det_val(self):
        """Valuation of det(mat) at 0 ('+') or at infinity ('-'), read off
        the diagonal of the triangular canonical form."""
        val = LaurentPoly.val0 if self.side == "+" else LaurentPoly.val_inf
        return sum(int(val(self.mat[i, i])) for i in range(self.n))

    def scaled(self, k: int) -> LMat:
        """Representative z^k * mat (in the side's own variable)."""
        return self.mat.scale(zpow(k) if self.side == "+" else zpow(-k))


# ---------------------------------------------------------------------------
# Column Hermite normal form over Q(i)[z]
# ---------------------------------------------------------------------------


def _hnf_poly_cols(cols, n):
    """Column HNF of a rank-n module spanned by polynomial columns.

    ``cols``: list of m >= n columns (tuples of LaurentPoly with
    nonnegative exponents).  Returns (h, u0): h is the n*n upper-triangular
    matrix with monic diagonal and off-diagonal degrees reduced below the
    diagonal, and u0 the rows of U(0), U the m*n column operations with
    cols U = h: swaps, q(0)-multiple subtractions and monic scalings.
    """
    cols = [list(c) for c in cols]
    m = len(cols)
    if m < n:
        raise DomainError("not enough columns to span a rank-n module")
    u0 = [[QI_ONE if i == j else QI_ZERO for i in range(m)] for j in range(m)]
    acnt = m
    for r in range(n - 1, -1, -1):
        while True:
            live = [c for c in range(acnt) if cols[c][r]]
            if not live:
                raise NotInvertibleError("columns do not span a rank-n module")
            if len(live) == 1:
                piv = live[0]
                break
            # reduce all row-r entries by the minimal-degree one
            cmin = min(live, key=lambda c: max(cols[c][r].coeffs))
            for c in live:
                if c == cmin:
                    continue
                q, _ = poly_divmod(cols[c][r], cols[cmin][r])
                if q:
                    cols[c] = _col_sub(cols[c], q, cols[cmin])
                    _u0_sub(u0, c, q, cmin)
            live = [c for c in range(acnt) if cols[c][r]]
            if len(live) == 1:
                piv = live[0]
                break
        acnt -= 1
        cols[piv], cols[acnt] = cols[acnt], cols[piv]
        u0[piv], u0[acnt] = u0[acnt], u0[piv]
    for c in range(acnt):
        if any(cols[c]):
            raise NotInvertibleError("dependent columns exceed module rank")
    out, u0 = cols[acnt:], u0[acnt:]
    # monic diagonals
    for r in range(n):
        d = out[r][r]
        lead = d.coeffs[max(d.coeffs)]
        if lead != QI_ONE:
            inv = lead.inverse()
            out[r] = [a * inv for a in out[r]]
            u0[r] = [a * inv if a else a for a in u0[r]]
    # reduce off-diagonal degrees: entry (i, j) for j > i mod diagonal (i, i)
    for i in range(n - 1, -1, -1):
        for j in range(i + 1, n):
            q, _ = poly_divmod(out[j][i], out[i][i])
            if q:
                out[j] = _col_sub(out[j], q, out[i])
                _u0_sub(u0, j, q, i)
    return LMat._of(zip(*out)), list(zip(*u0))


def _u0_sub(u0, c, q, k):
    """U(0) under col_c -= q col_k: column c minus q(0) times column k."""
    q0 = q.coeffs.get(0)
    if q0:
        u0[c] = [a - q0 * b if b else a for a, b in zip(u0[c], u0[k])]


def _canonical_plus_cols(cols, n):
    """Canonical Laurent form: global z-shift to polynomials, HNF, shift
    back; (h, u0) as _hnf_poly_cols, since a common shift keeps U(0)."""
    shift = 0
    for col in cols:
        for a in col:
            if a:
                shift = min(shift, a.val0())
    shift = -int(shift)
    shifted = [[a.shift(shift) for a in col] for col in cols]
    h, u0 = _hnf_poly_cols(shifted, n)
    if shift:
        h = h.scale(zpow(-shift))
    return h, u0


def type_of(c: LatticeClass) -> int:
    """Type in Z/n: valuation of the determinant (at 0 for '+', at
    infinity for '-') mod n; a projective and SL-invariant."""
    return c.det_val() % c.n


# ---------------------------------------------------------------------------
# Membership and containment
# ---------------------------------------------------------------------------


def _plus_coords(h: LMat, v):
    """Coordinates of the vector v in the columns of the canonical
    plus-form h, or None if v is not in their module.

    Back substitution against the upper-triangular h; membership holds iff
    every division is exact and every coordinate is polynomial.
    """
    n = h.nrows
    coords = [None] * n
    for j in range(n - 1, -1, -1):
        row = h.rows[j]
        rhs = dict(v[j].coeffs)
        for jj in range(j + 1, n):
            if row[jj] and coords[jj]:
                _mul_sub(rhs, row[jj].coeffs, coords[jj].coeffs)
        q = divexact(_lp(rhs), row[j])
        if q is None or (q and q.val0() < 0):
            return None
        coords[j] = q
    return coords


def _member_plus(h: LMat, v) -> bool:
    """Is the vector v in the module with canonical plus-form h?"""
    return _plus_coords(h, v) is not None


def member(side, gens: LMat, v) -> bool:
    """Is the vector v (tuple of LaurentPoly) in the lattice spanned by the
    columns of ``gens`` (any generators, in the side's own variable)?"""
    _check_side(side)
    h, _ = _canonical_plus_cols(_to_plus(side, gens).cols(), gens.nrows)
    if side == "-":
        v = [a.subs_zinv() for a in v]
    return _member_plus(h, v)


def incident(c1: LatticeClass, c2: LatticeClass) -> bool:
    """Class incidence: some shift wedges c2 between z*c1 and c1.

    The shift range is pinned by determinant valuations: containment
    z^k M' <= M needs nk + val(det M') in [val(det M), val(det M) + n].
    """
    if c1.side != c2.side:
        raise DomainError("incidence needs lattices on the same side")
    if c1.n != c2.n:
        raise DomainError("dimension mismatch")
    n = c1.n
    m1 = _to_plus(c1.side, c1.mat)
    m2 = _to_plus(c2.side, c2.mat)
    a = c1.det_val()
    b = c2.det_val()
    lo = math.ceil((a - b) / n)
    hi = math.floor((a - b + n) / n)
    zm1 = m1.scale(Z)
    for k in range(lo, hi + 1):
        mk = m2.scale(zpow(k))
        if _contains(m1, mk) and _contains(mk, zm1):
            return True
    return False


def _contains(outer: LMat, inner: LMat) -> bool:
    """Is every column of inner in the module of the plus form outer?"""
    return all(_member_plus(outer, inner.col(j)) for j in range(inner.ncols))


# ---------------------------------------------------------------------------
# Chamber chains
# ---------------------------------------------------------------------------


def vertex_classes_of_basis(side, basis: LMat, _positions=None):
    """The n vertex classes of the chamber spanned by an ordered basis.

    On the plus side, position j of the underlying periodic chain is
    spanned by the first n-j basis columns plus z times the rest; on the
    minus side it is 1/z times the first j columns plus the rest.  (The
    two markings are the ones whose standard chains are stabilized by
    the respective Borel subgroups; see borel_membership.)  Classes come
    back in chain order, position 0 first.  A degenerate basis raises
    NotInvertibleError from the class constructor.

    ``_positions`` (private) lists the chain positions to compute, for a
    caller that reads only some classes; the classes come back in that
    order.
    """
    _check_side(side)
    n = basis.nrows
    if basis.ncols != n:
        raise DomainError("basis must be square")
    cols = basis.cols()
    sign = 1 if side == "+" else -1
    out = []
    for j in range(n) if _positions is None else _positions:
        chain_cols = [
            tuple(a.shift(sign * m) for a in col) if m else col
            for col, m in zip(cols, _marks(side, n, j))
        ]
        out.append(LatticeClass(side, LMat._of(zip(*chain_cols))))
    return out


def _marks(side, n, j):
    """The z-marks of the basis columns at chain position j (any integer;
    position j + n is z times position j): exponents in the side's own
    variable, as in vertex_classes_of_basis."""
    s, r = divmod(j, n)
    marked = range(n - r, n) if side == "+" else range(r)
    return [s + (k in marked) for k in range(n)]


def _plus_col(side, col, mark):
    """A basis column times the mark-th power of the side's variable,
    read in the plus variable."""
    if side == "-":
        col = [a.subs_zinv() for a in col]
    return tuple(a.shift(mark) for a in col) if mark else tuple(col)


# ---------------------------------------------------------------------------
# Panel charts
# ---------------------------------------------------------------------------


class PanelChart:
    """The projective-line chart on the chambers through a panel, read off
    the basis of one chamber through it (the carrier, a building.Chamber)
    and the chain position ``gap`` of the panel's missing type.

    The carrier's chain gives the sandwich A = L_{gap-1} > M = L_gap >
    B = L_{gap+1} with dim A/B = 2 over Q(i); the chambers through the
    panel are the carrier with M replaced by a lattice strictly between
    A and B.  Two basis columns p, q span A/B: A and B agree on the
    others, and M = B + Q(i)[z] a_p, where a_k is column k with A's
    z-mark.  The chart sends t in Q(i) to the chamber with gap lattice
    B + Q(i)[z](u1 + t*u2), and the infinity sentinel to B + Q(i)[z]u2,
    with (u1, u2) the first two columns of the Hermite form of A that are
    independent modulo B.  That Hermite form is the chart's only one: its
    column operations at z = 0 give the coordinates in A/zA, and the rest
    is Q(i) linear algebra there.  A chamber's representative is
    normalised (chain position p carries type p), which the chart relies
    on; parameter_of does not check that its chamber contains the panel.

    The chamber at t is carrier T_t: T_t is a monomial 2 x 2 block on
    columns p, q, a right factor of the carrier's basis, with inverse two
    row operations (``chamber_inverse``).
    """

    def __init__(self, carrier, gap: int):
        side, rep = carrier.side, carrier.rep
        n = rep.nrows
        self.side = side
        self._rep = rep
        if side == "+":
            p, q = n - 1 - gap, (n - gap) % n
        else:
            p, q = gap, (gap - 1) % n
        marks = _marks(side, n, gap - 1)
        # a_q = z^shift b_q (the mark of q, in the side's own variable);
        # marks[p] is 0
        self._p, self._q = p, q
        self._shift = marks[q] if side == "+" else -marks[q]
        gens = [_plus_col(side, col, m) for col, m in zip(rep.cols(), marks)]
        self._A, u0 = _canonical_plus_cols(gens, n)
        # rows p, q of U(0), where A = gens U: the coordinates in (a_p, a_q)
        # of a vector of A/zA modulo the image of B
        rp, rq = u0[p], u0[q]
        # greedy completion of B/zA by Hermite columns: u1 = column j1, the
        # first outside B, and u2 = column j2, the first outside B + u1;
        # kept as their coordinates in (a_p, a_q)
        j1 = next(j for j in range(n) if rp[j] or rq[j])
        j2 = next(j for j in range(j1 + 1, n) if rp[j1] * rq[j] != rq[j1] * rp[j])
        self._u1 = (rp[j1], rq[j1])
        self._u2 = (rp[j2], rq[j2])
        # rows taking psi in A/zA to (c1, c2) with psi = c1*u1 + c2*u2
        # modulo B, up to one common factor
        self._c1 = [self._u2[1] * x - self._u2[0] * y for x, y in zip(rp, rq)]
        self._c2 = [self._u1[0] * y - self._u1[1] * x for x, y in zip(rp, rq)]

    def _block(self, t):
        """(al, be): a_p moves to al a_p + be a_q, on the line of u1 + t*u2
        modulo B."""
        if t == INF:
            return self._u2
        return self._u1[0] + t * self._u2[0], self._u1[1] + t * self._u2[1]

    def chamber_basis(self, t) -> LMat:
        """The representative of the chamber at parameter t (Q(i) or INF):
        carrier T_t, the carrier's with the columns p, q replaced by a
        constant block on A's generators a_p, a_q, so a_p moves to the line
        of u1 + t*u2 modulo B, and the determinant stays the carrier's up
        to sign."""
        al, be = self._block(t)
        p, q, s = self._p, self._q, self._shift
        cols = self._rep.cols()
        bp, bq = cols[p], cols[q]
        if al:
            # [[al, 0], [be z^s, 1/al]]
            cols[p] = tuple(al * x + be * y.shift(s) for x, y in zip(bp, bq))
            cols[q] = tuple(al.inverse() * y for y in bq)
        else:
            # [[0, 1/be z^-s], [be z^s, 0]]
            cols[p] = tuple(be * y.shift(s) for y in bq)
            cols[q] = tuple(be.inverse() * x.shift(-s) for x in bp)
        return LMat._of(zip(*cols))

    def chamber_inverse(self, t, inv: LMat) -> LMat:
        """T_t^{-1} inv, for inv the inverse of the carrier's basis: the
        inverse of chamber_basis(t), by two row operations on rows p, q."""
        al, be = self._block(t)
        p, q, s = self._p, self._q, self._shift
        rows = list(inv.rows)
        rp, rq = rows[p], rows[q]
        if al:
            # [[1/al, 0], [-be z^s, al]]
            rows[p] = [al.inverse() * x for x in rp]
            rows[q] = [al * y - be * x.shift(s) for x, y in zip(rp, rq)]
        else:
            # the swap block is its own inverse
            rows[p] = [be.inverse() * y.shift(-s) for y in rq]
            rows[q] = [be * x.shift(s) for x in rp]
        return LMat._of(rows)

    def parameter_of(self, chamber):
        """Inverse chart: the parameter (INF allowed) of a chamber through
        the panel, read off its gap generator, column p of its
        representative; that column lies in A and not in B."""
        v = _plus_col(self.side, chamber.rep.col(self._p), 0)
        psi = [x.ev0() for x in _plus_coords(self._A, v)]
        c1 = sum((w * x for w, x in zip(self._c1, psi)), QI_ZERO)
        c2 = sum((w * x for w, x in zip(self._c2, psi)), QI_ZERO)
        return INF if not c1 else c2 / c1
