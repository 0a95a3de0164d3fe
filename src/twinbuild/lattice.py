"""Lattices over Q(i)[z] (plus side) and Q(i)[1/z] (minus side) inside the
Laurent vector space, their projective classes, types, membership,
incidence, the side conventions of chambers and the root-group step.

The minus side reuses the plus-side code through the substitution z -> 1/z;
module-level computations (Hermite forms, membership, incidence) are
side-symmetric.  Ordered-basis conventions (which columns carry the
z-marks in a chamber chain) differ between the sides so that each
standard chain is stabilized by its Borel subgroup; see
vertex_classes_of_basis.  The chain position of a panel's missing type
gives its cotype node (_node_of_position).

The root-group step g -> g x_s(t) n_s is written once, here, for both
sides: _root is the root-group table, _root_cols the step on columns and
_root_rows its inverse on rows.  A panel chart (PanelChart) is one step
on its carrier, a Schubert-cell coordinate list one step per letter on
the common basis (building.decode_coords), and both carry their inverses
as row steps.  No step takes a Hermite form or computes a vertex class.

Invariant, by construction: a LatticeClass is built from generators, any
of them, and its ``mat`` is the canonical form it computes (upper
triangular, monic monomial diagonal, least exponent 0; through z -> 1/z
on '-').  So is every z^k multiple of it, since the canonical form is
unique and commutes with the z-shift.  Class matrices and their z^k
multiples serve as they are, for back substitution and determinant
valuations; Hermite forms are taken only of modules given by arbitrary
generators.
"""

from __future__ import annotations

import math

from .errors import DomainError, NotInvertibleError
from .exactalg import (
    LMat,
    LaurentPoly,
    QI_ONE,
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
        h = _canonical_plus_cols(_to_plus(side, gens).cols(), n)
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


# ---------------------------------------------------------------------------
# Column Hermite normal form over Q(i)[z]
# ---------------------------------------------------------------------------


def _hnf_poly_cols(cols, n):
    """Column HNF of a rank-n module spanned by polynomial columns.

    ``cols``: list of m >= n columns (tuples of LaurentPoly with
    nonnegative exponents).  Returns the n*n upper-triangular matrix with
    monic diagonal and off-diagonal degrees reduced below the diagonal.
    """
    cols = [list(c) for c in cols]
    acnt = len(cols)
    if acnt < n:
        raise DomainError("not enough columns to span a rank-n module")
    for r in range(n - 1, -1, -1):
        while True:
            live = [c for c in range(acnt) if cols[c][r]]
            if not live:
                raise NotInvertibleError("columns do not span a rank-n module")
            if len(live) == 1:
                break
            # reduce all row-r entries by the minimal-degree one
            cmin = min(live, key=lambda c: max(cols[c][r].coeffs))
            for c in live:
                if c == cmin:
                    continue
                q, _ = poly_divmod(cols[c][r], cols[cmin][r])
                if q:
                    cols[c] = _col_sub(cols[c], q, cols[cmin])
        acnt -= 1
        piv = live[0]
        cols[piv], cols[acnt] = cols[acnt], cols[piv]
    for c in range(acnt):
        if any(cols[c]):
            raise NotInvertibleError("dependent columns exceed module rank")
    out = cols[acnt:]
    # monic diagonals
    for r in range(n):
        d = out[r][r]
        lead = d.coeffs[max(d.coeffs)]
        if lead != QI_ONE:
            inv = lead.inverse()
            out[r] = [a * inv for a in out[r]]
    # reduce off-diagonal degrees: entry (i, j) for j > i mod diagonal (i, i)
    for i in range(n - 1, -1, -1):
        for j in range(i + 1, n):
            q, _ = poly_divmod(out[j][i], out[i][i])
            if q:
                out[j] = _col_sub(out[j], q, out[i])
    return LMat._of(zip(*out))


def _canonical_plus_cols(cols, n):
    """Canonical Laurent form: global z-shift to polynomials, HNF, shift
    back."""
    shift = -int(min([0] + [a.val0() for col in cols for a in col if a]))
    shifted = [[a.shift(shift) for a in col] for col in cols]
    h = _hnf_poly_cols(shifted, n)
    return h.scale(zpow(-shift)) if shift else h


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
    h = _canonical_plus_cols(_to_plus(side, gens).cols(), gens.nrows)
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
    return all(_member_plus(outer, col) for col in zip(*inner.rows))


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


# ---------------------------------------------------------------------------
# Side conventions and the root-group step
# ---------------------------------------------------------------------------


def _node_of_position(p, n, side):
    """Chain position of a dropped vertex -> Coxeter generator label.

    The sides mark their chains from opposite ends, so the maps are
    mirror images: on '+' position p carries node n - p, on '-' node p
    (position 0 carries the affine node n on both)."""
    if p == 0:
        return n
    return n - p if side == "+" else p


def _position_of_node(s, n, side):
    if s == n:
        return 0
    return n - s if side == "+" else s


def _root(s, n, side):
    """(i, j, e) with x_s(t) = 1 + t z^e E_ij, the root group of the side's
    Borel that the generator s moves: (s-1, s, 0), and (n-1, 0, 1) at the
    affine node s = n, on '+'; the transposed entry at z^-e on '-'."""
    i, j, e = (s - 1, s, 0) if s < n else (n - 1, 0, 1)
    return (i, j, e) if side == "+" else (j, i, -e)


def _root_cols(cols, s, t, side):
    """cols x_s(t) n_s, in place on a list of n columns: column i becomes
    t b_i + z^-e b_j and column j becomes z^e b_i, for (i, j, e) =
    _root(s, n, side); t = 0 gives cols n_s."""
    i, j, e = _root(s, len(cols), side)
    bi, bj = cols[i], cols[j]
    if t:
        bj = _col_sub(bj, _lp({e: -t}), bi)
    cols[i] = [a.shift(-e) for a in bj] if e else bj
    cols[j] = [a.shift(e) for a in bi] if e else bi


def _root_rows(rows, s, t, side):
    """(x_s(t) n_s)^-1 rows, in place on a list of n rows, the inverse of
    _root_cols: row i becomes z^e r_j and row j becomes z^-e r_i - t r_j."""
    i, j, e = _root(s, len(rows), side)
    ri, rj = rows[i], rows[j]
    if t:
        ri = _col_sub(ri, _lp({e: t}), rj)
    rows[i] = [a.shift(e) for a in rj] if e else rj
    rows[j] = [a.shift(-e) for a in ri] if e else ri


class PanelChart:
    """The projective-line chart on the chambers through a panel, for the
    chain position ``gap`` of its missing type on one chamber through it
    (the carrier, a building.Chamber): the chamber at t in Q(i) is
    carrier x_s(t) n_s, one step _root_cols by the panel's cotype s, so 0
    is carrier n_s; INF is the carrier.  building.panel_parameter reads t
    back as encode_coords reads a cell coordinate.  Replacing the carrier
    by carrier b, b in the side's Borel, moves t by some t -> a t + c.
    """

    def __init__(self, carrier, gap: int):
        self._rep = carrier.rep
        self._side = carrier.side
        self._s = _node_of_position(gap, carrier.n, carrier.side)

    def chamber_basis(self, t) -> LMat:
        """The representative carrier x_s(t) n_s of the chamber at t (Q(i)
        or INF), whose determinant is the carrier's up to sign."""
        if t == INF:
            return self._rep
        cols = self._rep.cols()
        _root_cols(cols, self._s, t, self._side)
        return LMat._of(zip(*cols))
