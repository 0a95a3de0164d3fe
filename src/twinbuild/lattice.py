"""Lattices over Q(i)[z] (plus side) and Q(i)[1/z] (minus side) inside the
Laurent vector space, their canonical forms, projective classes, types,
incidence, and the projective-line charts on panels.

The minus side reuses the plus-side code through the substitution z -> 1/z;
module-level computations (canonical forms, membership, incidence, charts)
are class-level and side-symmetric.  Ordered-basis conventions (which
columns carry the z-marks in a chamber chain) differ between the sides so
that each standard chain is stabilized by its Borel subgroup; see
vertex_classes_of_basis.

Invariant: a LatticeClass's ``mat`` is the canonical form of its class
(upper triangular, monic diagonal; through z -> 1/z on '-'), and so is
every z^k multiple of it, since the canonical form is unique and commutes
with the z-shift.  Class matrices and their ``scaled`` multiples serve as
they are, for membership, back substitution and determinant valuations;
Hermite forms are taken only of modules given by arbitrary generators.
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
    rref,
    solve_right,
    zpow,
)
from .record import Record

INF = math.inf

__all__ = [
    "Lattice",
    "LatticeClass",
    "standard_vertex_mat",
    "canonical_lattice",
    "canonical_class",
    "type_of",
    "incident",
    "member",
    "lattice_class_of_cols",
    "vertex_classes_of_basis",
    "adapted_basis",
    "PanelChart",
]


def _check_side(side):
    if side not in ("+", "-"):
        raise DomainError(f"side must be '+' or '-', got {side!r}")


def _mirror(mat: LMat) -> LMat:
    return mat.subs_zinv()


def _to_plus(side, mat):
    return mat if side == "+" else _mirror(mat)


class Lattice(Record):
    """A free module spanned by the columns of ``gens`` over Q(i)[z]
    (side '+') or Q(i)[1/z] (side '-')."""

    __slots__ = ("side", "gens")

    def __init__(self, side: str, gens: LMat):
        _check_side(side)
        if gens.nrows != gens.ncols:
            raise DomainError("generator matrix must be square")
        if not gens.det().is_unit_monomial():
            raise NotInvertibleError(
                "degenerate lattice: generator determinant is not a unit c*z^k"
            )
        object.__setattr__(self, "side", side)
        object.__setattr__(self, "gens", gens)

    @property
    def n(self):
        return self.gens.nrows


class LatticeClass(Record):
    """Projective class [L] = {z^k L}; ``mat`` is the canonical class
    representative, so equality is syntactic (see the module invariant).
    Any other matrix raises DomainError."""

    __slots__ = ("side", "mat")

    def __init__(self, side: str, mat: LMat):
        _check_side(side)
        _check_canonical_class(side, mat)
        object.__setattr__(self, "side", side)
        object.__setattr__(self, "mat", mat)

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


def _check_canonical_class(side, mat):
    """DomainError unless ``mat`` is a canonical class matrix: square and,
    read in z on '+' and in 1/z on '-', upper triangular with diagonal
    z^(e_i), every exponent in row i above the diagonal below e_i, and
    least exponent 0.  O(n^2) reads of exponents; no Hermite form."""
    if not isinstance(mat, LMat) or mat.nrows != mat.ncols:
        raise DomainError("a lattice class needs a square LMat")
    bad = DomainError("lattice class matrix is not in canonical form")
    sign = 1 if side == "+" else -1
    least = INF
    for i, row in enumerate(mat.rows):
        diag = row[i].coeffs
        if len(diag) != 1 or any(row[:i]):
            raise bad
        (e, c), = diag.items()
        if c != QI_ONE:
            raise bad
        e *= sign
        least = min(least, e)
        for a in row[i + 1:]:
            if a:
                exps = [sign * x for x in a.coeffs]
                if max(exps) >= e:
                    raise bad
                least = min(least, *exps)
    if least != 0:
        raise bad


def standard_vertex_mat(n: int, i: int, side="+") -> LMat:
    """Generators of the i-th standard vertex lattice: diag(z,..,z,1,..,1)
    with i copies of z (of 1/z on the minus side)."""
    v = Z if side == "+" else zpow(-1)
    return LMat.diag([v] * i + [LaurentPoly({0: QI_ONE})] * (n - i))


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
    m = len(cols)
    if m < n:
        raise DomainError("not enough columns to span a rank-n module")
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
            live = [c for c in range(acnt) if cols[c][r]]
            if len(live) == 1:
                piv = live[0]
                break
        acnt -= 1
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


def _canonical_plus_cols(cols, n) -> LMat:
    """Canonical Laurent form: global z-shift to polynomials, HNF, shift back."""
    shift = 0
    for col in cols:
        for a in col:
            if a:
                shift = min(shift, a.val0())
    shift = -int(shift)
    shifted = [[a.shift(shift) for a in col] for col in cols]
    h = _hnf_poly_cols(shifted, n)
    if shift:
        h = h.scale(zpow(-shift))
    return h


def canonical_lattice(L: Lattice) -> LMat:
    """The unique canonical generator matrix (upper triangular, monic
    diagonal, reduced off-diagonal degrees; through z -> 1/z on '-')."""
    plus = _to_plus(L.side, L.gens)
    h = _canonical_plus_cols(plus.cols(), L.n)
    return h if L.side == "+" else _mirror(h)


def canonical_class(L: Lattice) -> LatticeClass:
    """Scale the canonical form by the z-power putting the least entry
    valuation at 0 (entries polynomial, some nonzero constant term)."""
    return lattice_class_of_cols(L.side, L.gens.cols())


def lattice_class_of_cols(side, cols) -> LatticeClass:
    """Canonical class of the module spanned by the given columns (any
    number >= n of them)."""
    _check_side(side)
    n = len(cols[0])
    if side == "-":
        cols = [[a.subs_zinv() for a in col] for col in cols]
    h = _canonical_plus_cols(cols, n)
    v = min(a.val0() for row in h.rows for a in row if a)
    if v:
        h = h.scale(zpow(-int(v)))
    return LatticeClass(side, h if side == "+" else _mirror(h))


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


def member(side, canonical_mat: LMat, v) -> bool:
    """Is the vector (tuple of LaurentPoly) in the lattice?"""
    _check_side(side)
    if side == "-":
        canonical_mat = _mirror(canonical_mat)
        v = [a.subs_zinv() for a in v]
    return _member_plus(canonical_mat, v)


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
# Chamber chains and adapted bases
# ---------------------------------------------------------------------------


def vertex_classes_of_basis(side, basis: LMat, _positions=None):
    """The n vertex classes of the chamber spanned by an ordered basis.

    On the plus side, position j of the underlying periodic chain is
    spanned by the first n-j basis columns plus z times the rest; on the
    minus side it is 1/z times the first j columns plus the rest.  (The
    two markings are the ones whose standard chains are stabilized by
    the respective Borel subgroups; see borel_membership.)  Classes come
    back in chain order, position 0 first.

    ``_positions`` (private) lists the chain positions to compute, for a
    caller that reads only some classes and has already checked that the
    basis is nondegenerate; the classes come back in that order.
    """
    _check_side(side)
    n = basis.nrows
    if _positions is None:
        if basis.ncols != n:
            raise DomainError("basis must be square")
        if not basis.det().is_unit_monomial():
            raise NotInvertibleError("degenerate basis")
        _positions = range(n)
    cols = basis.cols()
    shift = 1 if side == "+" else -1
    out = []
    for j in _positions:
        marked = range(n - j, n) if side == "+" else range(j)
        chain_cols = list(cols)
        for c in marked:
            chain_cols[c] = tuple(a.shift(shift) for a in cols[c])
        out.append(lattice_class_of_cols(side, chain_cols))
    return out


def adapted_basis(side, chain_mats) -> LMat:
    """Basis adapted to a full periodic chain L_0 > L_1 > ... > L_{n-1} > zL_0.

    ``chain_mats`` are generator matrices (in the side's variable) with
    consecutive determinant valuations.  Returns the basis matrix b whose
    chain (in the convention of vertex_classes_of_basis) is the given
    one; extraction picks, for each step, the first canonical generator
    of L_j outside L_{j+1}.
    """
    _check_side(side)
    mats = [_to_plus(side, m) for m in chain_mats]
    n = mats[0].nrows
    cans = [_canonical_plus_cols(m.cols(), n) for m in mats]
    return _basis_of_cols(side, _adapted_cols(cans))


def _adapted_cols(cans):
    """The picking half of adapted_basis, on a chain of canonical plus
    forms: the plus-side basis columns."""
    n = cans[0].nrows
    nexts = cans[1:] + [cans[0].scale(Z)]
    cols = [None] * n
    for j in range(n):
        pick = None
        for c in range(n):
            v = cans[j].col(c)
            if not _member_plus(nexts[j], v):
                pick = v
                break
        if pick is None:
            raise DomainError("chain positions are equal; not a chamber chain")
        cols[n - 1 - j] = pick
    return cols


def _basis_of_cols(side, cols) -> LMat:
    if side == "+":
        return LMat._of(zip(*cols))
    # minus marking is mirror-reversed: 1/z marks sit on the first columns
    return _mirror(LMat._of(zip(*reversed(cols))))


# ---------------------------------------------------------------------------
# Panel charts
# ---------------------------------------------------------------------------


class PanelChart:
    """The projective-line chart on the chambers through a panel.

    A panel (n-1 pairwise incident classes of distinct types, one type g
    missing) closes into a sandwich A >= M >= B with dim A/B = 2 over
    Q(i), where M runs over the candidate gap lattices.  The chart sends
    t in Q(i) to the class of B + Q(i)[z](u1 + t*u2) and the infinity
    sentinel to B + Q(i)[z]u2, with (u1, u2) the first two canonical
    generators of A independent modulo B.
    """

    def __init__(self, classes):
        classes = list(classes)
        if not classes:
            raise DomainError("empty panel")
        side = classes[0].side
        n = classes[0].n
        if len(classes) != n - 1:
            raise DomainError(f"a panel needs {n - 1} vertices, got {len(classes)}")
        if any(c.side != side or c.n != n for c in classes):
            raise DomainError("panel vertices must share side and dimension")
        types = {c.type: c for c in classes}
        if len(types) != n - 1:
            raise DomainError("panel vertex types must be pairwise distinct")
        (gap,) = set(range(n)) - set(types)
        self.side = side
        self.n = n
        self.gap_type = gap
        self.classes = classes
        # periodic chain of the present types, descending from the gap
        chain = []
        base_val = None
        for idx in range(1, n):
            c = types[(gap + idx) % n]
            a = c.det_val()
            if base_val is None:
                base_val = a
                target = a
            else:
                target = base_val + idx - 1
            k = (target - a) // n
            chain.append(_to_plus(side, c.mat).scale(zpow(k)))
        self._chain = chain
        self._gap_val = base_val - 1  # det valuation of each M with B < M < A
        for i in range(len(chain) - 1):
            if not _contains(chain[i], chain[i + 1]):
                raise DomainError("panel vertices are not pairwise incident")
        self._A = chain[-1].scale(zpow(-1))
        self._B = chain[0]
        # Q0: the columns of B in A's coordinates, modulo z; they span B/zA
        coords = [_plus_coords(self._A, b) for b in self._B.cols()]
        if None in coords:
            raise DomainError("panel chain does not close up periodically")
        self._Q0 = [[col[i].ev0() for col in coords] for i in range(n)]
        # greedy completion of colspan Q0 by standard basis vectors: the
        # pivot columns of [Q0 | 1] past Q0
        _, piv = rref([row + [QI_ONE if i == j else QI_ZERO for j in range(n)]
                       for i, row in enumerate(self._Q0)])
        picked = [p - n for p in piv if p >= n][:2]
        if len(picked) != 2:
            raise DomainError("panel sandwich is not two-dimensional")
        self._j1, self._j2 = picked
        self._u1 = self._A.col(self._j1)
        self._u2 = self._A.col(self._j2)

    def _gap_vector(self, t):
        """The generator the chart adds to B: u1 + t*u2, or u2 at inf."""
        if t == INF:
            return self._u2
        return tuple(a + t * b for a, b in zip(self._u1, self._u2))

    def gap_class(self, t) -> LatticeClass:
        """The chart: the gap-type class at parameter t (Q(i) or inf)."""
        cls = lattice_class_of_cols("+", self._B.cols() + [self._gap_vector(t)])
        if self.side == "-":
            return LatticeClass("-", _mirror(cls.mat))
        return cls

    def chamber_basis(self, t) -> LMat:
        """Ordered basis of the full chamber obtained by filling the gap
        at parameter t; feeds chamber construction."""
        gap_mat = _canonical_plus_cols(
            self._B.cols() + [self._gap_vector(t)], self.n
        )
        return _basis_of_cols(self.side, _adapted_cols([gap_mat] + self._chain))

    def parameter_of(self, gap: LatticeClass):
        """Inverse chart: the parameter of a gap-type class through the
        panel (inf sentinel allowed)."""
        if gap.side != self.side or gap.n != self.n:
            raise DomainError("side or dimension mismatch")
        if gap.type != self.gap_type:
            raise DomainError("class does not have the panel's missing type")
        k = (self._gap_val - gap.det_val()) // self.n
        mat = _to_plus(self.side, gap.mat).scale(zpow(k))
        if not _contains(mat, self._B):
            raise DomainError("class is not between the panel's neighbours")
        n = self.n
        sys_rows = [
            self._Q0[i]
            + [QI_ONE if i == self._j1 else QI_ZERO]
            + [QI_ONE if i == self._j2 else QI_ZERO]
            for i in range(n)
        ]
        for c in range(n):
            coords = _plus_coords(self._A, mat.col(c))
            if coords is None:
                raise DomainError("class is not between the panel's neighbours")
            psi = [x.ev0() for x in coords]
            sol = solve_right(sys_rows, psi)
            if sol is None:
                raise DomainError("class is not between the panel's neighbours")
            c1, c2 = sol[-2], sol[-1]
            if not c1 and not c2:
                continue
            return INF if not c1 else c2 / c1
        raise DomainError("class equals the panel floor; not a chamber vertex")
