"""Tests for lattice canonical forms, classes, incidence, and panel charts."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twinbuild import lattice
from twinbuild.building import (
    Chamber,
    decode_coords,
    delta,
    panel_chamber,
    panel_parameter,
    weyl_matrix,
)
from twinbuild.coxeter import word_to_affine
from twinbuild.errors import DomainError, NotInvertibleError
from twinbuild.exactalg import (
    GaussRat,
    LMat,
    LP_ONE,
    QI_I,
    QI_ONE,
    QI_ZERO,
    Z,
    _col_sub,
    parse_poly,
    poly_divmod,
    rref,
    zpow,
)
from twinbuild.lattice import (
    INF,
    LatticeClass,
    PanelChart,
    _canonical_plus_cols,
    _contains,
    _member_plus,
    _plus_coords,
    _to_plus,
    incident,
    member,
    vertex_classes_of_basis,
)


def P(s):
    return parse_poly(s)


def M(rows):
    return LMat([[P(x) if isinstance(x, str) else x for x in row] for row in rows])


def standard_vertex_mat(n: int, i: int, side="+") -> LMat:
    """Generators of the i-th standard vertex lattice: diag(z,..,z,1,..,1)
    with i copies of z (of 1/z on the minus side)."""
    v = Z if side == "+" else zpow(-1)
    return LMat.diag([v] * i + [LP_ONE] * (n - i))


def canonical_lattice(side, gens) -> LMat:
    """The canonical generator matrix of the lattice itself (not of its
    class): the class matrix scaled back by k = (val det gens - det_val)/n,
    valuations at 0 on '+' and at infinity on '-'."""
    c = LatticeClass(side, gens)
    det = gens.det()
    k, r = divmod(int(det.val0() if side == "+" else det.val_inf()) - c.det_val(), c.n)
    assert r == 0
    return c.mat.scale(zpow(k) if side == "+" else zpow(-k))


def assert_canonical_class(c):
    """The shape check of a canonical class matrix, independent of the
    Hermite form that builds it: square and, read in z on '+' and in 1/z
    on '-', upper triangular with diagonal z^(e_i), every exponent in row
    i above the diagonal below e_i, and least exponent 0."""
    side, mat = c.side, c.mat
    assert isinstance(mat, LMat) and mat.nrows == mat.ncols
    sign = 1 if side == "+" else -1
    least = INF
    for i, row in enumerate(mat.rows):
        diag = row[i].coeffs
        assert len(diag) == 1 and not any(row[:i])
        (e, coeff), = diag.items()
        assert coeff == QI_ONE
        e *= sign
        least = min(least, e)
        for a in row[i + 1:]:
            if a:
                exps = [sign * x for x in a.coeffs]
                assert max(exps) < e
                least = min(least, *exps)
    assert least == 0


def solve_right(rows, rhs):
    """One solution x of A x = b over Q(i), or None if inconsistent: the
    rref of [A | b]."""
    if not rows:
        return None
    ncols = len(rows[0])
    aug = [list(r) + [b] for r, b in zip(rows, rhs)]
    red, pivots = rref(aug)
    if ncols in pivots:
        return None
    x = [QI_ZERO] * ncols
    for r, pc in enumerate(pivots):
        x[pc] = red[r][ncols]
    return x


def test_solve_right():
    x = solve_right([[GaussRat(2)]], [GaussRat(5)])
    assert x == [GaussRat(5, 0) / 2]
    assert solve_right([[QI_ZERO]], [QI_ONE]) is None


def rand_gauss(rng):
    num = rng.randint(-3, 3)
    den = rng.randint(1, 3)
    if rng.random() < 0.3:
        return GaussRat(num, rng.randint(-2, 2)) / den
    return GaussRat(num) / den


def rand_unimodular(rng, n, ops=6, dmin=-2, dmax=2, scalings=True):
    """A random lattice basis: elementary column operations on the identity,
    optionally followed by monomial column scalings (determinant stays a
    unit either way)."""
    cols = [list(c) for c in LMat.identity(n).cols()]
    for _ in range(ops):
        i, j = rng.sample(range(n), 2)
        c = rand_gauss(rng)
        d = rng.randint(dmin, dmax)
        f = zpow(d, c) if c else None
        if f:
            cols[i] = [a + f * b for a, b in zip(cols[i], cols[j])]
    if scalings:
        for j in range(n):
            if rng.random() < 0.4:
                f = zpow(rng.randint(-1, 1))
                cols[j] = [f * a for a in cols[j]]
    return LMat.from_cols(cols)


# ---------------------------------------------------------------------------
# the class-based chart and adapted bases: the oracle of PanelChart
# ---------------------------------------------------------------------------


def adapted_basis(side, chain_mats) -> LMat:
    """Basis adapted to a full periodic chain L_0 > L_1 > ... > L_{n-1} > zL_0.

    ``chain_mats`` are generator matrices (in the side's variable) with
    consecutive determinant valuations.  Returns the basis matrix b whose
    chain (in the convention of vertex_classes_of_basis) is the given
    one; extraction picks, for each step, the first canonical generator
    of L_j outside L_{j+1}.
    """
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
            v = cans[j].cols()[c]
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
    return _to_plus(side, LMat._of(zip(*reversed(cols))))


class ClassPanelChart:
    """The projective-line chart on the chambers through a panel, built
    from the panel's n - 1 vertex classes with a Hermite form of each.

    The classes close into a sandwich A >= M >= B with dim A/B = 2 over
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
        self._Q0 = [[col[i].coeff(0) for col in coords] for i in range(n)]
        # greedy completion of colspan Q0 by standard basis vectors: the
        # pivot columns of [Q0 | 1] past Q0
        _, piv = rref([row + [QI_ONE if i == j else QI_ZERO for j in range(n)]
                       for i, row in enumerate(self._Q0)])
        picked = [p - n for p in piv if p >= n][:2]
        if len(picked) != 2:
            raise DomainError("panel sandwich is not two-dimensional")
        self._j1, self._j2 = picked
        self._u1 = self._A.cols()[self._j1]
        self._u2 = self._A.cols()[self._j2]

    def _gap_vector(self, t):
        """The generator the chart adds to B: u1 + t*u2, or u2 at inf."""
        if t == INF:
            return self._u2
        return tuple(a + t * b for a, b in zip(self._u1, self._u2))

    def gap_class(self, t) -> LatticeClass:
        """The chart: the gap-type class at parameter t (Q(i) or inf)."""
        gens = LMat._of(zip(*self._B.cols(), self._gap_vector(t)))
        return LatticeClass(self.side, _to_plus(self.side, gens))

    def chamber_basis(self, t) -> LMat:
        """Ordered basis of the full chamber obtained by filling the gap
        at parameter t."""
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
            coords = _plus_coords(self._A, mat.cols()[c])
            if coords is None:
                raise DomainError("class is not between the panel's neighbours")
            psi = [x.coeff(0) for x in coords]
            sol = solve_right(sys_rows, psi)
            if sol is None:
                raise DomainError("class is not between the panel's neighbours")
            c1, c2 = sol[-2], sol[-1]
            if not c1 and not c2:
                continue
            return INF if not c1 else c2 / c1
        raise DomainError("class equals the panel floor; not a chamber vertex")


# ---------------------------------------------------------------------------
# the Hermite-form chart: the intrinsic chart PanelChart replaced
# ---------------------------------------------------------------------------


def hermite_form_with_u0(cols, n):
    """(h, u0): h the canonical plus form of the module the columns span,
    as _canonical_plus_cols computes it, and u0 the rows of U(0), U the
    m*n column operations with (shifted cols) U = h: swaps, q(0)-multiple
    subtractions and monic scalings.  A common z-shift of the columns
    keeps U(0)."""
    shift = -int(min([0] + [a.val0() for col in cols for a in col if a]))
    cols = [[a.shift(shift) for a in col] for col in cols]
    m = len(cols)
    u0 = [[QI_ONE if i == j else QI_ZERO for i in range(m)] for j in range(m)]

    def sub(us, c, q, k):
        # col_c -= q col_k: U(0) column c minus q(0) times column k
        q0 = q.coeffs.get(0)
        if q0:
            us[c] = [a - q0 * b for a, b in zip(us[c], us[k])]

    acnt = m
    for r in range(n - 1, -1, -1):
        while True:
            live = [c for c in range(acnt) if cols[c][r]]
            if len(live) == 1:
                break
            cmin = min(live, key=lambda c: max(cols[c][r].coeffs))
            for c in live:
                q, _ = poly_divmod(cols[c][r], cols[cmin][r])
                if c != cmin and q:
                    cols[c] = _col_sub(cols[c], q, cols[cmin])
                    sub(u0, c, q, cmin)
        acnt -= 1
        piv = live[0]
        cols[piv], cols[acnt] = cols[acnt], cols[piv]
        u0[piv], u0[acnt] = u0[acnt], u0[piv]
    out, u0 = cols[acnt:], u0[acnt:]
    for r in range(n):
        inv = out[r][r].coeffs[max(out[r][r].coeffs)].inverse()
        out[r] = [a * inv for a in out[r]]
        u0[r] = [a * inv for a in u0[r]]
    for i in range(n - 1, -1, -1):
        for j in range(i + 1, n):
            q, _ = poly_divmod(out[j][i], out[i][i])
            if q:
                out[j] = _col_sub(out[j], q, out[i])
                sub(u0, j, q, i)
    h = LMat._of(zip(*out))
    return (h.scale(zpow(-shift)) if shift else h), list(zip(*u0))


def _plus_col(side, col, mark):
    """A basis column times the mark-th power of the side's variable,
    read in the plus variable."""
    if side == "-":
        col = [a.subs_zinv() for a in col]
    return tuple(a.shift(mark) for a in col) if mark else tuple(col)


class HermitePanelChart:
    """The intrinsic chart on the chambers through a panel, read off the
    basis of one chamber through it (the carrier) and the chain position
    ``gap`` of the panel's missing type with one Hermite form: the chart
    of the library before the root-group chart, kept as an oracle.

    The carrier's chain gives the sandwich A = L_{gap-1} > M = L_gap >
    B = L_{gap+1} with dim A/B = 2 over Q(i); the chambers through the
    panel are the carrier with M replaced by a lattice strictly between
    A and B.  Two basis columns p, q span A/B: A and B agree on the
    others, and M = B + Q(i)[z] a_p, where a_k is column k with A's
    z-mark.  The chart sends t in Q(i) to the chamber with gap lattice
    B + Q(i)[z](u1 + t*u2), and INF to B + Q(i)[z]u2, with (u1, u2) the
    first two columns of the Hermite form of A that are independent
    modulo B.  The Hermite form's U(0) gives the coordinates in A/zA,
    and the rest is Q(i) linear algebra there.  The chart depends on the
    panel only.
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
        marks = lattice._marks(side, n, gap - 1)
        # a_q = z^shift b_q (the mark of q, in the side's own variable);
        # marks[p] is 0
        self._p, self._q = p, q
        self._shift = marks[q] if side == "+" else -marks[q]
        gens = [_plus_col(side, col, m) for col, m in zip(rep.cols(), marks)]
        self._A, u0 = hermite_form_with_u0(gens, n)
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

    def chamber_basis(self, t) -> LMat:
        """The carrier's basis with columns p, q replaced by a constant
        block on a_p, a_q, so a_p moves to the line of u1 + t*u2 modulo B
        (u2 at INF)."""
        al, be = self._u2 if t == INF else (
            self._u1[0] + t * self._u2[0], self._u1[1] + t * self._u2[1])
        p, q, s = self._p, self._q, self._shift
        cols = self._rep.cols()
        bp, bq = cols[p], cols[q]
        if al:
            cols[p] = tuple(al * x + be * y.shift(s) for x, y in zip(bp, bq))
            cols[q] = tuple(al.inverse() * y for y in bq)
        else:
            cols[p] = tuple(be * y.shift(s) for y in bq)
            cols[q] = tuple(be.inverse() * x.shift(-s) for x in bp)
        return LMat._of(zip(*cols))

    def parameter_of(self, chamber):
        """The parameter of a chamber through the panel, read off column p
        of its representative, which lies in A and not in B."""
        v = _plus_col(self.side, chamber.rep.cols()[self._p], 0)
        psi = [x.coeff(0) for x in _plus_coords(self._A, v)]
        c1 = sum((w * x for w, x in zip(self._c1, psi)), QI_ZERO)
        c2 = sum((w * x for w, x in zip(self._c2, psi)), QI_ZERO)
        return INF if not c1 else c2 / c1


# ---------------------------------------------------------------------------
# canonical forms
# ---------------------------------------------------------------------------


def test_canonical_identity_and_column_order():
    eye = LMat.identity(2)
    assert LatticeClass("+", eye).mat == eye
    swapped = M([[0, 1], [1, 0]])
    assert LatticeClass("+", swapped).mat == eye


def test_canonical_pinned_example():
    g = M([["z", 1], [0, 1]])
    assert LatticeClass("+", g).mat == g
    # same module, different generators
    g2 = M([[1, "z"], [1, 0]])
    assert LatticeClass("+", g2).mat == g
    # the lattice itself, not only its class
    assert canonical_lattice("+", g2.scale(Z)) == g.scale(Z)


def test_standard_vertex_generators():
    assert standard_vertex_mat(3, 1) == LMat.diag([Z, 1, 1])
    got = canonical_lattice("+", standard_vertex_mat(3, 2))
    assert got == LMat.diag([Z, Z, 1])
    minus = canonical_lattice("-", standard_vertex_mat(3, 2, side="-"))
    assert minus == LMat.diag([zpow(-1), zpow(-1), 1])


def test_canonical_idempotent_random():
    rng = random.Random(11)
    for _ in range(40):
        n = rng.randint(2, 4)
        side = rng.choice("+-")
        g = rand_unimodular(rng, n)
        if side == "-":
            g = g.subs_zinv()
        c = canonical_lattice(side, g)
        assert canonical_lattice(side, c) == c
        assert LatticeClass(side, c) == LatticeClass(side, g)


@pytest.mark.parametrize("side", ["+", "-"])
def test_scaled_class_is_the_hermite_form_of_the_lattice(side):
    # The class matrix of LatticeClass(s, g) times z^k (z^-k on '-'),
    # k = (val det g - det_val())/n, is the Hermite form of the lattice g
    # spans, taken directly.
    rng = random.Random(41)
    for _ in range(20):
        n = rng.randint(2, 5)
        g = _to_plus(side, rand_unimodular(rng, n).scale(zpow(rng.randint(-2, 2))))
        h = _canonical_plus_cols(_to_plus(side, g).cols(), n)
        assert canonical_lattice(side, g) == _to_plus(side, h)


def test_canonical_invariant_under_generator_change():
    rng = random.Random(12)
    for _ in range(25):
        n = rng.randint(2, 4)
        g = rand_unimodular(rng, n)
        c1 = canonical_lattice("+", g)
        # right-multiplying by a polynomial matrix with constant nonzero
        # determinant keeps the module
        u = rand_unimodular(rng, n, dmin=0, dmax=2, scalings=False)
        assert canonical_lattice("+", g @ u) == c1


def test_degenerate_generators_rejected():
    for side in "+-":
        with pytest.raises(NotInvertibleError):
            LatticeClass(side, _to_plus(side, M([["1+z", 0], [0, 1]])))
        with pytest.raises(NotInvertibleError):
            LatticeClass(side, M([[1, 1], [1, 1]]))
        # a degenerate basis raises from the class constructor
        with pytest.raises(NotInvertibleError):
            vertex_classes_of_basis(side, _to_plus(side, M([["z", 1], ["z^2", "z"]])))


def rand_class(rng):
    """A random class: n = 2..4, either side."""
    n = rng.randint(2, 4)
    side = rng.choice("+-")
    g = rand_unimodular(rng, n)
    return LatticeClass(side, g if side == "+" else g.subs_zinv())


def test_class_matrices_and_their_z_multiples_are_canonical():
    # the invariant stated at the top of twinbuild/lattice.py
    rng = random.Random(17)
    for _ in range(30):
        c = rand_class(rng)
        assert_canonical_class(c)
        h = _to_plus(c.side, c.mat)
        for k in range(-3, 4):
            hk = h.scale(zpow(k))
            h_canon = _canonical_plus_cols(hk.cols(), c.n)
            assert h_canon == hk


@pytest.mark.parametrize("side", ["+", "-"])
@pytest.mark.parametrize(
    "rows",
    [
        [[0, 1], ["z", 0]],          # not triangular
        [["z", 0], [0, "z"]],        # least exponent 1, not 0
        [[2, 0], [0, "z"]],          # diagonal coefficient not 1
        [["z", "z"], [0, 1]],        # off-diagonal exponent not below e_0
        [["z", "z^-1"], [0, 1]],     # negative exponent
        [["1 + z", 0], [0, 1]],      # diagonal not a monomial: no lattice
        [[1, 0], [0, 0]],            # zero column: no lattice
        [[1, 0, 0], [0, 1, 0]],      # more columns than rows
        [["z^-2", "1 + z^-1", 3], [0, "z^-1", 0], [0, 0, 1]],  # mirrored form
        [[1, 1], [1, 1]],            # rank deficient: no lattice
    ],
)
def test_lattice_class_rejects_non_canonical_matrices(side, rows):
    # A class never keeps a non-canonical matrix: generators of a lattice
    # give the canonical form of their class, the same for every change
    # of generators, and generators of no lattice (determinant not a unit
    # c*z^k) raise.  Read in 1/z on the minus side, so mirror the
    # plus-side examples.
    gens = _to_plus(side, M(rows))
    m = gens.ncols
    if m == gens.nrows and not gens.det().is_unit_monomial():
        with pytest.raises(NotInvertibleError):
            LatticeClass(side, gens)
        return
    c = LatticeClass(side, gens)
    assert_canonical_class(c)
    assert c.mat != gens
    u = rand_unimodular(random.Random(29), m, dmin=0, dmax=2, scalings=False)
    assert LatticeClass(side, gens @ _to_plus(side, u)) == c


@pytest.mark.parametrize("side", ["+", "-"])
def test_lattice_class_rejects_bad_input(side):
    for bad_side, gens in [
        (side, M([[1, 0], [0, 1], [0, 0]])),  # fewer columns than rows
        (side, [[1, 0], [0, 1]]),             # not an LMat
        ("0", LMat.identity(2)),
    ]:
        with pytest.raises(DomainError) as err:
            LatticeClass(bad_side, gens)
        assert type(err.value) is DomainError


def test_lattice_class_accepts_canonical_forms_and_rejects_their_mirrors():
    # A canonical form is its own class matrix.  Its mirror is canonical
    # on the other side only: on this side it is generators like any
    # others, and the class does not keep it.
    canonical = M([["z^2", "1 + z", 3], [0, "z", 0], [0, 0, 1]])
    mirror = canonical.subs_zinv()
    assert LatticeClass("+", canonical).mat == canonical
    assert LatticeClass("-", mirror).mat == mirror
    assert LatticeClass("+", canonical).type == LatticeClass("-", mirror).type == 0
    assert LatticeClass("-", canonical).mat != canonical
    assert LatticeClass("+", mirror).mat != mirror


def test_vertex_classes_of_random_bases_are_canonical():
    # Every vertex class passes the shape oracle and is a fixed point of
    # the constructor; a chamber's chain_classes are the same classes.
    rng = random.Random(23)
    for n in range(2, 6):
        for side in "+-":
            for _ in range(6):
                basis = _to_plus(side, rand_unimodular(rng, n))
                classes = vertex_classes_of_basis(side, basis)
                chain = Chamber(side, basis).chain_classes
                assert set(chain) == set(classes)
                for c in classes + list(chain):
                    assert_canonical_class(c)
                    assert LatticeClass(c.side, c.mat) == c


# ---------------------------------------------------------------------------
# classes and types
# ---------------------------------------------------------------------------


def test_det_val_matches_the_determinant():
    rng = random.Random(18)
    for _ in range(40):
        c = rand_class(rng)
        assert c.det_val() == int(_to_plus(c.side, c.mat).det().val0())


def test_class_mod_scaling():
    eye = LMat.identity(3)
    a = LatticeClass("+", eye)
    b = LatticeClass("+", LMat.diag([Z, Z, Z]))
    assert a == b
    assert a.mat == eye


def test_types_of_standard_vertices():
    for n in (2, 3, 4):
        for i in range(n):
            c = LatticeClass("+", standard_vertex_mat(n, i))
            assert c.type == i
            cm = LatticeClass("-", standard_vertex_mat(n, i, side="-"))
            assert cm.type == i


def test_type_shifts_with_determinant():
    g = LMat.diag([Z, 1, 1])
    for i in range(3):
        c = LatticeClass("+", g @ standard_vertex_mat(3, i))
        assert c.type == (i + 1) % 3


# ---------------------------------------------------------------------------
# membership
# ---------------------------------------------------------------------------


def test_membership_basics():
    g = M([["z", 1], [0, 1]])
    assert member("+", g, (P("z"), P("0")))
    assert member("+", g, (P("1"), P("1")))
    assert member("+", g, (P("z + 1"), P("1")))
    assert not member("+", g, (P("1"), P("0")))
    assert not member("+", g, (P("z^-1"), P("0")))


@pytest.mark.parametrize("side", ["+", "-"])
def test_member_takes_any_generators(side):
    # (1, 1) and (0, z) span {(x, y) : y = x mod z}; the generators are
    # not a Hermite form, and back substitution against them would take
    # (1, 0) for a member.
    gens = _to_plus(side, M([[1, 0], [1, "z"]]))
    for v, inside in [
        (("1", "1"), True),
        (("0", "z"), True),
        (("z", "0"), True),
        (("1 + z", "1 + z^2"), True),
        (("1", "0"), False),
        (("0", "1"), False),
        (("z^-1", "z^-1"), False),
    ]:
        v = [_to_plus(side, P(x)) for x in v]
        assert member(side, gens, v) is inside


def test_membership_random_combinations():
    rng = random.Random(13)
    for _ in range(30):
        n = rng.randint(2, 4)
        side = rng.choice("+-")
        g = _to_plus(side, rand_unimodular(rng, n))
        v = [P("0")] * n
        for j in range(n):
            c = _to_plus(side, zpow(rng.randint(0, 2), rand_gauss(rng)))
            col = g.cols()[j]
            v = [a + c * b for a, b in zip(v, col)]
        assert member(side, g, v)
        # coordinates in a basis are unique, so one coordinate with a
        # z^-1 (a z on '-') puts the vector outside
        j = rng.randrange(n)
        off = _to_plus(side, zpow(-1))
        bad = [a + off * b for a, b in zip(v, g.cols()[j])]
        assert not member(side, g, bad)
        # class representatives are polynomial, so a z^-1 entry is outside
        c = LatticeClass("+", _to_plus(side, g)).mat
        j = next(
            j for j in range(n) if any(a and a.val0() == 0 for a in c.cols()[j])
        )
        bad = [a.shift(-1) for a in c.cols()[j]]
        assert not member("+", c, bad)


# ---------------------------------------------------------------------------
# incidence
# ---------------------------------------------------------------------------


def test_standard_vertices_pairwise_incident():
    for n in (2, 3, 4):
        cs = [LatticeClass("+", standard_vertex_mat(n, i)) for i in range(n)]
        for a in cs:
            for b in cs:
                assert incident(a, b)


def test_distant_classes_not_incident():
    a = LatticeClass("+", LMat.identity(2))
    b = LatticeClass("+", M([["z^2", 0], [0, "z^-2"]]))
    assert a.type == b.type == 0
    assert not incident(a, b)
    assert not incident(b, a)


def test_incidence_symmetric_and_invariant():
    rng = random.Random(14)
    for _ in range(20):
        n = rng.randint(2, 3)
        c1 = LatticeClass("+", rand_unimodular(rng, n))
        c2 = LatticeClass("+", rand_unimodular(rng, n))
        forth, back = incident(c1, c2), incident(c2, c1)
        assert forth == back
        g = rand_unimodular(rng, n, dmin=0, dmax=1)
        gc1 = LatticeClass("+", g @ c1.mat)
        gc2 = LatticeClass("+", g @ c2.mat)
        assert incident(gc1, gc2) == forth


def test_incidence_checks_sides():
    a = LatticeClass("+", LMat.identity(2))
    b = LatticeClass("-", LMat.identity(2))
    with pytest.raises(DomainError):
        incident(a, b)


# ---------------------------------------------------------------------------
# chamber chains and adapted bases
# ---------------------------------------------------------------------------


def test_vertex_classes_of_standard_basis():
    got = vertex_classes_of_basis("+", LMat.identity(3))
    assert [c.mat for c in got] == [
        LMat.identity(3),
        LMat.diag([1, 1, Z]),
        LMat.diag([1, Z, Z]),
    ]
    assert [c.type for c in got] == [0, 1, 2]
    gotm = vertex_classes_of_basis("-", LMat.identity(3))
    assert [c.type for c in gotm] == [0, 1, 2]


def test_adapted_basis_standard_chain():
    chain = [LMat.identity(3), LMat.diag([1, 1, Z]), LMat.diag([1, Z, Z])]
    assert adapted_basis("+", chain) == LMat.identity(3)


def test_adapted_basis_random_round_trip():
    rng = random.Random(15)
    for _ in range(25):
        n = rng.randint(2, 4)
        side = rng.choice("+-")
        g = rand_unimodular(rng, n)
        if side == "-":
            g = g.subs_zinv()
        classes = vertex_classes_of_basis(side, g)
        gp = g if side == "+" else g.subs_zinv()
        d0 = int(gp.det().val0())
        chain = []
        for j, c in enumerate(classes):
            k = (d0 + j - c.det_val()) // n
            chain.append(c.mat.scale(zpow(k) if side == "+" else zpow(-k)))
        b = adapted_basis(side, chain)
        assert vertex_classes_of_basis(side, b) == classes


# ---------------------------------------------------------------------------
# panel charts
# ---------------------------------------------------------------------------


def test_chart_recovers_translation_parameter():
    # basis (e1 + c*e2, e2): the type-1 vertex sits at parameter c
    for c in (GaussRat(5, 7), QI_I, GaussRat(-2)):
        basis = LMat.from_cols([[1, c], [0, 1]])
        classes = vertex_classes_of_basis("+", basis)
        chart = ClassPanelChart([classes[0]])
        assert chart.parameter_of(classes[1]) == c
        assert chart.gap_class(c) == classes[1]


def test_chart_round_trip_pinned_values():
    chart = ClassPanelChart([LatticeClass("+", LMat.identity(2))])
    seen = set()
    for t in (GaussRat(0), GaussRat(1), QI_I, GaussRat(2, 3), INF):
        c = chart.gap_class(t)
        assert c.type == 1
        assert chart.parameter_of(c) == t
        seen.add(c)
    assert len(seen) == 5  # thickness: many chambers through one panel
    assert chart.gap_class(0).mat == LMat.diag([1, Z])
    assert chart.gap_class(INF).mat == LMat.diag([Z, 1])


def test_chart_standard_panels_hit_apartment_chambers():
    # dropping a vertex of the standard chamber: {0, inf} are the two
    # chambers of the standard apartment through the panel
    classes = vertex_classes_of_basis("+", LMat.identity(3))
    for drop in range(3):
        panel = [c for j, c in enumerate(classes) if j != drop]
        chart = ClassPanelChart(panel)
        got = {chart.gap_class(0), chart.gap_class(INF)}
        assert classes[drop] in got
        other = (got - {classes[drop]}).pop()
        mat = other.mat
        # the neighbour is still diagonal, i.e. in the standard apartment
        assert all(
            not mat[i, j] for i in range(3) for j in range(3) if i != j
        )


def test_chart_random_round_trip():
    rng = random.Random(16)
    params = [GaussRat(0), GaussRat(1), GaussRat(-1), QI_I, GaussRat(3, 2), INF]
    for _ in range(12):
        n = rng.randint(2, 4)
        side = rng.choice("+-")
        g = rand_unimodular(rng, n)
        if side == "-":
            g = g.subs_zinv()
        classes = vertex_classes_of_basis(side, g)
        drop = rng.randrange(n)
        panel = [c for j, c in enumerate(classes) if j != drop]
        chart = ClassPanelChart(panel)
        assert chart.gap_type == classes[drop].type
        t0 = chart.parameter_of(classes[drop])
        assert chart.gap_class(t0) == classes[drop]
        for t in rng.sample(params, 3):
            c = chart.gap_class(t)
            assert chart.parameter_of(c) == t
            full = vertex_classes_of_basis(side, chart.chamber_basis(t))
            assert set(full) == set(panel) | {c}


def _chart_pick_by_inverse(chart):
    """Q0 and (j1, j2) as built from a Hermite form and inverse of A and
    one rank test per standard basis vector: a check of the pick that
    ClassPanelChart and PanelChart share."""
    n = chart.n
    acan = _canonical_plus_cols(chart._A.cols(), n)
    q = acan.inv() @ chart._B
    assert all(not a or a.val0() >= 0 for row in q.rows for a in row)  # B in A
    q0 = [[q[i, j].coeff(0) for j in range(n)] for i in range(n)]
    base = [[q0[i][j] for i in range(n)] for j in range(n)]
    rank0 = len(rref([list(r) for r in zip(*base)])[1])
    picked = []
    for j in range(n):
        trial = base + [[QI_ONE if i == j else QI_ZERO for i in range(n)]]
        rank = len(rref([list(r) for r in zip(*trial)])[1])
        if rank > rank0:
            picked.append(j)
            base, rank0 = trial, rank
        if len(picked) == 2:
            break
    return q0, picked


def test_chart_sandwich_matches_inverse_construction():
    rng = random.Random(19)
    for _ in range(25):
        n = rng.randint(2, 4)
        side = rng.choice("+-")
        g = rand_unimodular(rng, n)
        if side == "-":
            g = g.subs_zinv()
        classes = vertex_classes_of_basis(side, g)
        drop = rng.randrange(n)
        chart = ClassPanelChart([c for j, c in enumerate(classes) if j != drop])
        q0, picked = _chart_pick_by_inverse(chart)
        assert chart._Q0 == q0
        assert [chart._j1, chart._j2] == picked


def test_chart_rejects_bad_input():
    a = LatticeClass("+", LMat.identity(2))
    with pytest.raises(DomainError):
        ClassPanelChart([a, a])  # a panel has one vertex when n = 2
    eye3 = LatticeClass("+", LMat.identity(3))
    same_type = LatticeClass("+", LMat.diag([P("z^2"), Z, 1]))
    with pytest.raises(DomainError):
        ClassPanelChart([eye3, same_type])  # both of type 0
    far = LatticeClass("+", LMat.diag([P("z^2"), P("z^2"), 1]))
    with pytest.raises(DomainError):
        ClassPanelChart([eye3, far])  # types 0 and 1 but not incident
    chart = ClassPanelChart([a])
    with pytest.raises(DomainError):
        chart.parameter_of(LatticeClass("+", M([["z^3", 0], [0, "z^-2"]])))


# ---------------------------------------------------------------------------
# the Hermite-form chart against the class-based oracle
# ---------------------------------------------------------------------------

CHART_PARAMS = [GaussRat(0), GaussRat(1), GaussRat(-1), QI_I, GaussRat(2, 3), INF]


def _classes_at(side, rep):
    return set(vertex_classes_of_basis(side, rep))


def test_carrier_chart_pinned_values():
    # the pinned classes of test_chart_round_trip_pinned_values, reached
    # from the standard chamber's basis
    chart = HermitePanelChart(Chamber("+", LMat.identity(2)), 1)
    seen = set()
    for t in CHART_PARAMS:
        rep = chart.chamber_basis(t)
        assert chart.parameter_of(Chamber("+", rep)) == t
        seen.add(frozenset(_classes_at("+", rep)))
    assert len(seen) == len(CHART_PARAMS)
    assert vertex_classes_of_basis("+", chart.chamber_basis(0))[1].mat == LMat.diag([1, Z])
    assert vertex_classes_of_basis("+", chart.chamber_basis(INF))[1].mat == LMat.diag([Z, 1])


def test_carrier_chart_block_keeps_the_determinant_up_to_sign():
    for side in "+-":
        for gap in range(3):
            carrier = Chamber(side, LMat.identity(3))
            for chart in (HermitePanelChart(carrier, gap), PanelChart(carrier, gap)):
                for t in CHART_PARAMS:
                    assert chart.chamber_basis(t).det() in (LP_ONE, -LP_ONE)


@settings(max_examples=40, deadline=None)
@given(rng=st.randoms(use_true_random=False), n=st.integers(2, 4), side=st.sampled_from("+-"))
def test_carrier_chart_matches_the_class_based_chart(rng, n, side):
    """For every gap of a random chamber, the Hermite-form chart read off
    its basis gives the class-based chart's parameter of the carrier,
    and at every t the same chamber and the same parameter back."""
    g = rand_unimodular(rng, n)
    if side == "-":
        g = g.subs_zinv()
    carrier = Chamber(side, g)
    classes = vertex_classes_of_basis(side, carrier.rep)
    for gap in range(n):
        oracle = ClassPanelChart([c for j, c in enumerate(classes) if j != gap])
        chart = HermitePanelChart(carrier, gap)
        # one Hermite form of A: the oracle's up to the z-power of its
        # classes' normalisation
        shift = int(chart._A[0, 0].val0() - oracle._A[0, 0].val0())
        assert chart._A == oracle._A.scale(zpow(shift))
        assert chart.parameter_of(carrier) == oracle.parameter_of(classes[gap])
        for t in CHART_PARAMS:
            rep = chart.chamber_basis(t)
            assert _classes_at(side, rep) == _classes_at(side, oracle.chamber_basis(t))
            chamber = Chamber(side, rep)
            assert chamber.rep == rep  # normalised already, as Chamber._built needs
            assert chart.parameter_of(chamber) == t
            assert oracle.parameter_of(vertex_classes_of_basis(side, rep)[gap]) == t


# ---------------------------------------------------------------------------
# U(0) from the Hermite form against back substitution and elimination
# ---------------------------------------------------------------------------


def _chart_setup_by_elimination(carrier, gap):
    """The chart's set-up by a second elimination: A's generators, T(0)
    (column j holds the coordinates modulo z of generator j in the
    Hermite basis of A, by back substitution) and T(0)^{-1} from the rref
    of [T(0) | 1]."""
    side, rep = carrier.side, carrier.rep
    n = rep.nrows
    marks = lattice._marks(side, n, gap - 1)
    gens = [_plus_col(side, col, m) for col, m in zip(rep.cols(), marks)]
    h = _canonical_plus_cols(gens, n)
    images = [[x.coeff(0) for x in _plus_coords(h, a)] for a in gens]
    t0 = [[col[i] for col in images] for i in range(n)]
    red, _ = rref([row + [QI_ONE if i == j else QI_ZERO for j in range(n)]
                   for i, row in enumerate(t0)])
    return gens, t0, [row[n:] for row in red]


@settings(max_examples=40, deadline=None)
@given(rng=st.randoms(use_true_random=False), n=st.integers(2, 4), side=st.sampled_from("+-"))
def test_hermite_form_carries_u0(rng, n, side):
    """The U(0) the oracle's Hermite form of A records inverts T(0), and
    its rows p, q, the ones the Hermite-form chart reads, are the
    elimination's; its h is the library's Hermite form."""
    g = rand_unimodular(rng, n)
    if side == "-":
        g = g.subs_zinv()
    carrier = Chamber(side, g)
    eye = [[QI_ONE if i == j else QI_ZERO for j in range(n)] for i in range(n)]
    for gap in range(n):
        chart = HermitePanelChart(carrier, gap)
        gens, t0, t0_inv = _chart_setup_by_elimination(carrier, gap)
        h, u0 = hermite_form_with_u0(gens, n)
        assert h == _canonical_plus_cols(gens, n)
        for k in (chart._p, chart._q):
            assert list(u0[k]) == t0_inv[k]
        product = [[sum((t0[i][k] * u0[k][j] for k in range(n)), QI_ZERO)
                    for j in range(n)] for i in range(n)]
        assert product == eye


# ---------------------------------------------------------------------------
# the root-group chart
# ---------------------------------------------------------------------------


def root_step(side, s, n, t) -> LMat:
    """x_s(t) n_s: x_s(t) = 1 + t z^e E_ij with (i, j, e) = (s-1, s, 0) on
    '+' and (s, s-1, 0) on '-' for a finite s, (n-1, 0, 1) on '+' and
    (0, n-1, -1) on '-' for the affine node."""
    if s < n:
        i, j, e = (s - 1, s, 0) if side == "+" else (s, s - 1, 0)
    else:
        i, j, e = (n - 1, 0, 1) if side == "+" else (0, n - 1, -1)
    rows = [[LP_ONE if a == b else 0 for b in range(n)] for a in range(n)]
    rows[i][j] = zpow(e, t) if t else 0
    return LMat(rows) @ weyl_matrix(word_to_affine((s,), n))


def _proj(t):
    """t as a point of P^1: (t, 1), and (1, 0) for INF."""
    return (QI_ONE, QI_ZERO) if t == INF else (t, QI_ONE)


def _bracket(x, y):
    return x[0] * y[1] - x[1] * y[0]


def assert_moebius(pairs):
    """Each pair (t, u) past the first three satisfies u = f(t), for f the
    Moebius map fitted on the first three: f keeps the cross ratio,
    [t,t1][t3,t2] / ([t,t2][t3,t1]) for t against (t1, t2, t3), written
    without division on points of P^1."""
    (t1, u1), (t2, u2), (t3, u3) = [(_proj(t), _proj(u)) for t, u in pairs[:3]]
    for t, u in pairs[3:]:
        t, u = _proj(t), _proj(u)
        lhs = _bracket(t, t1) * _bracket(t3, t2) * _bracket(u, u2) * _bracket(u3, u1)
        rhs = _bracket(u, u1) * _bracket(u3, u2) * _bracket(t, t2) * _bracket(t3, t1)
        assert lhs == rhs


@pytest.mark.parametrize("n", [2, 3, 4])
def test_panel_chart_is_decode_on_the_standard_pair(n):
    """On the standard pair the chart of the panel of cotype s of cp is
    decode_coords' coordinate on the word (s,), INF included."""
    cp, dm = Chamber("+", LMat.identity(n)), Chamber("-", LMat.identity(n))
    for gap in range(n):
        panel = cp.panel(gap)
        (s,) = panel.cotype_nodes()
        for t in CHART_PARAMS:
            c = panel_chamber(panel, t)
            assert c == decode_coords(cp, dm, (s,), [t])
            assert panel_parameter(panel, c) == t


@settings(max_examples=40, deadline=None)
@given(rng=st.randoms(use_true_random=False), n=st.integers(2, 4), side=st.sampled_from("+-"))
def test_panel_chamber_is_the_root_step_on_the_carrier(rng, n, side):
    """panel_chamber(panel, t) is carrier x_s(t) n_s, representative and
    all, at Weyl distance s from the carrier; INF is the carrier; and
    panel_parameter reads every t back."""
    g = rand_unimodular(rng, n)
    carrier = Chamber(side, g if side == "+" else g.subs_zinv())
    for gap in range(n):
        panel = carrier.panel(gap)
        (s,) = panel.cotype_nodes()
        for t in CHART_PARAMS:
            c = panel_chamber(panel, t)
            if t == INF:
                assert c.rep == carrier.rep and delta(carrier, c) == word_to_affine((), n)
            else:
                assert c.rep == carrier.rep @ root_step(side, s, n, t)
                assert delta(carrier, c) == word_to_affine((s,), n)
            assert panel_parameter(panel, c) == t


@settings(max_examples=30, deadline=None)
@given(rng=st.randoms(use_true_random=False), n=st.integers(2, 4), side=st.sampled_from("+-"))
def test_the_root_step_is_the_matmul_by_x_s_n_s(rng, n, side):
    """_root_cols is rep x_s(t) n_s against the matmul oracle, for every s
    (the affine node included) on both sides, and _root_rows inverts it:
    applied to the rows of rep^{-1} it gives the inverse of the step."""
    rep = rand_unimodular(rng, n)
    inv = rep.inv()
    for s in range(1, n + 1):
        for t in CHART_PARAMS[:-1]:
            cols = rep.cols()
            lattice._root_cols(cols, s, t, side)
            stepped = LMat._of(zip(*cols))
            assert stepped == rep @ root_step(side, s, n, t)
            rows = list(inv.rows)
            lattice._root_rows(rows, s, t, side)
            assert LMat._of(rows) @ stepped == LMat.identity(n)


def test_carrier_chart_takes_no_hermite_form(monkeypatch):
    calls = []
    hnf = lattice._hnf_poly_cols

    def counted(cols, n):
        calls.append(n)
        return hnf(cols, n)

    monkeypatch.setattr(lattice, "_hnf_poly_cols", counted)
    rng = random.Random(31)
    for side in "+-":
        carrier = Chamber(side, rand_unimodular(rng, 3))
        for gap in range(3):
            panel = carrier.panel(gap)
            for t in CHART_PARAMS:
                assert panel_parameter(panel, panel_chamber(panel, t)) == t
    assert calls == []


@settings(max_examples=40, deadline=None)
@given(rng=st.randoms(use_true_random=False), n=st.integers(2, 4), side=st.sampled_from("+-"))
def test_root_chart_is_a_moebius_change_of_the_hermite_chart(rng, n, side):
    """On every panel of a random chamber the two charts sweep the same
    chambers: each chart's chamber at t is the other's at the parameter
    the other reads off it.  The root chart is panel_chamber and
    panel_parameter on the panel.  The root parameter is a Moebius
    function of the Hermite one, fitted on three parameters and checked
    on the rest."""
    g = rand_unimodular(rng, n)
    carrier = Chamber(side, g if side == "+" else g.subs_zinv())
    for gap in range(n):
        old, panel = HermitePanelChart(carrier, gap), carrier.panel(gap)
        pairs = []
        for t in CHART_PARAMS:
            c = Chamber(side, old.chamber_basis(t))
            u = panel_parameter(panel, c)
            assert panel_chamber(panel, u) == c
            d = panel_chamber(panel, t)
            assert Chamber(side, old.chamber_basis(old.parameter_of(d))) == d
            pairs.append((t, u))
        assert_moebius(pairs)
