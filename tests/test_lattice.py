"""Tests for lattice canonical forms, classes, incidence, and panel charts."""

import random

import pytest

from twinbuild.errors import DomainError, NotInvertibleError
from twinbuild.exactalg import (
    GaussRat,
    LMat,
    QI_I,
    QI_ONE,
    QI_ZERO,
    Z,
    parse_poly,
    rref,
    zpow,
)
from twinbuild.lattice import (
    INF,
    Lattice,
    LatticeClass,
    PanelChart,
    _canonical_plus_cols,
    _to_plus,
    adapted_basis,
    canonical_class,
    canonical_lattice,
    incident,
    member,
    standard_vertex_mat,
    vertex_classes_of_basis,
)


def P(s):
    return parse_poly(s)


def M(rows):
    return LMat([[P(x) if isinstance(x, str) else x for x in row] for row in rows])


def cls_of(side, mat):
    return canonical_class(Lattice(side, mat))


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
    cols = [list(LMat.identity(n).col(j)) for j in range(n)]
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
# canonical forms
# ---------------------------------------------------------------------------


def test_canonical_identity_and_column_order():
    eye = LMat.identity(2)
    assert canonical_lattice(Lattice("+", eye)) == eye
    swapped = M([[0, 1], [1, 0]])
    assert canonical_lattice(Lattice("+", swapped)) == eye


def test_canonical_pinned_example():
    g = M([["z", 1], [0, 1]])
    assert canonical_lattice(Lattice("+", g)) == g
    # same module, different generators
    g2 = M([[1, "z"], [1, 0]])
    assert canonical_lattice(Lattice("+", g2)) == g


def test_standard_vertex_generators():
    assert standard_vertex_mat(3, 1) == LMat.diag([Z, 1, 1])
    got = canonical_lattice(Lattice("+", standard_vertex_mat(3, 2)))
    assert got == LMat.diag([Z, Z, 1])
    minus = canonical_lattice(Lattice("-", standard_vertex_mat(3, 2, side="-")))
    assert minus == LMat.diag([zpow(-1), zpow(-1), 1])


def test_canonical_idempotent_random():
    rng = random.Random(11)
    for _ in range(40):
        n = rng.randint(2, 4)
        side = rng.choice("+-")
        g = rand_unimodular(rng, n)
        if side == "-":
            g = g.subs_zinv()
        c = canonical_lattice(Lattice(side, g))
        assert canonical_lattice(Lattice(side, c)) == c


def test_canonical_invariant_under_generator_change():
    rng = random.Random(12)
    for _ in range(25):
        n = rng.randint(2, 4)
        g = rand_unimodular(rng, n)
        c1 = canonical_lattice(Lattice("+", g))
        # right-multiplying by a polynomial matrix with constant nonzero
        # determinant keeps the module
        u = rand_unimodular(rng, n, dmin=0, dmax=2, scalings=False)
        assert canonical_lattice(Lattice("+", g @ u)) == c1


def test_degenerate_generators_rejected():
    with pytest.raises(NotInvertibleError):
        Lattice("+", M([["1+z", 0], [0, 1]]))
    with pytest.raises(NotInvertibleError):
        Lattice("+", M([[1, 1], [1, 1]]))


def rand_class(rng):
    """A random class: n = 2..4, either side."""
    n = rng.randint(2, 4)
    side = rng.choice("+-")
    g = rand_unimodular(rng, n)
    return cls_of(side, g if side == "+" else g.subs_zinv())


def test_class_matrices_and_their_z_multiples_are_canonical():
    # the invariant stated at the top of twinbuild/lattice.py
    rng = random.Random(17)
    for _ in range(30):
        c = rand_class(rng)
        h = _to_plus(c.side, c.mat)
        for k in range(-3, 4):
            hk = h.scale(zpow(k))
            assert _canonical_plus_cols(hk.cols(), c.n) == hk


@pytest.mark.parametrize("side", ["+", "-"])
@pytest.mark.parametrize(
    "rows",
    [
        [[0, 1], ["z", 0]],          # not triangular
        [["z", 0], [0, "z"]],        # least exponent 1, not 0
        [[2, 0], [0, "z"]],          # diagonal coefficient not 1
        [["z", "z"], [0, 1]],        # off-diagonal exponent not below e_0
        [["z", "z^-1"], [0, 1]],     # negative exponent
        [["1 + z", 0], [0, 1]],      # diagonal not a monomial
        [[1, 0], [0, 0]],            # zero diagonal
        [[1, 0, 0], [0, 1, 0]],      # not square
    ],
)
def test_lattice_class_rejects_non_canonical_matrices(side, rows):
    # Read in 1/z on the minus side, so mirror the plus-side examples.
    mat = M(rows) if side == "+" else M(rows).subs_zinv()
    with pytest.raises(DomainError):
        LatticeClass(side, mat)


def test_lattice_class_accepts_canonical_forms_and_rejects_their_mirrors():
    canonical = M([["z^2", "1 + z", 3], [0, "z", 0], [0, 0, 1]])
    assert LatticeClass("+", canonical).type == 0
    assert LatticeClass("-", canonical.subs_zinv()).type == 0
    with pytest.raises(DomainError):
        LatticeClass("-", canonical)
    with pytest.raises(DomainError):
        LatticeClass("0", LMat.identity(2))


def test_vertex_classes_of_random_bases_are_canonical():
    # Each class rebuilt through the constructor's check equals the
    # canonical class of its own matrix, computed by a Hermite form.
    rng = random.Random(23)
    for _ in range(25):
        n = rng.randint(2, 4)
        side = rng.choice("+-")
        basis = rand_unimodular(rng, n)
        for c in vertex_classes_of_basis(side, basis):
            again = LatticeClass(c.side, c.mat)
            assert again == c == cls_of(side, c.mat)


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
    a = cls_of("+", eye)
    b = cls_of("+", LMat.diag([Z, Z, Z]))
    assert a == b
    assert a.mat == eye


def test_types_of_standard_vertices():
    for n in (2, 3, 4):
        for i in range(n):
            c = cls_of("+", standard_vertex_mat(n, i))
            assert c.type == i
            cm = cls_of("-", standard_vertex_mat(n, i, side="-"))
            assert cm.type == i


def test_type_shifts_with_determinant():
    g = LMat.diag([Z, 1, 1])
    for i in range(3):
        c = cls_of("+", g @ standard_vertex_mat(3, i))
        assert c.type == (i + 1) % 3


# ---------------------------------------------------------------------------
# membership
# ---------------------------------------------------------------------------


def test_membership_basics():
    h = canonical_lattice(Lattice("+", M([["z", 1], [0, 1]])))
    assert member("+", h, (P("z"), P("0")))
    assert member("+", h, (P("1"), P("1")))
    assert member("+", h, (P("z + 1"), P("1")))
    assert not member("+", h, (P("1"), P("0")))
    assert not member("+", h, (P("z^-1"), P("0")))


def test_membership_random_combinations():
    rng = random.Random(13)
    for _ in range(30):
        n = rng.randint(2, 4)
        g = rand_unimodular(rng, n)
        h = canonical_lattice(Lattice("+", g))
        v = [P("0")] * n
        for j in range(n):
            c = zpow(rng.randint(0, 2), rand_gauss(rng))
            col = g.col(j)
            v = [a + c * b for a, b in zip(v, col)]
        assert member("+", h, v)
        # class representatives are polynomial, so a z^-1 entry is outside
        c = canonical_class(Lattice("+", g)).mat
        j = next(
            j for j in range(n) if any(a and a.val0() == 0 for a in c.col(j))
        )
        bad = [a.shift(-1) for a in c.col(j)]
        assert not member("+", c, bad)


# ---------------------------------------------------------------------------
# incidence
# ---------------------------------------------------------------------------


def test_standard_vertices_pairwise_incident():
    for n in (2, 3, 4):
        cs = [cls_of("+", standard_vertex_mat(n, i)) for i in range(n)]
        for a in cs:
            for b in cs:
                assert incident(a, b)


def test_distant_classes_not_incident():
    a = cls_of("+", LMat.identity(2))
    b = cls_of("+", M([["z^2", 0], [0, "z^-2"]]))
    assert a.type == b.type == 0
    assert not incident(a, b)
    assert not incident(b, a)


def test_incidence_symmetric_and_invariant():
    rng = random.Random(14)
    for _ in range(20):
        n = rng.randint(2, 3)
        c1 = cls_of("+", rand_unimodular(rng, n))
        c2 = cls_of("+", rand_unimodular(rng, n))
        forth, back = incident(c1, c2), incident(c2, c1)
        assert forth == back
        g = rand_unimodular(rng, n, dmin=0, dmax=1)
        gc1 = cls_of("+", g @ c1.mat)
        gc2 = cls_of("+", g @ c2.mat)
        assert incident(gc1, gc2) == forth


def test_incidence_checks_sides():
    a = cls_of("+", LMat.identity(2))
    b = cls_of("-", LMat.identity(2))
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
            chain.append(c.scaled(k))
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
        chart = PanelChart([classes[0]])
        assert chart.parameter_of(classes[1]) == c
        assert chart.gap_class(c) == classes[1]


def test_chart_round_trip_pinned_values():
    chart = PanelChart([cls_of("+", LMat.identity(2))])
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
        chart = PanelChart(panel)
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
        chart = PanelChart(panel)
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
    one rank test per standard basis vector: the oracle of PanelChart."""
    n = chart.n
    acan = _canonical_plus_cols(chart._A.cols(), n)
    q = acan.inv() @ chart._B
    q0 = [[q[i, j].ev0() for j in range(n)] for i in range(n)]
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
        chart = PanelChart([c for j, c in enumerate(classes) if j != drop])
        q0, picked = _chart_pick_by_inverse(chart)
        assert chart._Q0 == q0
        assert [chart._j1, chart._j2] == picked


def test_chart_rejects_bad_input():
    a = cls_of("+", LMat.identity(2))
    with pytest.raises(DomainError):
        PanelChart([a, a])  # a panel has one vertex when n = 2
    eye3 = cls_of("+", LMat.identity(3))
    same_type = cls_of("+", LMat.diag([P("z^2"), Z, 1]))
    with pytest.raises(DomainError):
        PanelChart([eye3, same_type])  # both of type 0
    far = cls_of("+", LMat.diag([P("z^2"), P("z^2"), 1]))
    with pytest.raises(DomainError):
        PanelChart([eye3, far])  # types 0 and 1 but not incident
    chart = PanelChart([a])
    with pytest.raises(DomainError):
        chart.parameter_of(cls_of("+", M([["z^3", 0], [0, "z^-2"]])))
