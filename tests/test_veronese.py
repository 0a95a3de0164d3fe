"""Tests for the spherical and affine Veronese embeddings: projectors,
flag recovery, unitary loops, the gauge action, and the eigenvalue
caveat."""

import copy
import pickle
import random
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twinbuild.errors import DomainError, NotInImageError
from twinbuild.exactalg import (
    GaussRat,
    LMat,
    LP_ONE,
    LP_ZERO,
    LaurentPoly,
    QI_I,
    QI_ONE,
    QI_ZERO,
    charpoly,
    qi_roots,
    rref,
)
from twinbuild import veronese
from twinbuild.lattice import LatticeClass
from twinbuild.veronese import (
    SubspaceFlag,
    affine_veronese_vertex,
    barycentric_affine_veronese,
    caveat_check,
    gauge,
    perp,
    pi_projector,
    pi_tls,
    projector_of,
    recover_flag,
    sl_loop_pair,
    spherical_veronese,
    squared_distance,
    subspace,
    unitary_loop,
)

from test_exactalg import dense_rref


def rand_gauss(rng, span=2):
    return GaussRat(
        Fraction(rng.randint(-span, span)),
        Fraction(rng.randint(-1, 1)),
    )


def rand_invertible_const(rng, n):
    """Random determinant-1 constant matrix: elementary row operations."""
    rows = [[QI_ONE if i == j else QI_ZERO for j in range(n)] for i in range(n)]
    for _ in range(2 * n):
        i, j = rng.sample(range(n), 2)
        c = rand_gauss(rng)
        rows[i] = [a + c * b for a, b in zip(rows[i], rows[j])]
    return rows


def rand_flag(rng, n):
    """Random full-rank frame cut into a flag of random signature."""
    frame = rand_invertible_const(rng, n)
    dims = sorted(rng.sample(range(1, n), rng.randint(1, n - 1)))
    return SubspaceFlag(n, [frame[:d] for d in dims])


def rand_weights(rng, count):
    raw = [Fraction(rng.randint(1, 5)) for _ in range(count)]
    total = sum(raw)
    return [w / total for w in raw]


def rand_qi_unitary(rng, n):
    """A Q(i)-unitary constant: permutation matrix with unit phases."""
    perm = list(range(n))
    rng.shuffle(perm)
    phases = [rng.choice([QI_ONE, -QI_ONE, QI_I, -QI_I]) for _ in range(n)]
    rows = [[QI_ZERO] * n for _ in range(n)]
    for j, i in enumerate(perm):
        rows[i][j] = phases[j]
    return LMat(rows)


def rand_projector(rng, n, k=None):
    """Projector whose kernel is a random subspace (of dimension k when
    given)."""
    frame = rand_invertible_const(rng, n)
    if k is None:
        k = rng.randint(1, n - 1)
    return projector_of(frame[:k])


def rand_sl_pair(rng, n):
    k = rng.randint(1, n - 1)
    return sl_loop_pair(rand_projector(rng, n, k), rand_projector(rng, n, k))


def rand_det1_loop(rng, n):
    """Random winding-free unitary loop: determinant-one projector
    pairs mixed with constant unitaries."""
    g = rand_sl_pair(rng, n)
    u = rand_qi_unitary(rng, n)
    if rng.random() < 0.5:
        g = u @ g @ u.star()
    else:
        g = g @ u
    if rng.random() < 0.5:
        g = g @ rand_sl_pair(rng, n)
    return g


def apply_const(g: LMat, flag: SubspaceFlag) -> SubspaceFlag:
    """Transform each flag subspace by the constant matrix g."""
    n = flag.n
    grid = [[g[i, j].coeff(0) for j in range(n)] for i in range(n)]
    steps = []
    for step in flag.steps:
        steps.append(
            [
                [
                    sum((grid[i][j] * v[j] for j in range(n)), QI_ZERO)
                    for i in range(n)
                ]
                for v in step
            ]
        )
    return SubspaceFlag(n, steps)


# ---------------------------------------------------------------------------
# projectors and perp
# ---------------------------------------------------------------------------


def test_projector_of_coordinate_subspace():
    x = projector_of([[1, 0, 0], [0, 1, 0]])
    assert x == LMat.diag([LP_ZERO, LP_ZERO, LP_ONE])


def test_projector_complement_identity():
    rng = random.Random(3)
    for _ in range(10):
        n = rng.choice([2, 3, 4])
        frame = rand_invertible_const(rng, n)
        k = rng.randint(1, n - 1)
        v = frame[:k]
        xv = projector_of(v)
        xperp = projector_of(perp(v, n))
        assert xperp == LMat.identity(n) - xv


def test_projector_trace_and_idempotence():
    rng = random.Random(5)
    for _ in range(15):
        n = rng.choice([2, 3, 4])
        frame = rand_invertible_const(rng, n)
        k = rng.randint(1, n - 1)
        x = projector_of(frame[:k])
        assert x.trace() == LaurentPoly({0: GaussRat(n - k)})
        assert x @ x == x
        assert x.star() == x


@settings(max_examples=40, derandomize=True, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 5), data=st.data())
def test_projector_kills_the_subspace_and_fixes_its_complement(seed, n, data):
    frame = rand_invertible_const(random.Random(seed), n)
    k = data.draw(st.integers(1, n - 1))
    basis = frame[:k]
    x = projector_of(basis)
    for v in basis:
        assert x @ LMat.from_cols([v]) == LMat.zeros(n, 1)
    for w in perp(basis, n):
        col = LMat.from_cols([w])
        assert x @ col == col


def test_projector_trivial_subspaces_rejected():
    with pytest.raises(DomainError):
        projector_of([[0, 0]])
    with pytest.raises(DomainError):
        projector_of([[1, 0], [0, 1]])


@pytest.mark.parametrize("bad", [0.1, "1/2", None])
def test_scalars_that_are_not_rational_are_rejected(bad):
    # Otherwise a float would enter through its binary expansion
    # (0.1 as 3602879701896397/36028797018963968) and a str would be parsed.
    with pytest.raises(TypeError):
        subspace([[bad, 1]])
    with pytest.raises(TypeError):
        SubspaceFlag(2, [[[bad, 1]]])
    with pytest.raises(TypeError):
        spherical_veronese(SubspaceFlag(2, [[[1, 0]]]), [bad])
    with pytest.raises(TypeError):
        barycentric_affine_veronese(LMat.identity(2), {0: bad})
    assert subspace([[Fraction(1, 2), 1]]) == subspace([[1, 2]])


def test_subspace_flag_is_an_immutable_value():
    fl = SubspaceFlag(3, [[[1, 0, 0]], [[1, 0, 0], [0, 1, 1]]])
    assert repr(fl) == "<SubspaceFlag n=3 dims=(1, 2)>"
    for name, value in (("n", 4), ("steps", ())):
        with pytest.raises(AttributeError):
            setattr(fl, name, value)
    with pytest.raises(AttributeError):
        del fl.n
    for twin in (pickle.loads(pickle.dumps(fl)), copy.copy(fl), copy.deepcopy(fl)):
        assert type(twin) is SubspaceFlag
        assert twin == fl and hash(twin) == hash(fl)
        assert twin.steps == fl.steps and twin.dims == (1, 2)
    assert fl != SubspaceFlag(3, [[[1, 0, 0]]])


def test_perp_coordinate():
    assert perp([[1, 0, 0]], 3) == subspace([[0, 1, 0], [0, 0, 1]])


def test_perp_needs_vectors_of_length_n():
    """A given n was ignored when the vectors had another length: the
    complement of a 3-vector "in Q(i)^2" came back as two 3-vectors, and
    that of a zero 3-vector as the rows of the 2x2 identity."""
    with pytest.raises(DomainError, match="perp needs vectors of 2 entries"):
        perp([[1, 0, 0]], 2)
    with pytest.raises(DomainError, match="perp needs vectors of 2 entries"):
        perp([[0, 0, 0]], 2)
    with pytest.raises(DomainError, match="perp needs vectors of 3 entries"):
        perp([[1, 0, 0], [0, 1]], 3)
    with pytest.raises(DomainError, match="perp needs vectors of 3 entries"):
        perp([[1, 0, 0], [0, 1]])
    with pytest.raises(DomainError, match="cannot infer"):
        perp([])
    # A zero vector gives its length: the complement is everything.
    assert perp([[0, 0]]) == perp([[0, 0]], 2) == subspace([[1, 0], [0, 1]])


def test_perp_involution_and_direct_sum():
    rng = random.Random(7)
    for _ in range(15):
        n = rng.choice([2, 3, 4])
        frame = rand_invertible_const(rng, n)
        k = rng.randint(1, n - 1)
        v = subspace(frame[:k])
        w = perp(v, n)
        assert perp(w, n) == v
        assert len(subspace(list(v) + list(w))) == n


def test_perp_of_flag_reverses():
    fl = SubspaceFlag(3, [[[1, 0, 0]], [[1, 0, 0], [0, 1, 0]]])
    pf = perp(fl)
    assert pf.dims == (1, 2)
    assert pf.steps[0] == subspace([[0, 0, 1]])


# ---------------------------------------------------------------------------
# spherical veronese and recovery
# ---------------------------------------------------------------------------


def test_spherical_veronese_line_n2():
    fl = SubspaceFlag(2, [[[1, 0]]])
    assert spherical_veronese(fl, [1]) == LMat(
        [[GaussRat(Fraction(-1, 2)), QI_ZERO], [QI_ZERO, GaussRat(Fraction(1, 2))]]
    )


def test_spherical_veronese_full_flag_diagonal_increasing():
    n = 4
    fl = SubspaceFlag(
        n, [[[1, 0, 0, 0]], [[1, 0, 0, 0], [0, 1, 0, 0]],
            [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0]]]
    )
    x = spherical_veronese(fl, [Fraction(1, 3)] * 3)
    assert x.trace() == LP_ZERO
    diag = [x[i, i].coeff(0).re for i in range(n)]
    assert all(a < b for a, b in zip(diag, diag[1:]))
    for i in range(n):
        for j in range(n):
            if i != j:
                assert not x[i, j]


def test_spherical_veronese_coordinate_flags_diagonal():
    """The standard-apartment images are the diagonal traceless matrices
    produced by the weight pattern."""
    rng = random.Random(11)
    n = 3
    for _ in range(10):
        dims = sorted(rng.sample(range(1, n), rng.randint(1, n - 1)))
        axes = list(range(n))
        rng.shuffle(axes)
        steps = [
            [[QI_ONE if c == a else QI_ZERO for c in range(n)] for a in axes[:d]]
            for d in dims
        ]
        fl = SubspaceFlag(n, steps)
        x = spherical_veronese(fl, rand_weights(rng, len(dims)))
        assert x.trace() == LP_ZERO
        for i in range(n):
            for j in range(n):
                if i != j:
                    assert not x[i, j]


def test_spherical_veronese_unitary_equivariance():
    rng = random.Random(13)
    for _ in range(10):
        n = rng.choice([2, 3])
        fl = rand_flag(rng, n)
        ws = rand_weights(rng, len(fl.steps))
        g = rand_qi_unitary(rng, n)
        left = spherical_veronese(apply_const(g, fl), ws)
        right = g @ spherical_veronese(fl, ws) @ g.star()
        assert left == right


def test_spherical_veronese_weight_mismatch():
    fl = SubspaceFlag(2, [[[1, 0]]])
    with pytest.raises(DomainError, match="one weight per flag subspace"):
        spherical_veronese(fl, [Fraction(1, 2), Fraction(1, 2)])
    with pytest.raises(DomainError, match="sum to 1"):
        spherical_veronese(fl, [Fraction(1, 2)])
    fl = SubspaceFlag(3, [[[1, 0, 0]], [[1, 0, 0], [0, 1, 0]]])
    for bad in ([2, -1], [QI_ZERO, QI_ONE], [QI_I, 1 - QI_I]):
        with pytest.raises(DomainError, match="positive rationals"):
            spherical_veronese(fl, bad)


def test_recover_flag_inverts_line_example():
    x = LMat([[GaussRat(Fraction(-1, 2)), QI_ZERO],
              [QI_ZERO, GaussRat(Fraction(1, 2))]])
    assert recover_flag(x) == SubspaceFlag(2, [[[1, 0]]])


def test_recover_flag_round_trip():
    rng = random.Random(17)
    for _ in range(100):
        n = rng.choice([2, 3, 4])
        fl = rand_flag(rng, n)
        ws = rand_weights(rng, len(fl.steps))
        assert recover_flag(spherical_veronese(fl, ws)) == fl


def test_recover_flag_rejects_zero():
    with pytest.raises(NotInImageError):
        recover_flag(LMat.zeros(2, 2))


def test_recover_flag_rejects_irrational_spectrum():
    with pytest.raises(NotInImageError):
        recover_flag(LMat([[QI_ZERO, GaussRat(2)], [QI_ONE, QI_ZERO]]))


@pytest.mark.parametrize(
    "rows",
    [
        [[0, -1], [1, 0]],
        [[1, 1], [0, 1]],
        [[1, 1, 0], [0, 1, 0], [0, 0, 2]],
    ],
    ids=["spectrum-plus-minus-i", "jordan-block", "jordan-block-two-eigenvalues"],
)
def test_recover_flag_rejects_non_image(rows):
    with pytest.raises(NotInImageError):
        recover_flag(LMat([[GaussRat(a) for a in row] for row in rows]))


def test_recover_flag_rejects_non_square():
    with pytest.raises(DomainError):
        recover_flag(LMat.zeros(2, 3))


def test_flag_recovery_loads_only_the_standard_library():
    """Importing twinbuild and recovering a flag (a cubic characteristic
    polynomial) loads no module outside twinbuild and the standard
    library: the package has no runtime dependency."""
    code = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import twinbuild\n"
        "from fractions import Fraction\n"
        "fl = twinbuild.SubspaceFlag(3, [[[1, 0, 0]], [[1, 0, 0], [0, 1, 1]]])\n"
        "ws = [Fraction(1, 3), Fraction(2, 3)]\n"
        "assert twinbuild.recover_flag(twinbuild.spherical_veronese(fl, ws)) == fl\n"
        "tops = {m.partition('.')[0] for m in set(sys.modules) - before}\n"
        "print(sorted(tops - set(sys.stdlib_module_names) - {'twinbuild'}))\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_spherical_eigenvalue_pattern():
    """Ascending eigenvalues are the weight partial sums shifted so the
    weighted sum vanishes."""
    rng = random.Random(19)
    for _ in range(10):
        n = rng.choice([3, 4])
        fl = rand_flag(rng, n)
        ws = rand_weights(rng, len(fl.steps))
        x = spherical_veronese(fl, ws)
        grid = [[x[i, j].coeff(0) for j in range(n)] for i in range(n)]
        roots = sorted(qi_roots(charpoly(grid)), key=lambda g: g.re)
        assert len(roots) == n
        assert sum((r.re for r in roots), Fraction(0)) == 0
        lowest = roots[0].re
        dims = (0,) + fl.dims + (n,)
        expect = []
        acc = Fraction(0)
        for idx in range(len(fl.steps) + 1):
            if idx:
                acc += Fraction(ws[idx - 1])
            expect.extend([lowest + acc] * (dims[idx + 1] - dims[idx]))
        assert [r.re for r in roots] == expect


def test_incidence_squared_distance_n3():
    """Incident line/plane pairs sit at the fixed squared distance 2/3;
    non-incident pairs sit strictly farther."""
    lines = [
        subspace([v])
        for v in [
            [1, 0, 0], [0, 1, 0], [0, 0, 1],
            [1, 1, 0], [1, 0, 1], [0, 1, 1], [1, 1, 1],
            [1, -1, 2], [GaussRat(0, 1), 1, 0],
        ]
    ]
    planes = [perp(l, 3) for l in lines]
    base = Fraction(2, 3)
    for l in lines:
        xl = _veronese_single(l, 3)
        for p in planes:
            xp = _veronese_single(p, 3)
            d2 = squared_distance(xl, xp)
            assert not d2.im
            if _contained(l, p):
                assert d2.re == base
            else:
                assert d2.re > base


def _veronese_single(rows, n):
    return spherical_veronese(SubspaceFlag(n, [rows]), [1])


def _contained(small, big):
    return len(subspace(list(big) + list(small))) == len(big)


# ---------------------------------------------------------------------------
# unitary loops and gauge
# ---------------------------------------------------------------------------


def test_unitary_loop_zero_projector():
    assert unitary_loop(LMat.zeros(2, 2)) == LMat.identity(2)


def test_unitary_loop_coordinate():
    g = unitary_loop(pi_projector(2, 1))
    assert g == LMat.diag([LaurentPoly({1: QI_ONE}), LP_ONE])
    h = sl_loop_pair(pi_projector(2, 1), projector_of([[1, 0]]))
    assert h == LMat.diag(
        [LaurentPoly({1: QI_ONE}), LaurentPoly({-1: QI_ONE})]
    )
    assert h.det() == LP_ONE


def test_unitary_loop_identity_many():
    rng = random.Random(23)
    for _ in range(50):
        n = rng.choice([2, 3])
        p = rand_projector(rng, n)
        g = unitary_loop(p)
        assert g @ g.sharp() == LMat.identity(n)


def test_unitary_loop_rejects_non_projector():
    with pytest.raises(DomainError):
        unitary_loop(LMat([[QI_ONE, QI_ONE], [QI_ZERO, QI_ONE]]))


def test_sl_loop_pair_inverts_g_q_by_its_sharp(monkeypatch):
    """g_Q g_Q^# = 1 for a projector Q, so sl_loop_pair takes g_Q's sharp
    for its inverse: the pair equals g_P g_Q^{-1} by the minor-table
    inverse, and building it runs no inverse."""
    rng = random.Random(37)
    pairs = []
    for _ in range(30):
        n = rng.randint(2, 4)
        k = rng.randint(1, n - 1)
        pairs.append((rand_projector(rng, n, k), rand_projector(rng, n, k)))
    inverses = []
    inv_from = LMat._inv_from
    monkeypatch.setattr(
        LMat, "_inv_from", lambda self, top: inverses.append(self) or inv_from(self, top)
    )
    got = [sl_loop_pair(p, q) for p, q in pairs]
    assert inverses == []
    for (p, q), g in zip(pairs, got):
        assert g == unitary_loop(p) @ unitary_loop(q).inv()


def test_sl_loop_pair_checks_each_projector_once(monkeypatch):
    """sl_loop_pair checks p and q once each and builds both loops from
    the checked projectors: two projector checks, not four."""
    checked = []
    is_projector = veronese._is_projector
    monkeypatch.setattr(
        veronese, "_is_projector", lambda m: checked.append(m) or is_projector(m)
    )
    p, q = pi_projector(2, 1), projector_of([[1, 0]])
    g = sl_loop_pair(p, q)
    assert checked == [p, q]
    assert g == unitary_loop(p) @ unitary_loop(q).sharp()


def test_sl_loop_pair_rank_mismatch():
    with pytest.raises(DomainError):
        sl_loop_pair(pi_projector(3, 1), pi_projector(3, 2))


@pytest.mark.parametrize("first", [True, False], ids=["p", "q"])
def test_sl_loop_pair_rejects_a_non_projector(first):
    bad = LMat([[QI_ONE, QI_ONE], [QI_ZERO, QI_ONE]])
    good = pi_projector(2, 1)
    with pytest.raises(DomainError, match="sl_loop_pair needs two projectors"):
        sl_loop_pair(*((bad, good) if first else (good, bad)))


def test_gauge_constant_unitary_is_conjugation():
    rng = random.Random(29)
    for _ in range(10):
        n = rng.choice([2, 3])
        g = rand_qi_unitary(rng, n)
        x = pi_tls(n, rng.randint(0, n - 1))
        assert gauge(g, x) == g @ x @ g.star()


def test_gauge_sl_pair_on_zero():
    h = sl_loop_pair(pi_projector(2, 1), projector_of([[1, 0]]))
    assert gauge(h, LMat.zeros(2, 2)) == LMat.diag(
        [LP_ONE, -LP_ONE]
    )


def test_gauge_preserves_charge_space():
    rng = random.Random(31)
    for _ in range(15):
        n = rng.choice([2, 3])
        g = rand_det1_loop(rng, n)
        x = pi_tls(n, rng.randint(0, n - 1))
        y = gauge(g, x)
        assert y.sharp() == y
        assert y.trace() == LP_ZERO


def test_gauge_cocycle():
    rng = random.Random(37)
    for _ in range(10):
        n = rng.choice([2, 3])
        g = rand_det1_loop(rng, n)
        h = rand_det1_loop(rng, n)
        x = pi_tls(n, rng.randint(0, n - 1))
        assert gauge(g @ h, x) == gauge(g, gauge(h, x))


def test_gauge_rejects_non_unitary():
    with pytest.raises(DomainError):
        gauge(LMat([[LP_ONE, LP_ONE], [LP_ZERO, LP_ONE]]), LMat.zeros(2, 2))


def test_gauge_rejects_winding_determinant():
    """diag(z, 1) is pointwise unitary but its derivative term carries
    trace 1, which would leave the traceless space."""
    with pytest.raises(DomainError):
        gauge(unitary_loop(pi_projector(2, 1)), LMat.zeros(2, 2))


# ---------------------------------------------------------------------------
# affine veronese
# ---------------------------------------------------------------------------


def test_affine_vertex_identity_loop():
    assert affine_veronese_vertex(LMat.identity(3), 0) == LMat.zeros(3, 3)
    for n in (2, 3, 4):
        for k in range(n):
            assert affine_veronese_vertex(LMat.identity(n), k) == pi_tls(n, k)


def test_affine_vertex_rank_error():
    with pytest.raises(DomainError):
        affine_veronese_vertex(LMat.identity(2), 2)


def eigen_check(g, k, n):
    """(z d/dz - Phi)(g z^m e_j) = (m - [j <= k] + k/n)(g z^m e_j)."""
    phi = affine_veronese_vertex(g, k)
    for m in range(-3, 4):
        for j in range(1, n + 1):
            vec = LMat(
                [[LaurentPoly({m: QI_ONE}) if i == j - 1 else LP_ZERO]
                 for i in range(n)]
            )
            v = g @ vec
            lam = GaussRat(Fraction(m) - (1 if j <= k else 0) + Fraction(k, n))
            lhs = v.z_ddz() - phi @ v
            rhs = v.scale(LaurentPoly({0: lam}))
            assert lhs == rhs, (m, j)


def test_affine_vertex_eigen_identity_n2():
    h = sl_loop_pair(pi_projector(2, 1), projector_of([[1, 0]]))
    eigen_check(h, 1, 2)


def test_affine_vertex_eigen_identity_samples():
    rng = random.Random(41)
    for _ in range(6):
        n = rng.choice([2, 3])
        g = rand_det1_loop(rng, n)
        eigen_check(g, rng.randint(0, n - 1), n)


def test_affine_vertex_injective_on_lattice_classes():
    """Distinct vertex lattice classes get distinct operators on a
    sample of loops and types."""
    n = 2
    rng = random.Random(43)
    loops = [LMat.identity(n)]
    for _ in range(4):
        loops.append(rand_det1_loop(rng, n))
    loops.append(sl_loop_pair(pi_projector(2, 1), projector_of([[1, 0]])))
    seen = []
    for g in loops:
        for k in range(n):
            vertex_mat = g @ LMat.diag(
                [LaurentPoly({1: QI_ONE})] * k + [LP_ONE] * (n - k)
            )
            cls = LatticeClass("+", vertex_mat)
            op = affine_veronese_vertex(g, k)
            for cls2, op2 in seen:
                if cls2 != cls:
                    assert op2 != op
            seen.append((cls, op))


def test_barycentric_single_weight():
    rng = random.Random(47)
    g = rand_det1_loop(rng, 3)
    assert barycentric_affine_veronese(g, {1: 1}) == affine_veronese_vertex(g, 1)


def test_barycentric_standard_chamber():
    n = 3
    x = barycentric_affine_veronese(
        LMat.identity(n), {k: Fraction(1, n) for k in range(n)}
    )
    acc = LMat.zeros(n, n)
    for k in range(n):
        acc = acc + pi_tls(n, k).scale(
            LaurentPoly({0: GaussRat(Fraction(1, n))})
        )
    assert x == acc
    assert x.trace() == LP_ZERO


def test_barycentric_gauge_equivariance():
    rng = random.Random(53)
    for _ in range(6):
        n = rng.choice([2, 3])
        g = rand_det1_loop(rng, n)
        h = rand_det1_loop(rng, n)
        w = {k: Fraction(v) for k, v in zip(range(n), rand_weights(rng, n))}
        assert barycentric_affine_veronese(g @ h, w) == gauge(
            g, barycentric_affine_veronese(h, w)
        )


def test_barycentric_weight_errors():
    g = LMat.identity(2)
    with pytest.raises(DomainError, match="sum to 1"):
        barycentric_affine_veronese(g, {0: Fraction(1, 2)})
    with pytest.raises(DomainError, match="vertex type out of range"):
        barycentric_affine_veronese(g, {5: 1})
    with pytest.raises(DomainError, match="positive rationals"):
        barycentric_affine_veronese(g, {0: 2, 1: -1})
    with pytest.raises(DomainError, match="positive rationals"):
        barycentric_affine_veronese(g, {0: GaussRat(1, 1), 1: GaussRat(0, -1)})


@pytest.mark.parametrize("n", [2, 3, 4])
def test_pi_tls_is_the_recentred_coordinate_projector(n):
    for k in range(n + 1):
        want = [GaussRat(1 - Fraction(k, n))] * k + [GaussRat(-Fraction(k, n))] * (n - k)
        assert pi_tls(n, k) == LMat.diag(want)
    with pytest.raises(DomainError):
        pi_tls(n, n + 1)


def test_pi_projector_reads_integers():
    """n and k are integers: a float or a Fraction is a TypeError naming
    the parameter, never the list arithmetic's message."""
    assert pi_projector(2, True) == pi_projector(2, 1)
    for bad in (1.0, Fraction(1), "1"):
        with pytest.raises(TypeError, match=r"^projector rank k must be an integer, got "):
            pi_projector(2, bad)
    with pytest.raises(TypeError, match=r"^matrix size n must be an integer, got 2\.0$"):
        pi_projector(2.0, 1)


# ---------------------------------------------------------------------------
# the eigenvalue caveat
# ---------------------------------------------------------------------------


def default_caveat_x(n):
    """caveat_check's default X = diag(a,..,a,(1-n)a), a = z + 1/z."""
    a = LaurentPoly({1: QI_ONE, -1: QI_ONE})
    return LMat.diag([a] * (n - 1) + [a * (1 - n)])


def _support_window(x):
    lo = hi = 0
    for i in range(x.nrows):
        for j in range(x.ncols):
            for e in x[i, j].coeffs:
                lo = min(lo, e)
                hi = max(hi, e)
    return lo, hi


def dense_caveat_rows(n, bound, x, lam):
    """The system of z d/dz - X - lam as dense GaussRat rows: one column
    per unknown v_i[z^m], m in [2 - bound, bound - 2], in the order
    (m, i); one row per equation (k, r) of the whole image window, in the
    same order, all-zero rows included."""
    lo, hi = -bound + 2, bound - 2
    elo, ehi = _support_window(x)
    out_lo, out_hi = lo + min(elo, 0), hi + max(ehi, 0)
    unknowns = [(m, i) for m in range(lo, hi + 1) for i in range(n)]
    rows = [[QI_ZERO] * len(unknowns) for _ in range((out_hi - out_lo + 1) * n)]

    def row_of(m, i):
        return (m - out_lo) * n + i

    for c, (m, i) in enumerate(unknowns):
        rows[row_of(m, i)][c] = rows[row_of(m, i)][c] + GaussRat(m) - lam
        for r in range(n):
            for e, coeff in x[r, i].coeffs.items():
                rows[row_of(m + e, r)][c] = rows[row_of(m + e, r)][c] - coeff
    return rows


def dense_caveat(n, bound, x=None):
    """The oracle for caveat_check: every lambda in (1/n)Z with |lambda|
    <= bound, ascending, by the rank of the dense rows under the dense
    pivot loop, which shares no code with the sparse elimination."""
    x = default_caveat_x(n) if x is None else x
    for j in range(-n * bound, n * bound + 1):
        rows = dense_caveat_rows(n, bound, x, GaussRat(Fraction(j, n)))
        if len(dense_rref(rows)[1]) < len(rows[0]):
            return False
    return True


def test_caveat_flag_image_has_kernel():
    assert caveat_check(2, 6, pi_tls(2, 1)) is False


def test_caveat_standard_example_n2():
    assert caveat_check(2, 8) is True


def test_caveat_scaled_example_n3():
    a = LaurentPoly({1: QI_ONE, -1: QI_ONE})
    x = LMat.diag([a * 2, a * 2, a * (-4)])
    assert caveat_check(3, 8, x) is True


@pytest.mark.parametrize(
    "n, bound, image, want",
    [(2, 6, True, False), (2, 8, False, True), (3, 8, False, True),
     (2, 4, False, True), (2, 4, True, False)],
    ids=["suite-image", "suite-n2", "suite-n3", "bench-default", "bench-image"],
)
def test_caveat_matches_the_dense_oracle_on_the_suite_and_benchmark_cases(
    n, bound, image, want
):
    x = pi_tls(n, 1) if image else None
    assert caveat_check(n, bound, x) is want
    assert dense_caveat(n, bound, x) is want


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("bound", [2, 4, 5])
def test_caveat_matches_the_dense_oracle_on_coordinate_projectors(n, bound):
    for k in range(n + 1):
        x = pi_tls(n, k)
        assert caveat_check(n, bound, x) is dense_caveat(n, bound, x) is False


def test_caveat_matches_the_dense_oracle_on_gauge_images():
    rng = random.Random(16)
    for _ in range(6):
        n = rng.choice([2, 3])
        k = rng.randrange(n)
        bound = rng.choice([3, 4, 5])
        x = affine_veronese_vertex(rand_det1_loop(rng, n), k)
        assert caveat_check(n, bound, x) is dense_caveat(n, bound, x)


@st.composite
def sharp_fixed_traceless(draw, n):
    """A random sharp-fixed traceless n x n matrix: Y + Y# recentred, for
    Y with exponents in [-2, 2] and small Gaussian integer entries; or a
    constant real traceless diagonal with entries in (1/n)Z or (1/(n+1))Z,
    which has eigenvectors z^m e_i exactly in the first case."""
    if draw(st.booleans()):
        den = draw(st.sampled_from([n, n + 1]))
        d = [Fraction(draw(st.integers(-2 * den, 2 * den)), den) for _ in range(n - 1)]
        return LMat.diag([GaussRat(t) for t in d] + [GaussRat(-sum(d))])
    part = st.integers(-2, 2)
    entry = st.dictionaries(
        st.integers(-2, 2), st.builds(GaussRat, part, part), max_size=2
    ).map(LaurentPoly)
    y = LMat([[draw(entry) for _ in range(n)] for _ in range(n)])
    y = y + y.sharp()
    return y - LMat.diag([y.trace() * Fraction(1, n)] * n)


@settings(max_examples=30, derandomize=True, deadline=None)
@given(n=st.sampled_from([2, 3]), bound=st.integers(2, 6), data=st.data())
def test_caveat_matches_the_dense_oracle_on_random_matrices(n, bound, data):
    x = data.draw(sharp_fixed_traceless(n))
    assert x.sharp() == x and x.trace() == LP_ZERO
    assert caveat_check(n, bound, x) is dense_caveat(n, bound, x)


@pytest.mark.parametrize("n", [2, 3])
def test_default_x_has_full_column_rank_at_every_lambda(n):
    """The default X's top coefficient X_top is invertible.  The
    equations at the level just above the window read -X_top v_top = 0,
    so the top level of v vanishes, and level by level all of v: the
    system has full column rank for every lambda, not only those tried."""
    x = default_caveat_x(n)
    top = [[x[i, j].coeff(1) for j in range(n)] for i in range(n)]
    assert len(rref(top)[1]) == n
    bound = 5
    width = 2 * bound - 3
    for j in range(-3 * n * bound, 3 * n * bound + 1):
        rows = dense_caveat_rows(n, bound, x, GaussRat(Fraction(j, n)))
        assert [row[-n:] for row in rows[-n:]] == [[-t for t in row] for row in top]
        assert all(not any(row[:-n]) for row in rows[-n:])
        assert len(rref(rows)[1]) == width * n


def test_caveat_stops_at_the_first_lambda_with_a_kernel(monkeypatch):
    """lambda runs up from -bound in steps of 1/n and the first one with
    a kernel ends the check: for Pi_1^tls at n = 2, bound 6, the window
    [-4, 4] holds z^-4 e_1 at lambda = -4 - 1/2, the fourth tried."""
    ranks = []
    real = veronese.sparse_rank
    monkeypatch.setattr(veronese, "sparse_rank", lambda rows: ranks.append(real(rows)) or ranks[-1])
    assert caveat_check(2, 6, pi_tls(2, 1)) is False
    assert ranks == [18, 18, 18, 17]


@pytest.mark.parametrize("bound", [4.0, "4", None, Fraction(4)])
def test_a_bound_that_is_not_an_integer_is_a_type_error_before_any_system(
    monkeypatch, bound
):
    monkeypatch.setattr(veronese, "sparse_rank", None)
    with pytest.raises(TypeError, match="bound must be an integer"):
        caveat_check(2, bound)
    with pytest.raises(TypeError, match="bound must be an integer"):
        caveat_check(2, bound, LMat.identity(3))
