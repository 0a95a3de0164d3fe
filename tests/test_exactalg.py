import copy
import json
import math
import pickle
import random
import re
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from twinbuild.building import chamber_from_basis
from twinbuild.cells import PoincareSeries
from twinbuild.cli import _parse_matrix
from twinbuild.coxeter import coxeter_matrix
from twinbuild.errors import DomainError, NotInvertibleError
from twinbuild.lattice import LatticeClass
from twinbuild.exactalg import (
    GaussRat,
    LMat,
    LP_ONE,
    LP_ZERO,
    LaurentPoly,
    QI_I,
    QI_ONE,
    QI_ZERO,
    Z,
    charpoly,
    const,
    divexact,
    kernel_basis,
    mat_to_json,
    parse_poly,
    parse_scalar,
    poly_divmod,
    poly_gcd,
    poly_to_str,
    qi_roots,
    rref,
    sparse_rank,
    zpow,
)
from twinbuild import exactalg
from twinbuild.exactalg import _col_sub, _mul_sub


def rand_gauss(rng, span=4):
    return GaussRat(
        Fraction(rng.randint(-span, span), rng.randint(1, 3)),
        Fraction(rng.randint(-span, span), rng.randint(1, 3)),
    )


def rand_poly(rng, lo=-3, hi=3):
    return LaurentPoly(
        {e: rand_gauss(rng) for e in range(lo, hi + 1) if rng.random() < 0.6}
    )


def rand_lmat(rng, n=3, lo=-2, hi=2):
    return LMat([[rand_poly(rng, lo, hi) for _ in range(n)] for _ in range(n)])


# ---------------------------------------------------------------------------
# GaussRat
# ---------------------------------------------------------------------------


def test_gaussrat_field_ops():
    x = GaussRat(Fraction(1, 2), Fraction(-3, 4))
    assert x + (-x) == QI_ZERO
    assert x * x.inverse() == QI_ONE
    assert QI_I * QI_I == GaussRat(-1)
    assert (x * x.conj).is_real()
    with pytest.raises(ZeroDivisionError):
        QI_ZERO.inverse()


def test_gaussrat_coercion():
    assert GaussRat(2) + 1 == GaussRat(3)
    assert 1 - GaussRat(0, 1) == GaussRat(1, -1)
    assert Fraction(1, 2) * GaussRat(2) == QI_ONE
    assert 2 / GaussRat(0, 2) == GaussRat(0, -1)


@pytest.mark.parametrize("bad", [0.25, 1.0, "1/2", None])
def test_gaussrat_rejects_parts_that_are_not_rational(bad):
    # A float would be read through its binary expansion and a str parsed;
    # parts are ints or Fractions only (parse_scalar reads text).
    with pytest.raises(TypeError):
        GaussRat(bad)
    with pytest.raises(TypeError):
        GaussRat(1, bad)
    assert GaussRat(True) == GaussRat(1)


def test_gaussrat_pickles_and_copies():
    x = GaussRat(Fraction(1, 2), -3)
    for twin in (pickle.loads(pickle.dumps(x)), copy.copy(x), copy.deepcopy(x)):
        assert type(twin) is GaussRat and twin == x and hash(twin) == hash(x)
        assert (twin.a, twin.b, twin.d) == (1, -6, 2)


@pytest.mark.parametrize(
    "x",
    [
        pytest.param(LaurentPoly({-1: GaussRat(Fraction(1, 2), 1), 3: 5}), id="LaurentPoly"),
        pytest.param(LMat([[Z, GaussRat(0, 1)], [0, zpow(-1)]]), id="LMat"),
        pytest.param(chamber_from_basis("+", LMat([[1, Z], [0, 1]])), id="Chamber"),
        pytest.param(LatticeClass("+", LMat([[Z, 1], [0, 1]])), id="LatticeClass"),
        pytest.param(LatticeClass("-", LMat([[zpow(-1), 1], [1, 0]])), id="minus-LatticeClass"),
        pytest.param(coxeter_matrix("finite-A", 3), id="CoxeterMatrix"),
        pytest.param(coxeter_matrix("affine-A", 2), id="affine-CoxeterMatrix"),
        pytest.param(PoincareSeries([1, 0, 2], 4), id="PoincareSeries"),
    ],
)
def test_immutable_values_pickle_and_copy(x):
    for twin in (pickle.loads(pickle.dumps(x)), copy.copy(x), copy.deepcopy(x)):
        assert type(twin) is type(x) and twin == x and hash(twin) == hash(x)
        assert repr(twin) == repr(x)


def test_gaussrat_mul_real_and_complex_factors():
    # Products with a real factor on either side agree with the full
    # formula (a + bi)(c + di) = (ac - bd) + (ad + bc)i.
    vals = [Fraction(0), Fraction(-2, 3), Fraction(5, 7)]
    for a in vals:
        for b in vals:
            for c in vals:
                for d in vals:
                    got = GaussRat(a, b) * GaussRat(c, d)
                    assert (got.re, got.im) == (a * c - b * d, a * d + b * c)
                    assert type(got.re) is Fraction and type(got.im) is Fraction


# Reference model: an element of Q(i) as a pair (re, im) of Fractions,
# with the textbook field formulas.  GaussRat stores (a + b*i)/d as three
# normalised ints, so every result is compared against this model.


def ref_add(x, y):
    return (x[0] + y[0], x[1] + y[1])


def ref_sub(x, y):
    return (x[0] - y[0], x[1] - y[1])


def ref_mul(x, y):
    return (x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0])


def ref_inverse(x):
    n = x[0] * x[0] + x[1] * x[1]
    return (x[0] / n, -x[1] / n)


def ref_pow(x, k):
    out = (Fraction(1), Fraction(0))
    for _ in range(k):
        out = ref_mul(out, x)
    return out


def assert_matches_reference(g, ref):
    assert isinstance(g, GaussRat)
    assert type(g.re) is Fraction and type(g.im) is Fraction
    assert (g.re, g.im) == ref
    assert g.d > 0 and math.gcd(g.a, g.b, g.d) == 1
    assert g == GaussRat(*ref) and hash(g) == hash(GaussRat(*ref))
    re, im = ref
    assert bool(g) == bool(re or im)
    assert g.is_real() == (not im)
    if not im:
        assert g == re and re == g and hash(g) == hash(re)
        if re.denominator == 1:
            assert g == int(re) and int(re) == g and hash(g) == hash(int(re))
    else:
        assert g != re and g != int(re)


gauss_parts = st.tuples(
    st.builds(Fraction, st.integers(-6, 6), st.sampled_from([1, 2, 3, 4, 6])),
    st.builds(Fraction, st.integers(-6, 6), st.sampled_from([1, 2, 3, 4, 6])),
)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(x=gauss_parts, y=gauss_parts, k=st.integers(0, 5))
@example(x=(Fraction(1, 2), Fraction(1, 2)), y=(Fraction(2), Fraction(0)), k=2)
@example(x=(Fraction(1, 2), Fraction(1, 2)), y=(Fraction(1, 2), Fraction(-1, 2)), k=4)
@example(x=(Fraction(0), Fraction(0)), y=(Fraction(0), Fraction(0)), k=0)
@example(x=(Fraction(3, 4), Fraction(0)), y=(Fraction(0), Fraction(1, 4)), k=3)
def test_gaussrat_matches_fraction_pair_reference(x, y, k):
    """Every operation agrees with the Fraction-pair model and returns the
    normal form; the examples include cancelling denominators such as
    (1+i)/2 * 2 and (1+i)/2 * (1-i)/2, and zero."""
    gx, gy = GaussRat(*x), GaussRat(*y)
    assert_matches_reference(gx, x)
    assert_matches_reference(gy, y)
    assert_matches_reference(gx + gy, ref_add(x, y))
    assert_matches_reference(gx - gy, ref_sub(x, y))
    assert_matches_reference(gx * gy, ref_mul(x, y))
    assert_matches_reference(-gx, (-x[0], -x[1]))
    assert_matches_reference(gx.conj, (x[0], -x[1]))
    assert_matches_reference(gx**k, ref_pow(x, k))
    if any(y):
        assert_matches_reference(gy.inverse(), ref_inverse(y))
        assert_matches_reference(gx / gy, ref_mul(x, ref_inverse(y)))
    else:
        with pytest.raises(ZeroDivisionError):
            gy.inverse()
        with pytest.raises(ZeroDivisionError):
            gx / gy
    # Mixed with a plain int or Fraction on either side.
    zero = Fraction(0)
    for r in (y[0], y[0].numerator):
        rr = (Fraction(r), zero)
        assert_matches_reference(gx + r, ref_add(x, rr))
        assert_matches_reference(r + gx, ref_add(rr, x))
        assert_matches_reference(gx - r, ref_sub(x, rr))
        assert_matches_reference(r - gx, ref_sub(rr, x))
        assert_matches_reference(gx * r, ref_mul(x, rr))
        assert_matches_reference(r * gx, ref_mul(rr, x))
        if r:
            assert_matches_reference(gx / r, ref_mul(x, ref_inverse(rr)))
        if any(x):
            assert_matches_reference(r / gx, ref_mul(rr, ref_inverse(x)))


# ---------------------------------------------------------------------------
# Valuations
# ---------------------------------------------------------------------------


def test_valuation_at_zero_least_exponent():
    f = zpow(2) + zpow(3)
    assert f.val0() == 2


def test_valuation_of_zero_is_infinite():
    assert LP_ZERO.val0() == math.inf
    assert LP_ZERO.val_inf() == math.inf


def test_valuation_at_infinity_via_substitution():
    f = zpow(2) + zpow(-1)
    assert f.val_inf() == -2
    assert f.subs_zinv().val0() == -2


def test_valuation_multiplicative_and_ultrametric():
    rng = random.Random(10)
    for _ in range(50):
        f, g = rand_poly(rng), rand_poly(rng)
        if f and g:
            assert (f * g).val0() == f.val0() + g.val0()
            assert (f * g).val_inf() == f.val_inf() + g.val_inf()
        s = f + g
        assert s.val0() >= min(f.val0(), g.val0())


# ---------------------------------------------------------------------------
# Euler operator
# ---------------------------------------------------------------------------


def test_z_ddz_basics():
    assert const(5).z_ddz() == LP_ZERO
    assert (Z * Z * Z).z_ddz() == zpow(3, GaussRat(3))
    a = Z + zpow(-1)
    assert a.z_ddz() == Z - zpow(-1)


def test_z_ddz_leibniz():
    rng = random.Random(11)
    for _ in range(40):
        f, g = rand_poly(rng), rand_poly(rng)
        assert (f * g).z_ddz() == f.z_ddz() * g + f * g.z_ddz()


# ---------------------------------------------------------------------------
# star / sharp / iota
# ---------------------------------------------------------------------------


def test_star_constant_hermitian_fixed():
    x = LMat([[const(1), const(QI_I)], [const(GaussRat(0, -1)), const(2)]])
    assert x.star() == x
    with pytest.raises(DomainError):
        LMat.diag([Z, LP_ONE]).star()


def test_sharp_diag_example():
    g = LMat.diag([Z, zpow(-1)])
    assert g.sharp() == LMat.diag([zpow(-1), Z])
    assert g @ g.sharp() == LMat.identity(2)


def test_sharp_antihomomorphism_and_involution():
    rng = random.Random(12)
    for _ in range(25):
        a, b = rand_lmat(rng), rand_lmat(rng)
        assert a.sharp().sharp() == a
        assert (a @ b).sharp() == b.sharp() @ a.sharp()
        assert a.iota().iota() == a
        assert a.sharp().iota() == a.iota().sharp()


def test_polynomial_with_polynomial_sharp_inverse_is_constant():
    # if f and sharp(f) are both z-polynomials and f*sharp(f) = 1, then f is
    # constant: exhaustively refute small nonconstant candidates
    rng = random.Random(13)
    for _ in range(200):
        deg = rng.randint(1, 3)
        f = LaurentPoly({e: rand_gauss(rng, 2) for e in range(deg + 1)})
        if not f or max(f.coeffs) == 0:
            continue
        fs = f.sharp()
        assert fs.val0() < 0 or not (f * fs == LP_ONE)


def test_iota_examples():
    m = LMat([[Z + const(2), LP_ZERO], [LP_ZERO, LP_ONE]])
    assert m.iota() == m  # real coefficients fixed
    e = LMat([[zpow(1, QI_I), LP_ZERO], [LP_ZERO, LP_ZERO]])
    assert e.iota() == LMat([[zpow(1, GaussRat(0, -1)), LP_ZERO], [LP_ZERO, LP_ZERO]])


def test_iota_fixed_points_are_real_coefficient_matrices():
    rng = random.Random(14)
    for _ in range(20):
        m = rand_lmat(rng, 2)
        fixed = m.iota() == m
        real = all(
            c.is_real() for row in m.rows for a in row for c in a.coeffs.values()
        )
        assert fixed == real


# ---------------------------------------------------------------------------
# det / inverse
# ---------------------------------------------------------------------------


def test_det_examples():
    assert LMat.identity(3).det() == LP_ONE
    for n in (2, 3, 4):
        for i in range(n + 1):
            g = LMat.diag([Z] * i + [LP_ONE] * (n - i))
            assert g.det() == zpow(i)
        k = 2
        scalar = LMat.diag([zpow(k)] * n)
        assert scalar.det() == zpow(k * n)
    assert LMat.identity(2).det() == LP_ONE
    assert LMat.diag([Z, LP_ONE]).det() != LP_ONE


def test_det_multiplicative():
    rng = random.Random(15)
    for _ in range(20):
        a, b = rand_lmat(rng), rand_lmat(rng)
        assert (a @ b).det() == a.det() * b.det()


def laurent_mul_oracle(f, g):
    """Independent reference for Laurent products: the per-term loop
    through the GaussRat operators, summing each product into its
    exponent and dropping the sums that cancel.  The library multiplies
    through its integer kernel ``_mul_acc`` instead."""
    d = {}
    for e1, c1 in f.coeffs.items():
        for e2, c2 in g.coeffs.items():
            e = e1 + e2
            p = c1 * c2
            s = d.get(e)
            if s is None:
                if p:
                    d[e] = p
            else:
                s = s + p
                if s:
                    d[e] = s
                else:
                    del d[e]
    return LaurentPoly(d)


def laurent_sub_oracle(f, g):
    """f - g through the coefficientwise sum and negation, not the
    multiply-subtract kernel."""
    return f + (-g)


def cofactor_det(rows):
    """Independent reference for ``LMat.det``: cofactor expansion along
    the first row, O(n!), with products from ``laurent_mul_oracle``."""
    if not rows:
        return LP_ONE
    out = LP_ZERO
    for j, a in enumerate(rows[0]):
        if a:
            term = laurent_mul_oracle(
                a, cofactor_det([row[:j] + row[j + 1:] for row in rows[1:]])
            )
            out = out + (term if j % 2 == 0 else -term)
    return out


def cofactor_adjugate(m):
    n = m.nrows
    out = []
    for i in range(n):
        out_row = []
        for j in range(n):
            minor = cofactor_det(
                [row[:i] + row[i + 1:] for r, row in enumerate(m.rows) if r != j]
            )
            out_row.append(-minor if (i + j) % 2 else minor)
        out.append(out_row)
    return out


# Gaussian rationals with denominators 1..6, so that sums of products
# meet unequal denominators.
small_gauss = st.builds(
    lambda a, b, d: GaussRat(Fraction(a, d), Fraction(b, d)),
    st.integers(-3, 3),
    st.integers(-2, 2),
    st.integers(1, 6),
)
small_polys = st.dictionaries(st.integers(-1, 1), small_gauss, min_size=1, max_size=2).map(
    LaurentPoly
)


@st.composite
def laurent_matrices(draw, n):
    """n x n Laurent matrices; one in three made singular by a row that is
    a multiple of another."""
    rows = [[draw(small_polys) for _ in range(n)] for _ in range(n)]
    if n > 1 and draw(st.integers(0, 2)) == 0:
        src, dst = draw(st.permutations(range(n)))[:2]
        f = draw(small_polys)
        rows[dst] = [f * a for a in rows[src]]
    return LMat(rows)


@st.composite
def unit_det_matrices(draw, n):
    """Products of elementary matrices c*z^d and a diagonal of units: the
    determinant is a unit c*z^k."""
    m = LMat.diag(
        [zpow(draw(st.integers(-2, 2)), draw(small_gauss.filter(bool))) for _ in range(n)]
    )
    for _ in range(draw(st.integers(0, 2 * n if n > 1 else 0))):
        i, j = draw(st.permutations(range(n)))[:2]
        rows = [list(r) for r in LMat.identity(n).rows]
        rows[i][j] = LaurentPoly({draw(st.integers(-1, 1)): draw(small_gauss)})
        m = m @ LMat(rows)
    return m


def assert_normalised(*polys):
    """Every stored coefficient is a nonzero normalised triple: GaussRat
    equality is syntactic, so an unreduced triple would compare unequal
    to an equal value."""
    for f in polys:
        for c in f.coeffs.values():
            assert (c.a or c.b) and c.d > 0 and math.gcd(c.a, c.b, c.d) == 1


def entries(m):
    return [a for row in m.rows for a in row]


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
@settings(max_examples=20, derandomize=True, deadline=None)
@given(data=st.data())
def test_det_matches_cofactor_oracle(n, data):
    m = data.draw(laurent_matrices(n))
    d = m.det()
    assert_normalised(d)
    assert d == cofactor_det(m.rows)
    if not d.is_unit_monomial():
        with pytest.raises(NotInvertibleError, match=re.escape(poly_to_str(d))):
            m.inv()


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7])
@settings(max_examples=10, derandomize=True, deadline=None)
@given(data=st.data())
def test_inv_is_the_adjugate_over_the_unit_determinant(n, data):
    m = data.draw(unit_det_matrices(n))
    inv = m.inv()
    assert_normalised(*entries(inv))
    assert m @ inv == LMat.identity(n)
    assert inv @ m == LMat.identity(n)
    if n <= 5:
        assert inv == adjugate_over_det(m)


def adjugate_over_det(m):
    """The inverse of a unit-determinant matrix by the cofactor oracle."""
    (e, c), = cofactor_det(m.rows).coeffs.items()
    dinv = LaurentPoly({-e: c.inverse()})
    return LMat(
        [[laurent_mul_oracle(a, dinv) for a in row] for row in cofactor_adjugate(m)]
    )


@pytest.mark.parametrize("n", [3, 4, 5])
@settings(max_examples=8, derandomize=True, deadline=None)
@given(data=st.data())
def test_inverse_takes_no_laurent_product(n, data):
    """Every cofactor, the middle rows' included, meets the sign and 1/det
    in one ``_mul_acc``: ``inv`` of a matrix whose determinant is a unit
    c*z^k other than 1 calls neither ``LaurentPoly.__mul__`` nor
    ``__rmul__``, and still equals the adjugate over the determinant."""
    m = data.draw(unit_det_matrices(n).filter(lambda m: m.det() != LP_ONE))
    calls = []

    def counted(method):
        def wrapper(*args):
            calls.append(method.__name__)
            return method(*args)
        return wrapper

    with pytest.MonkeyPatch.context() as mp:
        for name in ("__mul__", "__rmul__"):
            mp.setattr(LaurentPoly, name, counted(getattr(LaurentPoly, name)))
        inv = m.inv()
    assert calls == []
    assert inv == adjugate_over_det(m)


def assert_chain_is_the_oracle(chain, rows, ncols):
    """Level k of a minor chain holds the coefficient dict of the minor of
    rows[:k] on each set of k columns, by ``cofactor_det``, and no zero
    minor."""
    assert len(chain) == len(rows) + 1
    for k, table in enumerate(chain):
        want = {}
        for mask in range(1 << ncols):
            if mask.bit_count() == k:
                cols = [c for c in range(ncols) if mask >> c & 1]
                minor = cofactor_det([[row[c] for c in cols] for row in rows[:k]])
                if minor:
                    want[mask] = minor.coeffs
        assert all(type(f) is dict and f for f in table.values())
        assert table == want


sparse_polys = st.one_of(st.just(LP_ZERO), small_polys)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
@settings(max_examples=15, derandomize=True, deadline=None)
@given(data=st.data())
def test_minor_chains_match_the_cofactor_oracle(n, data):
    """The top chain of a matrix with zero entries, and the bottom chain
    that ``inv`` builds from the last row up to row 1, match the cofactor
    oracle level by level."""
    rows = LMat(
        [[data.draw(sparse_polys) for _ in range(n)] for _ in range(n)]
    ).rows
    assert_chain_is_the_oracle(exactalg._top_minors(rows), rows, n)
    m = data.draw(unit_det_matrices(n))
    chains = []
    minor_chain = exactalg._minor_chain

    def recorded(below):
        chains.append((below, minor_chain(below)))
        return chains[-1][1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(exactalg, "_minor_chain", recorded)
        m.inv()
    (below, bottom), = chains
    assert below == m.rows[:0:-1]
    assert_chain_is_the_oracle(bottom, below, n)


def test_inverse_edge_rows_take_no_product(monkeypatch):
    """At n = 2 every cofactor sits beside the empty minor: a
    determinant-one inverse reads them off the row tables with their
    sign and makes no product; another unit determinant makes one
    product by its inverse per nonzero entry."""
    calls = []
    mul_acc = exactalg._mul_acc

    def counted(*args):
        calls.append(None)
        return mul_acc(*args)

    m = LMat([[Z + const(1), Z], [const(1), const(1)]])
    u = LMat([[m[0, 0] * zpow(1, QI_I), m[0, 1]], [m[1, 0] * zpow(1, QI_I), m[1, 1]]])
    top, top_u = exactalg._top_minors(m.rows), exactalg._top_minors(u.rows)
    assert m.det() == LP_ONE and u.det() == zpow(1, QI_I)
    monkeypatch.setattr(exactalg, "_mul_acc", counted)
    inv = m._inv_from(top)
    assert calls == []
    inv_u = u._inv_from(top_u)
    assert len(calls) == 4
    monkeypatch.undo()
    assert m @ inv == LMat.identity(2)
    assert u @ inv_u == LMat.identity(2)


@st.composite
def cancelling_products(draw):
    """(A, B) of shapes r x k and k x c.  Each of up to two extra columns
    of A is minus u times one of its columns, and the matching extra row
    of B is 1/u times that row of B, so their products cancel term by
    term, across unequal denominators."""
    r, k, c = draw(st.integers(1, 4)), draw(st.integers(1, 4)), draw(st.integers(1, 4))
    a = [[draw(small_polys) for _ in range(k)] for _ in range(r)]
    b = [[draw(small_polys) for _ in range(c)] for _ in range(k)]
    for _ in range(draw(st.integers(0, 2))):
        p = draw(st.integers(0, k - 1))
        u = draw(small_gauss.filter(bool))
        a = [row + [-(row[p] * const(u))] for row in a]
        b.append([x * const(u.inverse()) for x in b[p]])
    return LMat(a), LMat(b)


@settings(max_examples=150, derandomize=True, deadline=None)
@given(ab=cancelling_products())
def test_matmul_matches_entrywise_sum_of_products(ab):
    a, b = ab
    got = a @ b
    assert (got.nrows, got.ncols) == (a.nrows, b.ncols)
    assert_normalised(*entries(got))
    want = [
        [
            sum((laurent_mul_oracle(x, y) for x, y in zip(row, col)), LP_ZERO)
            for col in b.cols()
        ]
        for row in a.rows
    ]
    assert got == LMat(want)


def test_inverse_of_unit_determinant_matrix():
    m = LMat([[Z, const(1)], [LP_ZERO, zpow(-1)]])
    assert m @ m.inv() == LMat.identity(2)
    assert m.inv() @ m == LMat.identity(2)
    with pytest.raises(NotInvertibleError, match=re.escape("determinant 1 + z")):
        LMat([[Z + const(1), LP_ZERO], [LP_ZERO, LP_ONE]]).inv()
    with pytest.raises(NotInvertibleError, match="determinant 0 "):
        LMat([[Z, Z], [const(2), const(2)]]).inv()


# ---------------------------------------------------------------------------
# Text grammar and JSON round trip
# ---------------------------------------------------------------------------


def test_scalar_grammar_forms():
    assert parse_scalar("3") == GaussRat(3)
    assert parse_scalar("3/4") == GaussRat(Fraction(3, 4))
    assert parse_scalar("(1+2i)") == GaussRat(1, 2)
    assert parse_scalar("(1/2-3/4i)") == GaussRat(Fraction(1, 2), Fraction(-3, 4))
    assert parse_scalar("(0+1i)") == QI_I
    assert parse_scalar("-2") == GaussRat(-2)


@pytest.mark.parametrize("text", ["1/0", "-3/0", "(1/0+i)", "(1+2/0i)", "(0/0i)"])
def test_scalar_zero_denominator_rejected(text):
    with pytest.raises(ValueError, match="zero denominator"):
        parse_scalar(text)


def test_poly_grammar_examples():
    assert parse_poly("z^-1+2*z^2") == zpow(-1) + zpow(2, GaussRat(2))
    assert parse_poly("1 - z") == const(1) - Z
    assert parse_poly(" (0+1i) * z ^ 2 ") == zpow(2, QI_I)
    assert poly_to_str(LP_ZERO) == "0"
    assert parse_poly("0") == LP_ZERO
    with pytest.raises(ValueError):
        parse_poly("z^^2")


# The pinned grammar: text -> the scalar or polynomial it reads as, or
# None for a rejected text.  Decimal points, exponents and underscores are
# not rationals, in the imaginary part either; ``*`` comes only after a
# coefficient.
_SCALAR_TABLE = {
    "(i)": QI_I,
    "(-i)": -QI_I,
    "(2i)": GaussRat(0, 2),
    "(1/2-3/4i)": GaussRat(Fraction(1, 2), Fraction(-3, 4)),
    "(3)": GaussRat(3),
    "-(1+i)": GaussRat(-1, -1),
    "(12i)": GaussRat(0, 12),
    "(1/2i)": GaussRat(0, Fraction(1, 2)),
    "(0.5i)": None,
    "(1e2i)": None,
    "(1_000i)": None,
    "(1+.5i)": None,
    "0.5": None,
    "()": None,
    "(3+)": None,
    "(1+-2i)": None,
    "--3": None,
}
_POLY_TABLE = {
    "2z": zpow(1, GaussRat(2)),
    "(1+i)z": zpow(1, GaussRat(1, 1)),
    "z^-1-z^-2": zpow(-1) - zpow(-2),
    "z-z": LP_ZERO,
    "0": LP_ZERO,
    "0*z": LP_ZERO,
    "(3)": const(3),
    "2z^-1 - z^-1": zpow(-1),
    "*z": None,
    "+*z^2": None,
    "1-*z": None,
    "2*": None,
    "2**z": None,
    "z2": None,
    "1+-2": None,
    "z^+1": None,
    "(0.5i)*z": None,
    "": None,
}


@pytest.mark.parametrize(
    "parse, text, want",
    [(parse_scalar, t, w) for t, w in _SCALAR_TABLE.items()]
    + [(parse_poly, t, w) for t, w in _POLY_TABLE.items()],
)
def test_grammar_accepts_and_rejects_the_pinned_table(parse, text, want):
    if want is None:
        with pytest.raises(ValueError):
            parse(text)
    else:
        assert parse(text) == want


_GRAMMAR_PIECES = ["1", "2", "3/4", "0", "i", "z", "z^", "-1", "^2", "(", ")",
                   "+", "-", "*", "*z", ".5", "_0", "e2", "5i)", " ", "(1", "i)"]


@settings(max_examples=400, derandomize=True)
@given(st.one_of(
    st.text(alphabet="0123456789/+-()iz^*._e ", max_size=9),
    st.lists(st.sampled_from(_GRAMMAR_PIECES), max_size=6).map("".join),
))
def test_no_accepted_text_has_a_decimal_or_a_bare_star(text):
    """Whatever the scalar or the polynomial grammar accepts has no ``.``,
    ``_`` or ``e``, and none of its terms opens with ``*``."""
    squeezed = "".join(text.split())
    for parse in (parse_scalar, parse_poly):
        try:
            parse(text)
        except ValueError:
            continue
        assert not re.search(r"[._e]", squeezed)
        assert not re.search(r"(^|[+-])\*", squeezed)


def test_grammar_round_trip_random():
    rng = random.Random(16)
    for _ in range(200):
        f = rand_poly(rng, -4, 4)
        s = poly_to_str(f)
        assert parse_poly(s) == f
        assert poly_to_str(parse_poly(s)) == s


@settings(max_examples=60, derandomize=True)
@given(
    st.dictionaries(
        st.integers(-5, 5),
        st.tuples(
            st.fractions(max_denominator=9), st.fractions(max_denominator=9)
        ).map(lambda p: GaussRat(*p)),
        max_size=6,
    )
)
def test_grammar_round_trip_hypothesis(d):
    f = LaurentPoly(d)
    assert parse_poly(poly_to_str(f)) == f


def test_matrix_json_round_trip():
    """mat_to_json's output reads back through the CLI's matrix parser."""
    rng = random.Random(17)
    for _ in range(20):
        m = rand_lmat(rng)
        j = mat_to_json(m)
        assert _parse_matrix(json.dumps(j)) == m
        assert mat_to_json(_parse_matrix(json.dumps(j))) == j


# ---------------------------------------------------------------------------
# Division helpers
# ---------------------------------------------------------------------------


def test_poly_divmod_and_gcd():
    f = (Z + const(1)) * (Z - const(2)) * (Z + const(3))
    g = (Z + const(1)) * (Z + const(3))
    q, r = poly_divmod(f, g)
    assert r == LP_ZERO and q == Z - const(2)
    assert poly_gcd(f, g) == g
    h = poly_gcd(Z * Z + const(1), Z + const(1))
    assert h == LP_ONE


def test_divexact_laurent():
    f = zpow(-2) * (Z + const(1))
    g = zpow(-1)
    assert divexact(f, g) == zpow(-1) * (Z + const(1))
    # z is a unit in the Laurent ring, so division by it always succeeds
    assert divexact(Z + const(1), Z) == zpow(-1) + const(1)
    assert divexact(LP_ONE, Z + const(1)) is None


# Coefficients with denominators 1..6, so that the kernel's sums meet
# unequal denominators; polynomials with a few terms in a small window.
gauss_scalars = gauss_parts.map(lambda x: GaussRat(*x))
laurent_polys = st.dictionaries(st.integers(-2, 3), gauss_scalars, max_size=4).map(LaurentPoly)
plain_polys = st.dictionaries(st.integers(0, 4), gauss_scalars, max_size=5).map(LaurentPoly)


@settings(max_examples=150, derandomize=True, deadline=None)
@given(a=laurent_polys, q=laurent_polys, b=laurent_polys, cancel=st.sampled_from([0, 1, 2]))
@example(  # (1+i)/2*z * (1-i)/3 = 1/3*z: the denominators 2 and 3 meet
    a=LaurentPoly({1: GaussRat(Fraction(1, 3)), 0: GaussRat(0, Fraction(1, 6))}),
    q=LaurentPoly({1: GaussRat(Fraction(1, 2), Fraction(1, 2))}),
    b=LaurentPoly({0: GaussRat(Fraction(1, 3), Fraction(-1, 3))}),
    cancel=0,
)
def test_mul_sub_kernel_matches_the_operators(a, q, b, cancel):
    """The kernel a - q*b equals the oracles' a - q*b, stores no zero
    coefficient and keeps every coefficient normalised.  ``cancel`` makes
    a = q*b (everything cancels) or a = q*b + a (only a remains)."""
    qb = laurent_mul_oracle(q, b)
    if cancel == 1:
        a = qb
    elif cancel == 2:
        a = qb + a
    want = laurent_sub_oracle(a, qb)
    before = dict(a.coeffs)
    got = _mul_sub(dict(a.coeffs), q.coeffs, b.coeffs)
    assert got == want.coeffs
    assert_normalised(LaurentPoly(got))
    assert a.coeffs == before
    if cancel == 1:
        assert got == {}
    assert _col_sub([a, a, LP_ZERO], q, [b, LP_ZERO, b]) == [want, a, -qb]


def _divmod_oracle(f, g):
    """Schoolbook division with remainder through the oracles: the loop
    poly_divmod ran before its remainder became one dict updated in place
    by the kernel."""
    q = LP_ZERO
    r = f
    dg = max(g.coeffs)
    lg = g.coeffs[dg]
    while r and max(r.coeffs) >= dg:
        dr = max(r.coeffs)
        t = zpow(dr - dg, r.coeffs[dr] / lg)
        q = q + t
        r = laurent_sub_oracle(r, laurent_mul_oracle(t, g))
    return q, r


def _divexact_oracle(f, g):
    if not f:
        return LP_ZERO
    q, r = _divmod_oracle(f.shift(-f.val0()), g.shift(-g.val0()))
    return None if r else q.shift(f.val0() - g.val0())


@settings(max_examples=150, derandomize=True, deadline=None)
@given(f=plain_polys, g=plain_polys, h=plain_polys, exact=st.booleans(),
       shift=st.integers(-2, 2))
@example(  # a monomial divisor with a non-unit coefficient
    f=LaurentPoly({0: GaussRat(1), 2: GaussRat(0, 3)}),
    g=LaurentPoly({1: GaussRat(Fraction(2, 3), Fraction(1, 3))}),
    h=LP_ZERO, exact=False, shift=0,
)
def test_poly_divmod_and_divexact_match_the_schoolbook_loop(f, g, h, exact, shift):
    """poly_divmod agrees with the schoolbook loop on polynomials, and
    divexact with it on Laurent polynomials; ``exact`` makes f a multiple
    g*h, so that the division is exact."""
    if not g:
        with pytest.raises(ZeroDivisionError):
            poly_divmod(f, g)
        return
    if exact:
        f = g * h
    q, r = poly_divmod(f, g)
    assert (q, r) == _divmod_oracle(f, g)
    assert_normalised(q, r)
    assert q * g + r == f
    fl, gl = f.shift(shift), g.shift(-shift)
    assert divexact(fl, gl) == _divexact_oracle(fl, gl)
    if exact:
        assert divexact(fl, gl) == h.shift(2 * shift)


# Scalars from outside: ints, Fractions and GaussRats.
outside_scalars = st.one_of(
    st.integers(-4, 4),
    st.builds(Fraction, st.integers(-4, 4), st.integers(1, 6)),
    gauss_scalars,
)


@settings(max_examples=200, derandomize=True, deadline=None)
@given(outside_scalars)
@example(0)
@example(10**30)
@example(GaussRat(0, 1))
def test_a_constant_polynomial_hashes_as_the_scalar_it_equals(s):
    """LaurentPoly({0: s}) == s (LP_ZERO == 0 for s = 0), so the two hash
    alike and a set holding both holds one element."""
    c, q = LaurentPoly({0: s}), exactalg._as_qi(s)
    assert c == s and c == q
    assert hash(c) == hash(s) == hash(q)
    assert len({s, c}) == 1 and len({c, q}) == 1


@settings(max_examples=200, derandomize=True, deadline=None)
@given(f=laurent_polys, g=laurent_polys, c=outside_scalars, cancel=st.booleans())
@example(  # (1/2 + 1/3 z)(1/3 - 2/9 z): the z terms 1/9 - 1/9 cancel
    f=LaurentPoly({0: GaussRat(Fraction(1, 2)), 1: GaussRat(Fraction(1, 3))}),
    g=LaurentPoly({0: GaussRat(Fraction(1, 3)), 1: GaussRat(Fraction(-2, 9))}),
    c=Fraction(1, 2),
    cancel=False,
)
@example(  # (1+i)/2 * (1-i)/3 = 1/3 against 1/3 with the denominators 2 and 3
    f=LaurentPoly({0: GaussRat(Fraction(1, 2), Fraction(1, 2))}),
    g=LaurentPoly({0: GaussRat(Fraction(1, 3), Fraction(-1, 3))}),
    c=GaussRat(Fraction(1, 3)),
    cancel=False,
)
def test_laurent_mul_and_sub_match_the_oracle(f, g, c, cancel):
    """f*g, f*c, c*f, f - g, f - c and c - f equal the oracles and keep
    every coefficient normalised; ``cancel`` makes g = f + h, so that
    f - g cancels f's terms across unequal denominators."""
    if cancel:
        g = f + g
    cp = LaurentPoly({0: c})
    got = [f * g, f * c, c * f, f - g, f - c, c - f]
    want = [
        laurent_mul_oracle(f, g),
        laurent_mul_oracle(f, cp),
        laurent_mul_oracle(cp, f),
        laurent_sub_oracle(f, g),
        laurent_sub_oracle(f, cp),
        laurent_sub_oracle(cp, f),
    ]
    assert got == want
    assert_normalised(*got)


def test_one_laurent_product_path(monkeypatch):
    """Every Laurent product runs through the kernel ``_mul_acc``: one
    f*g is exactly one kernel call, and one f - g one ``_mul_sub`` pass."""
    calls = {"_mul_acc": 0, "_mul_sub": 0}

    def counted(name):
        inner = getattr(exactalg, name)

        def wrapper(*args):
            calls[name] += 1
            return inner(*args)

        return wrapper

    f, g = parse_poly("1/2*z^-1 + (1+i)*z"), parse_poly("3 - 2/3*z^2")
    want_mul, want_sub = laurent_mul_oracle(f, g), laurent_sub_oracle(f, g)
    for name in calls:
        monkeypatch.setattr(exactalg, name, counted(name))
    assert f * g == want_mul
    assert calls == {"_mul_acc": 1, "_mul_sub": 0}
    calls["_mul_acc"] = 0
    assert f - g == want_sub
    assert calls["_mul_sub"] == 1


def test_laurent_poly_coerces_or_rejects_its_coefficients():
    f = LaurentPoly({0: 2, 1: Fraction(3, 2), 2: 0})
    assert f.coeffs == {0: GaussRat(2), 1: GaussRat(Fraction(3, 2))}
    assert all(type(c) is GaussRat for c in f.coeffs.values())
    assert str(f) == "2 + 3/2*z"
    assert str(LMat([[f]]) @ LMat([[f]])) == "[4 + 6*z + 9/4*z^2]"
    assert const(Fraction(1, 2)) == LaurentPoly({0: GaussRat(Fraction(1, 2))})
    for bad in (Z, "1", 0.5, None):
        with pytest.raises(TypeError):
            LaurentPoly({0: bad})
        with pytest.raises(TypeError):
            const(bad)
        if bad is not Z:
            with pytest.raises(TypeError):
                LMat([[bad]])


@pytest.mark.parametrize("bad", [0.5, "a", None, Fraction(1, 1)])
def test_laurent_poly_rejects_exponents_that_are_not_ints(bad):
    with pytest.raises(TypeError, match="bad exponent"):
        LaurentPoly({bad: 1})
    with pytest.raises(TypeError):
        zpow(bad)


def test_lmat_rejects_bad_shapes():
    with pytest.raises(ValueError, match="ragged or empty"):
        LMat.from_cols([(Z,), (LP_ONE, Z)])
    for empty in (lambda: LMat.from_cols([]), lambda: LMat.from_cols([()]),
                  lambda: LMat([]), lambda: LMat([[]]), lambda: LMat.identity(0),
                  lambda: LMat.zeros(0), lambda: LMat.zeros(2, 0), lambda: LMat.diag([])):
        with pytest.raises(ValueError, match="ragged or empty"):
            empty()
    a, b = LMat([[1, 2], [3, 4]]), LMat([[1]])
    for op in (lambda x, y: x + y, lambda x, y: x - y):
        with pytest.raises(ValueError, match="shape mismatch"):
            op(a, b)
        with pytest.raises(ValueError, match="shape mismatch"):
            op(a, LMat([[1, 2]]))
    assert LMat.from_cols([(Z, 1), (LP_ZERO, Z)]) == LMat([[Z, 0], [1, Z]])
    assert LMat.zeros(2, 3) == LMat([[0, 0, 0], [0, 0, 0]])
    assert LMat.identity(2) == LMat.diag([1, LP_ONE])


# ---------------------------------------------------------------------------
# Constant linear algebra
# ---------------------------------------------------------------------------


def test_rref_kernel_solve():
    rows = [
        [GaussRat(1), GaussRat(2), GaussRat(3)],
        [GaussRat(2), GaussRat(4), GaussRat(6)],
    ]
    red, pivots = rref(rows)
    assert pivots == [0]
    ker = kernel_basis(rows)
    assert len(ker) == 2
    for v in ker:
        for row in rows:
            assert sum((a * x for a, x in zip(row, v)), QI_ZERO) == QI_ZERO


@st.composite
def sparse_systems(draw):
    """(sparse rows, number of columns): a random system over Q(i) with
    small or non-real entries, some explicit zeros, empty rows and rows
    repeated or scaled from earlier ones."""
    ncols = draw(st.integers(1, 7))
    entry = gauss_parts.map(lambda parts: GaussRat(*parts))
    rows = []
    for _ in range(draw(st.integers(0, 8))):
        kind = draw(st.sampled_from(["random", "random", "empty", "repeat"]))
        if kind == "repeat" and rows:
            base = draw(st.sampled_from(rows))
            factor = draw(entry)
            rows.append({c: x * factor for c, x in base.items()})
        elif kind == "empty":
            rows.append({})
        else:
            cols = draw(st.sets(st.integers(0, ncols - 1), max_size=ncols))
            rows.append({c: draw(entry) for c in cols})
    return rows, ncols


@settings(max_examples=300, derandomize=True, deadline=None)
@given(system=sparse_systems())
def test_sparse_rank_is_the_number_of_rref_pivots(system):
    """``sparse_rank`` agrees with the dense elimination on the same rows,
    and leaves its argument as it was."""
    rows, ncols = system
    kept = [dict(row) for row in rows]
    dense = [[row.get(c, QI_ZERO) for c in range(ncols)] for row in rows]
    assert sparse_rank(rows) == len(rref(dense)[1])
    assert rows == kept


def test_sparse_rank_examples():
    two = GaussRat(2)
    assert sparse_rank([]) == 0
    assert sparse_rank([{}, {0: QI_ZERO}]) == 0
    assert sparse_rank([{0: QI_ONE, 3: two}, {0: two, 3: GaussRat(4)}]) == 1
    assert sparse_rank([{0: QI_ONE, 1: QI_I}, {0: QI_I, 1: -QI_ONE}, {1: QI_ONE}]) == 2


def charpoly_oracle(rows):
    """det(t*1 - A) by the Faddeev-LeVerrier trace recursion on GaussRat
    rows, as a LaurentPoly in t: M_1 = 1 and, for k = 1..n,
    c_(n-k) = -tr(A M_k)/k and M_(k+1) = A M_k + c_(n-k) 1.  Independent
    of the minor table behind ``charpoly``."""
    n = len(rows)
    coeffs = [QI_ZERO] * (n + 1)
    coeffs[n] = QI_ONE
    m = [[QI_ONE if i == j else QI_ZERO for j in range(n)] for i in range(n)]
    for k in range(1, n + 1):
        m = [
            [sum((rows[i][l] * m[l][j] for l in range(n)), QI_ZERO) for j in range(n)]
            for i in range(n)
        ]
        c = -(sum((m[i][i] for i in range(n)), QI_ZERO) / k)
        coeffs[n - k] = c
        for i in range(n):
            m[i][i] = m[i][i] + c
    return LaurentPoly(dict(enumerate(coeffs)))


def test_lmat_inv_of_a_constant_matrix_and_charpoly():
    a = [[GaussRat(1), GaussRat(1)], [GaussRat(0), GaussRat(2)]]
    half = GaussRat(Fraction(1, 2))
    assert LMat(a).inv() == LMat([[QI_ONE, -half], [QI_ZERO, half]])
    assert LMat(a) @ LMat(a).inv() == LMat.identity(2)
    p = charpoly(a)  # (t-1)(t-2) = t^2 - 3t + 2
    assert p == LaurentPoly({0: GaussRat(2), 1: GaussRat(-3), 2: GaussRat(1)})
    for singular in ([[QI_ZERO]], [[1, 2], [QI_I, 2 * QI_I]]):
        with pytest.raises(NotInvertibleError):
            LMat(singular).inv()
    # An empty matrix has no LMat, so it has no characteristic polynomial.
    with pytest.raises(ValueError, match="ragged or empty"):
        charpoly([])


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
@settings(max_examples=15, derandomize=True, deadline=None)
@given(data=st.data())
def test_charpoly_matches_det_of_t_minus_a(n, data):
    # charpoly is det(t*1 - A) from the minor table, t written as z; the
    # oracle is the trace recursion.
    entry = gauss_parts.map(lambda p: GaussRat(*p))
    a = [[data.draw(entry) for _ in range(n)] for _ in range(n)]
    assert charpoly(a) == charpoly_oracle(a)


# ---------------------------------------------------------------------------
# Rational roots of polynomials in t (LaurentPoly, exponents >= 0)
# ---------------------------------------------------------------------------


_NON_RATIONAL_FACTORS = {
    "t^2-2": Z * Z - 2,
    "t^2+1": Z * Z + 1,
    "t-i": Z - QI_I,
}


@settings(max_examples=60, derandomize=True, deadline=None)
@given(
    st.dictionaries(
        st.fractions(min_value=-4, max_value=4, max_denominator=6),
        st.integers(1, 3),
        max_size=4,
    ),
    st.sampled_from(sorted(_NON_RATIONAL_FACTORS)),
    st.tuples(st.integers(-3, 3), st.integers(-3, 3)).filter(any),
)
# sqrt(2) rounds to the planted root 1 at denominator 1.
@example(planted={Fraction(1): 1}, extra="t^2-2", scale=(0, 1))
def test_qi_roots_returns_exactly_the_planted_rational_roots(planted, extra, scale):
    f = const(GaussRat(*scale)) * _NON_RATIONAL_FACTORS[extra]
    for r, mult in planted.items():
        for _ in range(mult):
            f = f * (Z - r)
    expected = sorted(r for r, mult in planted.items() for _ in range(mult))
    assert qi_roots(f) == [GaussRat(r) for r in expected]
