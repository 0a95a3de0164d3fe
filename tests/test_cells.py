"""Tests for Schubert/loop cell counting and the skeleton comparison."""

import itertools
import random
import re
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twinbuild import cells, coxeter
from twinbuild.cells import (
    PoincareSeries,
    bott_equivalence_check,
    cell_dim,
    loop_poincare,
    schubert_poincare,
)
from twinbuild.coxeter import (
    bruhat_leq,
    coset_min_split,
    coxeter_matrix,
    longest_element,
    min_coset_reps,
    reduce_word,
    window_to_word,
    word_to_window,
)
from twinbuild.errors import DomainError


def min_rep(M, J, w):
    win, _ = coset_min_split(word_to_window(w, M), frozenset(J))
    return window_to_word(win, M)


def grassmannian_series(n, k):
    """Full Schubert series of Gr_k(C^n) in finite type A."""
    M = coxeter_matrix("finite-A", n)
    J = set(M.generators) - {k}
    return schubert_poincare(M, J, min_rep(M, J, longest_element(M)))


# ---------------------------------------------------------------------------
# PoincareSeries container
# ---------------------------------------------------------------------------


def test_series_pads_to_truncation():
    s = PoincareSeries([1, 0, 1], 5)
    assert s.coeffs == (1, 0, 1, 0, 0, 0)
    assert s.truncation == 5


def test_series_validation():
    with pytest.raises(DomainError):
        PoincareSeries([1, -1], 3)
    with pytest.raises(DomainError):
        PoincareSeries([1, 1, 1], 1)
    with pytest.raises(DomainError):
        PoincareSeries([1], -1)


def test_series_from_dims_drops_beyond_window():
    s = PoincareSeries.from_dims([0, 2, 2, 9], 4)
    assert s.coeffs == (1, 0, 2, 0, 0)


not_integers = st.one_of(
    st.floats(-8, 8),
    st.integers(-8, 8).map(str),
    st.builds(Fraction, st.integers(-16, 16), st.integers(1, 4)),
)


@settings(max_examples=100, derandomize=True, deadline=None)
@given(bad=not_integers)
def test_an_integer_argument_that_is_not_an_integer_is_a_type_error(bad):
    """Every integer argument is read with ``operator.index``.  A float or
    numeric string coefficient or truncation was truncated by ``int``
    (``PoincareSeries([1.9, "2"], 2.7)`` was ``PoincareSeries([1, 2, 0],
    2)``), a float panel_dim gave a float dimension, and a float degree
    elsewhere ended in a TypeError about sequences."""
    M = coxeter_matrix("finite-A", 3)
    calls = [
        lambda: PoincareSeries([1, bad], 4),
        lambda: PoincareSeries([1], bad),
        lambda: PoincareSeries.from_dims([0, bad], 4),
        lambda: PoincareSeries.from_dims([0, 2], bad),
        lambda: PoincareSeries([1], 4).agrees_through(PoincareSeries([1], 4), bad),
        lambda: cell_dim(M, set(), (1, 2), bad),
        lambda: schubert_poincare(M, {2}, (2, 1), bad),
        lambda: loop_poincare(2, bad),
        lambda: bott_equivalence_check(bad, 3),
        lambda: bott_equivalence_check(2, bad),
    ]
    for call in calls:
        with pytest.raises(TypeError, match="must be an integer, got " + re.escape(repr(bad))):
            call()


def test_series_strings():
    assert str(PoincareSeries([], 2)) == "0"
    assert str(PoincareSeries([1], 0)) == "1"
    assert str(PoincareSeries([0, 3], 1)) == "3*t"
    assert str(PoincareSeries([1, 0, 2, 0, 1], 4)) == "1 + 2*t^2 + t^4"


def test_series_equality_and_agreement():
    a = PoincareSeries([1, 0, 1], 4)
    b = PoincareSeries([1, 0, 1, 0, 0], 4)
    assert a == b and hash(a) == hash(b)
    c = PoincareSeries([1, 0, 1, 0, 2], 4)
    assert a != c
    assert a.agrees_through(c, 3)
    assert not a.agrees_through(c, 4)
    with pytest.raises(DomainError):
        a.agrees_through(c, 5)


# ---------------------------------------------------------------------------
# cell dimensions
# ---------------------------------------------------------------------------


def test_cell_dim_identity():
    M = coxeter_matrix("finite-A", 4)
    assert cell_dim(M, {1, 3}, ()) == 0


def test_cell_dim_canonicalizes_nonminimal_words():
    M = coxeter_matrix("finite-A", 4)
    assert cell_dim(M, {1, 3}, (1,)) == 0
    assert cell_dim(M, {1, 3}, (2, 1)) == 2
    assert cell_dim(M, {1, 3}, (2, 1, 3)) == 2


def test_grassmannian_cell_list():
    assert grassmannian_series(4, 2).cell_dims() == [0, 2, 4, 4, 6, 8]


def test_loop_truncated_cell_list():
    assert loop_poincare(4, 6).cell_dims() == [0, 2, 4, 4, 6, 6, 6]


def test_cell_dim_weighted_panels():
    """panel_dim is one integer weight for every generator: the cell of
    s1 s2 s1 in affine A_1 has dimension 3 * panel_dim."""
    M = coxeter_matrix("affine-A", 2)
    assert [cell_dim(M, set(), (1, 2, 1), d) for d in (1, 2, 4)] == [3, 6, 12]


# ---------------------------------------------------------------------------
# schubert series
# ---------------------------------------------------------------------------


def test_schubert_identity_is_one():
    M = coxeter_matrix("finite-A", 4)
    assert str(schubert_poincare(M, {2, 3}, ())) == "1"


def test_schubert_full_grassmannian():
    assert str(grassmannian_series(4, 2)) == "1 + t^2 + 2*t^4 + t^6 + t^8"


def test_schubert_full_flag_c3():
    M = coxeter_matrix("finite-A", 3)
    s = schubert_poincare(M, set(), longest_element(M))
    assert str(s) == "1 + 2*t^2 + 2*t^4 + t^6"


def test_schubert_rejects_nonminimal_representative():
    M = coxeter_matrix("finite-A", 3)
    with pytest.raises(DomainError):
        schubert_poincare(M, {1}, (1,))


def test_schubert_truncation_clips():
    s = grassmannian_series(4, 2)
    M = coxeter_matrix("finite-A", 4)
    J = {1, 3}
    t = schubert_poincare(M, J, min_rep(M, J, longest_element(M)), truncation=5)
    assert t.coeffs == s.coeffs[:6]


def test_schubert_interval_monotone():
    """A smaller cell's variety is a subcomplex: coefficientwise <=."""
    M = coxeter_matrix("finite-A", 4)
    J = {1, 3}
    top = min_rep(M, J, longest_element(M))
    full = schubert_poincare(M, J, top)
    for v in min_coset_reps(M, J, len(top)):
        sub = schubert_poincare(M, J, v, truncation=full.truncation)
        assert all(a <= b for a, b in zip(sub.coeffs, full.coeffs))


def test_schubert_matches_direct_coset_counts():
    """Series coefficients = direct length counts of the coset
    representatives, computed without the Bruhat filter."""
    for n, k in [(3, 1), (4, 2), (5, 2)]:
        M = coxeter_matrix("finite-A", n)
        J = set(M.generators) - {k}
        top = min_rep(M, J, longest_element(M))
        series = schubert_poincare(M, J, top)
        counts = Counter(2 * len(v) for v in min_coset_reps(M, J, len(top)))
        assert list(series.coeffs) == [
            counts.get(d, 0) for d in range(series.truncation + 1)
        ]


def schubert_oracle(M, J, w, truncation):
    """The enumerate-then-filter series: every J-minimal representative
    up to length(w), kept when it lies below w in the Bruhat order."""
    dims = [
        2 * len(v)
        for v in min_coset_reps(M, J, len(w))
        if 2 * len(v) <= truncation and bruhat_leq(v, w, M)
    ]
    return PoincareSeries.from_dims(dims, truncation)


@st.composite
def schubert_cases(draw):
    """A system (finite or affine A, n = 2..5), a generator set J, a
    J-minimal w spelled with a cancelling pair s s inserted, and a
    truncation below the full degree (or none)."""
    kind = draw(st.sampled_from(["finite-A", "affine-A"]))
    n = draw(st.integers(2, 5))
    M = coxeter_matrix(kind, n)
    J = draw(st.frozensets(st.sampled_from(M.generators)))
    longest = 12 if kind == "finite-A" else 6
    raw = draw(st.lists(st.sampled_from(M.generators), max_size=longest))
    u, _ = coset_min_split(word_to_window(raw, M), J)
    w = window_to_word(u, M)
    cut = draw(st.integers(0, len(w)))
    s = draw(st.sampled_from(M.generators))
    spelling = w[:cut] + (s, s) + w[cut:]
    truncation = draw(st.one_of(st.none(), st.integers(0, max(2 * len(w) - 1, 0))))
    return M, J, w, spelling, truncation


@settings(max_examples=150, deadline=None)
@given(schubert_cases())
def test_schubert_matches_enumerate_then_filter(case):
    M, J, w, spelling, truncation = case
    full = 2 * len(w) if truncation is None else truncation
    want = schubert_oracle(M, J, w, full)
    assert schubert_poincare(M, J, spelling, truncation) == want


def test_schubert_never_enumerates_or_filters(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the Schubert count enumerated or filtered cosets")

    for name in ("bruhat_leq", "min_coset_reps"):
        monkeypatch.setattr(coxeter, name, refuse)
        monkeypatch.setattr(cells, name, refuse, raising=False)
    M = coxeter_matrix("finite-A", 5)
    assert schubert_poincare(M, set(), longest_element(M)).coeffs[:5] == (1, 0, 4, 0, 9)
    assert str(grassmannian_series(4, 2)) == "1 + t^2 + 2*t^4 + t^6 + t^8"
    affine = schubert_poincare(coxeter_matrix("affine-A", 3), {1}, (1, 2, 3, 2), 6)
    assert affine.coeffs == (1, 0, 2, 0, 4, 0, 3)


def product_formula(n):
    """prod_{i=1}^{n-1} (1 + t^2 + ... + t^{2i}) as a coefficient list."""
    poly = [1]
    for i in range(1, n):
        step = [0] * (2 * i + 1)
        step[::2] = [1] * (i + 1)
        out = [0] * (len(poly) + len(step) - 1)
        for a, ca in enumerate(poly):
            for b, cb in enumerate(step):
                out[a + b] += ca * cb
        poly = out
    return poly


def test_full_flag_product_identity():
    """Two independent oracles for the full flag variety of C^n: the
    product formula and brute-force permutation inversion counts."""
    for n in range(2, 7):
        M = coxeter_matrix("finite-A", n)
        series = schubert_poincare(M, set(), longest_element(M))
        oracle = product_formula(n)
        assert list(series.coeffs) == oracle
        brute = Counter(
            2 * sum(1 for a, b in itertools.combinations(p, 2) if a > b)
            for p in itertools.permutations(range(n))
        )
        assert list(series.coeffs) == [
            brute.get(d, 0) for d in range(series.truncation + 1)
        ]


# ---------------------------------------------------------------------------
# loop series
# ---------------------------------------------------------------------------


def test_loop_n2_one_cell_per_even_degree():
    s = loop_poincare(2, 12)
    assert all(s.coeffs[d] == (1 - d % 2) for d in range(13))


def test_loop_series_counts_the_minimal_coset_representatives():
    """The breadth-first levels loop_poincare counts are the word lengths
    of min_coset_reps."""
    for n in range(2, 7):
        M = coxeter_matrix("affine-A", n)
        words = min_coset_reps(M, set(range(1, n)), 12)
        for degree in range(25):
            want = PoincareSeries.from_dims(
                [2 * len(w) for w in words if 2 * len(w) <= degree], degree
            )
            assert loop_poincare(n, degree) == want


def test_loop_n4_through_degree_6():
    assert list(loop_poincare(4, 6).coeffs) == [1, 0, 1, 0, 2, 0, 3]


def test_loop_constant_coefficient_one():
    for n in range(2, 6):
        assert loop_poincare(n, 4).coeffs[0] == 1


def test_loop_rejects_small_n():
    with pytest.raises(DomainError):
        loop_poincare(1, 4)


def test_loop_coefficients_nondecreasing_in_n():
    prev = None
    for n in range(2, 7):
        cur = loop_poincare(n, 10).coeffs
        if prev is not None:
            assert all(a <= b for a, b in zip(prev, cur))
        prev = cur


def test_loop_matches_direct_coset_counts():
    for n in (2, 3, 4):
        series = loop_poincare(n, 8)
        M = coxeter_matrix("affine-A", n)
        counts = Counter(
            2 * len(v) for v in min_coset_reps(M, set(range(1, n)), 4)
        )
        assert list(series.coeffs) == [counts.get(d, 0) for d in range(9)]


# ---------------------------------------------------------------------------
# skeleton comparison
# ---------------------------------------------------------------------------


def bott_oracle(k, through_degree):
    """The affine-parabolic construction: in the affine system on 2k
    generators, the loop side deletes generator 1, and the Grassmannian
    side is the parabolic W_K deleting generator k+1, quotiented by
    W_{K - {1}} with every one of its C(2k, k) cells enumerated."""
    n = 2 * k
    M = coxeter_matrix("affine-A", n)
    gens = set(M.generators)
    gr_k = gens - {k + 1}
    finite = min_coset_reps(M, gr_k - {1}, n * (n - 1) // 2, within=gr_k)
    affine = min_coset_reps(M, gens - {1}, through_degree // 2)
    return PoincareSeries.from_dims(
        [2 * len(v) for v in finite], through_degree
    ) == PoincareSeries.from_dims([2 * len(v) for v in affine], through_degree)


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_bott_matches_affine_parabolic_oracle(k):
    for d in range(2 * k + 5):
        assert bott_equivalence_check(k, d) is bott_oracle(k, d), d


def test_bott_check_never_enumerates_the_grassmannian(monkeypatch):
    enumerate_cosets = min_coset_reps
    levels = coxeter._coset_levels

    def no_within(M, J, max_length, within=None):
        assert within is None, "the Grassmannian side enumerated a parabolic quotient"
        return enumerate_cosets(M, J, max_length)

    def whole_group(n, J, gens, max_length):
        # the loop side's levels; a parabolic K would be the Grassmannian
        assert set(gens) == set(range(1, n + 1)), "a parabolic quotient was enumerated"
        return levels(n, J, gens, max_length)

    def refuse(*args, **kwargs):
        raise AssertionError("the Grassmannian side filtered by the Bruhat order")

    monkeypatch.setattr(cells, "_coset_levels", whole_group)
    monkeypatch.setattr(coxeter, "min_coset_reps", no_within)
    monkeypatch.setattr(coxeter, "bruhat_leq", refuse)
    assert bott_equivalence_check(4, 9) is True
    assert bott_equivalence_check(4, 10) is False


def test_bott_finite_side_coset_list():
    """The oracle's finite-side cosets for k = 2 are the six
    representatives of W_{1,2,4}/W_{2,4} inside the parabolic on
    {1,2,4}."""
    M = coxeter_matrix("affine-A", 4)
    reps = min_coset_reps(M, {2, 4}, 8, within={1, 2, 4})
    assert reps == [(), (1,), (2, 1), (4, 1), (2, 4, 1), (1, 2, 4, 1)]


def test_bott_equivalence_examples():
    assert bott_equivalence_check(1, 1) is True
    assert bott_equivalence_check(2, 5) is True
    assert bott_equivalence_check(3, 5) is True


def test_bott_divergence_at_higher_degree():
    assert bott_equivalence_check(2, 6) is False


def test_bott_guaranteed_window():
    for k in (1, 2, 3):
        for d in range(2 * k):
            assert bott_equivalence_check(k, d) is True


def test_bott_validation():
    with pytest.raises(DomainError):
        bott_equivalence_check(0, 3)
    with pytest.raises(DomainError):
        bott_equivalence_check(2, -1)


# ---------------------------------------------------------------------------
# consistency with the twin-building coordinatization
# ---------------------------------------------------------------------------


def test_cell_dim_counts_coordinate_slots():
    """For chamber cells (J empty) the coordinate vector produced by the
    twin coordinatization has exactly cell_dim/2 entries."""
    from twinbuild.building import encode_coords, decode_coords, standard_chamber

    rng = random.Random(61)
    n = 3
    M = coxeter_matrix("affine-A", n)
    cp = standard_chamber("+", n)
    dm = standard_chamber("-", n)
    words = {(), (1,), (3, 2), (1, 2, 3)}
    while len(words) < 8:
        raw = tuple(rng.randint(1, n) for _ in range(3))
        words.add(reduce_word(raw, M))
    for word in sorted(words, key=len):
        e = decode_coords(cp, dm, word, [1] * len(word))
        coords = encode_coords(cp, dm, e, word=word)
        assert len(coords) == cell_dim(M, set(), word) // 2 == len(word)
