import copy
import itertools
import math
import pickle
import random
import re
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from twinbuild.building import decode_coords, standard_chamber, weyl_matrix
from twinbuild.cells import loop_poincare
from twinbuild.errors import DomainError
from twinbuild.exactalg import LMat, LP_ZERO, zpow
from twinbuild.coxeter import (
    AffineWeylElt,
    CoxeterMatrix,
    affine_to_word,
    bruhat_leq,
    coset_act,
    coset_min_split,
    coxeter_matrix,
    longest_element,
    min_coset_reps,
    min_double_coset_rep,
    reduce_word,
    wcompose,
    wdescents_left,
    wdescents_right,
    widentity,
    wgen,
    wlength,
    word_length,
    word_to_affine,
    word_to_window,
    window_to_word,
)
from twinbuild.veronese import caveat_check, pi_tls

A2 = coxeter_matrix("finite-A", 3)
A3 = coxeter_matrix("finite-A", 4)
AF2 = coxeter_matrix("affine-A", 2)
AF3 = coxeter_matrix("affine-A", 3)
AF4 = coxeter_matrix("affine-A", 4)


def all_words(gens, max_len):
    for ell in range(max_len + 1):
        yield from itertools.product(gens, repeat=ell)


# ---------------------------------------------------------------------------
# Coxeter matrices
# ---------------------------------------------------------------------------


def order_of_pair(i, j, n):
    """The order of s_i s_j in the window group of size n."""
    return window_order(wcompose(wgen(i, n), wgen(j, n)))


def test_finite_a_path_diagram():
    assert order_of_pair(1, 2, 4) == 3
    assert order_of_pair(2, 3, 4) == 3
    assert order_of_pair(1, 3, 4) == 2
    assert all(order_of_pair(i, i, 4) == 1 for i in A3.generators)
    assert A3.kind == "finite-A" and A3.n == 4 and A3.generators == (1, 2, 3)


def test_affine_a2_infinity_bond():
    """s_1 s_2 has infinite order in affine A_1: its powers grow in length."""
    u = wcompose(wgen(1, 2), wgen(2, 2))
    power = u
    for k in range(1, 20):
        assert wlength(power) == 2 * k
        power = wcompose(power, u)
    assert AF2.is_affine() and AF2.generators == (1, 2)


def test_affine_a4_cycle():
    for i in range(1, 5):
        j = i % 4 + 1
        assert order_of_pair(i, j, 4) == 3
    assert order_of_pair(1, 3, 4) == 2
    assert order_of_pair(2, 4, 4) == 2


def test_invalid_rank_rejected():
    with pytest.raises(DomainError):
        coxeter_matrix("finite-A", 1)
    with pytest.raises(DomainError):
        coxeter_matrix("affine-A", 0)


@pytest.mark.parametrize(
    "call",
    [
        lambda: CoxeterMatrix("finite-A", 3.0),
        lambda: word_to_affine((1,), 3.0),
        lambda: loop_poincare(2.0, 4),
        lambda: pi_tls(2.0, 1),
        lambda: caveat_check(2.0, 4),
    ],
    ids=["CoxeterMatrix", "word_to_affine", "loop_poincare", "pi_tls", "caveat_check"],
)
def test_a_float_rank_is_a_type_error_at_the_boundary(call):
    """A rank argument is an integer: ``check_rank`` reads it through
    ``operator.index``, so a float fails before any work, naming its type."""
    with pytest.raises(TypeError, match="'float' object cannot be interpreted as an integer"):
        call()


def test_the_rank_is_stored_as_an_int():
    class Three(int):
        pass

    M = CoxeterMatrix("finite-A", Three(3))
    assert type(M.n) is int and M == A2


@pytest.mark.parametrize("i, n", [(0, 3), (4, 3), (-1, 2), (3, 2)])
def test_wgen_outside_the_generators_is_a_domain_error(i, n):
    with pytest.raises(DomainError, match=f"generator index {i} outside 1..{n}"):
        wgen(i, n)


def bond_table(kind, n):
    """The Coxeter matrix of the type written out entry by entry, rows and
    columns 0..rank-1."""
    if kind == "finite-A":
        r = n - 1
        return [
            [1 if i == j else (3 if abs(i - j) == 1 else 2) for j in range(r)]
            for i in range(r)
        ]
    if n == 2:
        return [[1, math.inf], [math.inf, 1]]
    return [
        [
            1 if i == j else (3 if (abs(i - j) == 1 or {i, j} == {0, n - 1}) else 2)
            for j in range(n)
        ]
        for i in range(n)
    ]


def window_order(u, bound=6):
    """The order of the window u, or ``math.inf`` when no power up to
    ``bound`` is the identity."""
    power = u
    for k in range(1, bound + 1):
        if power == widentity(len(u)):
            return k
        power = wcompose(power, u)
    return math.inf


@pytest.mark.parametrize("kind", ["finite-A", "affine-A"])
@pytest.mark.parametrize("n", range(2, 9))
def test_bonds_are_the_table_and_the_group_law(kind, n):
    """Each entry of the written-out Coxeter matrix of the type is the
    order of s_i s_j in the window group, so the type's generators span
    the graph it names."""
    M = CoxeterMatrix(kind, n)
    table = bond_table(kind, n)
    assert M.rank == len(table)
    assert M.generators == tuple(range(1, M.rank + 1))
    assert M.is_affine() == (kind == "affine-A")
    for i in M.generators:
        for j in M.generators:
            assert order_of_pair(i, j, n) == table[i - 1][j - 1]


@pytest.mark.parametrize("kind", ["finite-A", "affine-A"])
@pytest.mark.parametrize("n", [2, 3, 5])
def test_a_coxeter_system_is_its_type(kind, n):
    """Pickles, copies, compares and hashes by (kind, n)."""
    M = coxeter_matrix(kind, n)
    assert type(M) is CoxeterMatrix and (M.kind, M.n) == (kind, n)
    for twin in (pickle.loads(pickle.dumps(M)), copy.copy(M), copy.deepcopy(M)):
        assert type(twin) is CoxeterMatrix and twin == M
        assert hash(twin) == hash(M) == hash((kind, n))
    other = "affine-A" if kind == "finite-A" else "finite-A"
    assert M != CoxeterMatrix(other, n)
    assert M != CoxeterMatrix(kind, n + 1)


def test_a_word_outside_the_diagram_is_a_domain_error():
    """A2 has the generators 1, 2: 3 is a generator of the window group
    of size 3 (the affine one), but not of the type."""
    for word in [(0, 1), (1, 3), (-1, 1)]:
        with pytest.raises(DomainError, match="outside 1..2"):
            word_to_window(word, A2)


@settings(max_examples=60, derandomize=True, deadline=None)
@given(
    label=st.one_of(
        st.floats(allow_nan=True, allow_infinity=True),
        st.integers(-3, 5).map(str),
        st.fractions(),
    )
)
@example(label=1.5)
@example(label=2.0)
@example(label="2")
@example(label=Fraction(1))
def test_a_generator_label_that_is_not_an_integer_is_a_type_error(label):
    """A generator label is read through ``operator.index``, as the rank
    is: a float, a numeric string or a Fraction, also one equal to a label
    in range, raises a TypeError naming it, in a word (word_to_affine,
    word_to_window, and so decode_coords) and in a subset
    (min_coset_reps), instead of being truncated to an int."""
    cp, dm = standard_chamber("+", 3), standard_chamber("-", 3)
    calls = [
        lambda: word_to_affine((label,), 3),
        lambda: word_to_window((1, label), A2),
        lambda: min_coset_reps(AF4, {label}, 1),
        lambda: min_coset_reps(AF4, [1], 1, within=[1, label]),
        lambda: decode_coords(cp, dm, (label,), [1]),
    ]
    for call in calls:
        with pytest.raises(TypeError, match="generator label must be an integer, got " + re.escape(repr(label))):
            call()


def test_constructor_refuses_other_kinds_and_entry_tables():
    """A Coxeter system is built from its type only: any other kind is a
    DomainError, and a table of entries, the form with no type, a
    TypeError."""
    for kind in ["unsupported", "B", "finite-B", "affine-C", "A", "affine-a", "", None, 3]:
        with pytest.raises(DomainError):
            CoxeterMatrix(kind, 3)
        with pytest.raises(DomainError):
            coxeter_matrix(kind, 3)
    for entries in ([[1, 4], [4, 1]], [[1, 3], [3, 1]]):
        with pytest.raises(TypeError):
            CoxeterMatrix(entries)


# ---------------------------------------------------------------------------
# reduce / length
# ---------------------------------------------------------------------------


def test_reduce_involution_cancels():
    assert reduce_word((1, 1), A2) == ()


def test_reduce_braid_normal_form():
    w1 = reduce_word((1, 2, 1), A2)
    w2 = reduce_word((2, 1, 2), A2)
    assert w1 == w2 == (1, 2, 1)


def test_reduce_affine_word_already_reduced():
    assert reduce_word((1, 2, 4, 1), AF4) == (1, 2, 4, 1)
    assert word_length((1, 2, 4, 1), AF4) == 4


def test_length_basics():
    assert word_length((), A2) == 0
    for M in (A2, AF2, AF4):
        for i in M.generators:
            assert word_length((i,), M) == 1


def test_length_against_brute_force_a2():
    # the minimal word length over all words of length <= 3 equal to s1s2s1
    target = word_to_window((1, 2, 1), A2)
    best = min(
        (len(w) for w in all_words(A2.generators, 3) if word_to_window(w, A2) == target),
    )
    assert best == 3 == word_length((1, 2, 1), A2)


@pytest.mark.parametrize("M", [A2, A3, AF2], ids=["A2", "A3", "affineA1"])
def test_reduce_is_idempotent_and_minimal(M):
    # exhaustive over words of length <= 6: group by element, compare the
    # normal form against the shortest word actually seen
    shortest = {}
    for w in all_words(M.generators, 6):
        u = word_to_window(w, M)
        if u not in shortest or len(w) < len(shortest[u]):
            shortest[u] = w
    for u, w in shortest.items():
        nf = window_to_word(u, M)
        assert len(nf) == len(w) == wlength(u)
        assert reduce_word(nf, M) == nf
        assert word_to_window(nf, M) == u


def test_normal_form_is_lex_least_reduced_word():
    # brute-force cross-check on A3 up to length 4
    by_elt = {}
    for w in all_words(A3.generators, 4):
        u = word_to_window(w, A3)
        if wlength(u) == len(w):
            cur = by_elt.get(u)
            if cur is None or w < cur:
                by_elt[u] = w
    for u, least in by_elt.items():
        assert window_to_word(u, A3) == least


# ---------------------------------------------------------------------------
# Bruhat order
# ---------------------------------------------------------------------------


def test_identity_below_everything():
    rng = random.Random(3)
    for M in (A3, AF4):
        for _ in range(20):
            w = tuple(rng.choice(M.generators) for _ in range(rng.randint(0, 6)))
            assert bruhat_leq((), w, M)


def test_bruhat_pinned_affine_relations():
    assert bruhat_leq((4, 1), (2, 4, 1), AF4)
    assert bruhat_leq((2, 1), (1, 2, 4, 1), AF4)
    assert not bruhat_leq((3,), (1, 2, 4, 1), AF4)


def bruhat_leq_subword(v, w, M: CoxeterMatrix) -> bool:
    """Bruhat order by the subword characterization: true iff some
    subsequence of a fixed reduced word for w spells v.  Exponential in
    length(w); the independent check of `bruhat_leq`.
    """
    vw = word_to_window(v, M)
    wred = reduce_word(w, M)
    target_len = wlength(vw)
    gens = [wgen(i, M.n) for i in range(1, M.rank + 1)]
    seen = {widentity(M.n)}
    for s in wred:
        extra = set()
        for u in seen:
            u2 = wcompose(u, gens[s - 1])
            if wlength(u2) <= target_len:
                extra.add(u2)
        seen |= extra
    return vw in seen


@pytest.mark.parametrize("M,max_len", [(A3, 6), (AF2, 6)], ids=["A3", "affineA1"])
def test_bruhat_agrees_with_subword_oracle(M, max_len):
    elts = {}
    for w in all_words(M.generators, max_len):
        u = word_to_window(w, M)
        if wlength(u) == len(w):
            elts.setdefault(u, w)
    items = sorted(elts.values(), key=lambda w: (len(w), w))
    for v in items:
        for w in items:
            assert bruhat_leq(v, w, M) == bruhat_leq_subword(v, w, M)


# ---------------------------------------------------------------------------
# parabolic quotients
# ---------------------------------------------------------------------------


def test_min_coset_reps_within_parabolic_pinned():
    reps = min_coset_reps(AF4, {2, 4}, 4, within={1, 2, 4})
    assert reps == [
        (),
        (1,),
        (2, 1),
        (4, 1),
        (2, 4, 1),
        (1, 2, 4, 1),
    ]


def test_min_coset_reps_full_affine_pinned():
    reps = min_coset_reps(AF4, {2, 3, 4}, 3)
    assert reps == [
        (),
        (1,),
        (2, 1),
        (4, 1),
        (2, 4, 1),
        (3, 2, 1),
        (3, 4, 1),
    ]


def test_min_coset_reps_whole_group_is_identity():
    assert min_coset_reps(A2, {1, 2}, 5) == [()]


def test_min_coset_reps_one_per_coset():
    # multiplying any rep by any W_J element never gives another rep
    J = {1, 3}
    reps = min_coset_reps(A3, J, 6)
    wj_elts = set()
    for w in all_words(sorted(J), 4):
        wj_elts.add(word_to_window(w, A3))
    rep_windows = {word_to_window(w, A3) for w in reps}
    for u in rep_windows:
        for x in wj_elts:
            if wlength(x) == 0:
                continue
            assert wcompose(u, x) not in rep_windows
    # Gr_2(C^4): six cosets in total
    assert len(reps) == 6


@pytest.mark.parametrize(
    "M,J,within,max_len",
    [
        (A3, {1, 3}, None, 6),
        (A3, set(), None, 6),
        (AF2, {1}, None, 6),
        (AF3, set(), None, 4),
        (AF4, {2, 3, 4}, None, 4),
        (AF4, {2}, None, 4),
        (AF4, {2, 4}, {1, 2, 4}, 5),
    ],
)
def test_min_coset_reps_are_the_short_j_minimal_elements(M, J, within, max_len):
    """The search against brute force over all words: the elements with a
    reduced spelling of length <= max_len in the generators of ``within``
    and no right descent in J."""
    gens = sorted(within) if within else M.generators
    want = {}
    for w in all_words(gens, max_len):
        u = word_to_window(w, M)
        if wlength(u) == len(w) and not set(wdescents_right(u)) & J:
            want[u] = window_to_word(u, M)
    expected = sorted(want.values(), key=lambda w: (len(w), w))
    assert min_coset_reps(M, J, max_len, within=within) == expected


def test_coset_act_stays_in_the_coset_or_moves_one_step():
    """Deodhar's lemma on every J-minimal element of A3 and every s: s*u
    is J-minimal and one step longer or shorter, or it is u*t with t in J."""
    for J in ({1}, {1, 3}, {2}, set()):
        for w in min_coset_reps(A3, J, 6):
            u = word_to_window(w, A3)
            for s in A3.generators:
                v = coset_act(s, u, J)
                su = wcompose(wgen(s, 4), u)
                if v == u:
                    assert any(su == wcompose(u, wgen(t, 4)) for t in J)
                else:
                    assert v == su and abs(wlength(v) - wlength(u)) == 1
                    assert not set(wdescents_right(v)) & J


def test_min_coset_reps_requires_j_inside_within():
    with pytest.raises(DomainError):
        min_coset_reps(AF4, {2, 4}, 3, within={1, 2})


def test_coset_min_split_and_double_coset():
    J = {2, 4}
    u = word_to_window((1, 2, 4, 1), AF4)
    m, uj = coset_min_split(u, J)
    assert wcompose(m, uj) == u
    assert wlength(m) + wlength(uj) == wlength(u)
    assert not any(s in J for s in wdescents_right(m))
    d = min_double_coset_rep(u, {1}, {1})
    assert wlength(d) <= wlength(u)
    assert not any(s in {1} for s in wdescents_left(d))
    assert not any(s in {1} for s in wdescents_right(d))


# ---------------------------------------------------------------------------
# longest element
# ---------------------------------------------------------------------------


def test_longest_element_small_types():
    A1 = coxeter_matrix("finite-A", 2)
    assert longest_element(A1) == (1,)
    assert len(longest_element(A2)) == 3
    assert len(longest_element(A3)) == 6
    with pytest.raises(DomainError):
        longest_element(AF3)


def test_longest_element_is_maximum():
    w0 = word_to_window(longest_element(A3), A3)
    for w in all_words(A3.generators, 6):
        assert wlength(word_to_window(w, A3)) <= wlength(w0)


# ---------------------------------------------------------------------------
# affine permutations
# ---------------------------------------------------------------------------


def test_identity_affine_elt():
    e = word_to_affine((), 4)
    assert e == AffineWeylElt.identity(4)
    assert e.perm == (1, 2, 3, 4) and e.shifts == (0, 0, 0, 0)


def test_affine_node_generator_form():
    for n in (2, 3, 4):
        s = word_to_affine((n,), n)
        expected_perm = tuple([n] + list(range(2, n)) + [1])
        assert s.perm == expected_perm
        assert s.shifts == tuple([-1] + [0] * (n - 2) + [1])


def test_affine_round_trip_random_words():
    rng = random.Random(4)
    for _ in range(500):
        n = rng.choice([2, 3, 4])
        M = coxeter_matrix("affine-A", n)
        w = tuple(rng.choice(M.generators) for _ in range(rng.randint(0, 10)))
        elt = word_to_affine(w, n)
        assert affine_to_word(elt) == reduce_word(w, M)


def test_affine_composition_matches_concatenation():
    rng = random.Random(5)
    for _ in range(100):
        n = rng.choice([2, 3, 4])
        w1 = tuple(rng.choice(range(1, n + 1)) for _ in range(rng.randint(0, 6)))
        w2 = tuple(rng.choice(range(1, n + 1)) for _ in range(rng.randint(0, 6)))
        a = word_to_affine(w1, n).compose(word_to_affine(w2, n))
        assert a == word_to_affine(w1 + w2, n)
        assert a.compose(a.inverse()) == AffineWeylElt.identity(n)


def test_affine_composition_associative():
    rng = random.Random(6)
    for _ in range(50):
        n = rng.choice([2, 3])
        xs = [
            word_to_affine(
                tuple(rng.choice(range(1, n + 1)) for _ in range(rng.randint(0, 5))),
                n,
            )
            for _ in range(3)
        ]
        a, b, c = xs
        assert a.compose(b).compose(c) == a.compose(b.compose(c))


def test_affine_shift_sum_zero_enforced():
    with pytest.raises(DomainError):
        AffineWeylElt((1, 2), (1, 0))
    with pytest.raises(DomainError):
        AffineWeylElt((1, 1), (0, 0))


def test_window_conversion_round_trip():
    rng = random.Random(7)
    for _ in range(100):
        n = rng.choice([2, 3, 4])
        w = tuple(rng.choice(range(1, n + 1)) for _ in range(rng.randint(0, 8)))
        e = word_to_affine(w, n)
        assert AffineWeylElt.from_window(e.window) == e


def test_from_window_rejects_non_elements():
    assert AffineWeylElt.from_window((0, 3)) == AffineWeylElt((2, 1), (-1, 1))
    with pytest.raises(DomainError, match="perm is not a permutation"):
        AffineWeylElt.from_window((1, 3))
    with pytest.raises(DomainError, match="sum 0"):
        AffineWeylElt.from_window((1, 4))


def test_affine_words_need_rank_two():
    for n in (0, 1):
        with pytest.raises(DomainError, match=f"rank parameter n = {n} must be at least 2"):
            word_to_affine((), n)
        with pytest.raises(DomainError, match="must be at least 2"):
            affine_to_word(AffineWeylElt.identity(n))
    with pytest.raises(DomainError, match="generator index 4 outside 1..3"):
        word_to_affine((1, 4), 3)


# The perm/shift group law that AffineWeylElt computed with before it
# held a window, kept as the independent check of the window-backed
# class: (pi, k) is the monomial matrix with e_j -> z^{k_{pi(j)}} e_{pi(j)},
# and products and inverses are those of the matrices.


def ref_compose(a, b):
    (p1, k1), (p2, k2) = a, b
    n = len(p1)
    perm = tuple(p1[p2[j] - 1] for j in range(n))
    # (pi1 . k2)_i = k2 at pi1^{-1}(i)
    shifts = tuple(k1[i] + k2[p1.index(i + 1)] for i in range(n))
    return perm, shifts


def ref_inverse(a):
    p, k = a
    n = len(p)
    perm = [0] * n
    for j in range(n):
        perm[p[j] - 1] = j + 1
    return tuple(perm), tuple(-k[p[i] - 1] for i in range(n))


def ref_generator(s, n):
    perm, shifts = list(range(1, n + 1)), [0] * n
    if s < n:
        perm[s - 1], perm[s] = perm[s], perm[s - 1]
    else:
        perm[0], perm[n - 1] = n, 1
        shifts[0], shifts[n - 1] = -1, 1
    return tuple(perm), tuple(shifts)


def ref_length(a):
    """Shi's inversion formula (Bjorner-Brenti, Prop. 8.3.1) on the
    periodic bijection j -> pi(j) - n k_{pi(j)}."""
    p, k = a
    n = len(p)
    u = [p[j] - n * k[p[j] - 1] for j in range(n)]
    return sum(abs((u[j] - u[i]) // n) for i in range(n) for j in range(i + 1, n))


def ref_matrix(a):
    p, k = a
    n = len(p)
    rows = [[LP_ZERO] * n for _ in range(n)]
    for j in range(n):
        rows[p[j] - 1][j] = zpow(k[p[j] - 1])
    return LMat(rows)


@st.composite
def reference_cases(draw):
    """Rank n, two (perm, shifts) pairs and a word over 1..n."""
    n = draw(st.integers(2, 5))

    def pair():
        perm = tuple(draw(st.permutations(range(1, n + 1))))
        head = draw(st.lists(st.integers(-3, 3), min_size=n - 1, max_size=n - 1))
        return perm, tuple(head) + (-sum(head),)

    word = tuple(draw(st.lists(st.integers(1, n), max_size=8)))
    return n, pair(), pair(), word


@settings(max_examples=200, derandomize=True, deadline=None)
@given(case=reference_cases())
@example(case=(2, ((2, 1), (-1, 1)), ((2, 1), (0, 0)), (2, 1)))
def test_window_elements_match_perm_shift_reference(case):
    n, a, b, word = case
    x, y = AffineWeylElt(*a), AffineWeylElt(*b)
    assert (x.perm, x.shifts) == a and x.n == n
    xy = x.compose(y)
    assert (xy.perm, xy.shifts) == ref_compose(a, b)
    assert (x.inverse().perm, x.inverse().shifts) == ref_inverse(a)
    assert x.length() == ref_length(a)
    assert AffineWeylElt.from_window(x.window) == x
    assert weyl_matrix(x) == ref_matrix(a)
    assert weyl_matrix(x) @ weyl_matrix(y) == weyl_matrix(xy)
    spelled = (tuple(range(1, n + 1)), (0,) * n)
    for s in word:
        spelled = ref_compose(spelled, ref_generator(s, n))
    w = word_to_affine(word, n)
    assert (w.perm, w.shifts) == spelled


def test_affine_elt_repr_pickle_and_copy():
    s = word_to_affine((2,), 2)
    assert repr(s) == "AffineWeylElt(perm=(2, 1), shifts=(-1, 1))"
    w = word_to_affine((1, 2, 3, 1, 3), 3)
    for proto in range(pickle.HIGHEST_PROTOCOL + 1):
        back = pickle.loads(pickle.dumps(w, proto))
        assert back == w and hash(back) == hash(w)
        assert (back.perm, back.shifts) == (w.perm, w.shifts)
    assert copy.copy(w) == w and copy.deepcopy(w) == w
    with pytest.raises(AttributeError):
        w.window = (1, 2, 3)


def test_ends_of_the_affine_a1_line():
    # alternating words are the reduced ones; lengths grow by one
    for k in range(8):
        w = tuple(1 if i % 2 == 0 else 2 for i in range(k))
        assert word_length(w, AF2) == k
        w = tuple(2 if i % 2 == 0 else 1 for i in range(k))
        assert word_length(w, AF2) == k
