"""Tests for chambers, Weyl distance/codistance, twin axioms, gates,
twin gates, and Schubert-cell coordinates."""

import copy
import gc
import math
import pickle
import random
import re
from fractions import Fraction

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from twinbuild import building, exactalg, lattice
from twinbuild.building import (
    Chamber,
    Simplex,
    _common_chamber,
    _gate,
    _relpos,
    _replay_rows,
    borel_membership,
    bruhat_factors,
    chamber_from_basis,
    codelta,
    common_basis,
    decode_coords,
    delta,
    delta_word,
    encode_coords,
    opposite,
    panel_chamber,
    panel_parameter,
    project,
    project_twin,
    simplex_delta,
    standard_chamber,
    weyl_matrix,
)
from twinbuild.coxeter import (
    AffineWeylElt,
    affine_to_word,
    bruhat_leq,
    coset_min_split,
    coxeter_matrix,
    wcompose,
    wgen,
    widentity,
    word_to_affine,
)
from twinbuild.errors import DomainError, NotInvertibleError
from twinbuild.exactalg import GaussRat, LMat, LP_ONE, LaurentPoly, Z, parse_poly, zpow
from twinbuild.lattice import INF, PanelChart, vertex_classes_of_basis
from twinbuild.samples import (
    rand_affine_word,
    rand_borel,
    rand_gauss,
    rand_opposite_pair,
    rand_sl,
)


def elementary(n, i, j, p):
    """Identity plus p in entry (i, j), i != j."""
    rows = [[int(a == b) for b in range(n)] for a in range(n)]
    rows[i][j] = p
    return LMat(rows)


def rand_chamber(rng, n, side, deg=2, maxlen=6):
    """A random chamber: a random group element times a random Weyl
    representative applied to the standard chamber."""
    g = rand_sl(rng, n, deg)
    w = word_to_affine(rand_affine_word(rng, n, maxlen), n)
    return chamber_from_basis(side, g @ weyl_matrix(w))


def P(s):
    return parse_poly(s)


def M(rows):
    return LMat([[P(x) if isinstance(x, str) else x for x in row] for row in rows])


def apartment_chambers(basis, word_or_elt, side="+"):
    """The chamber at Weyl position w in the apartment of the basis:
    chamber_from_basis(side, basis @ weyl_matrix(w))."""
    if not isinstance(word_or_elt, AffineWeylElt):
        word_or_elt = word_to_affine(tuple(word_or_elt), basis.nrows)
    return chamber_from_basis(side, basis @ weyl_matrix(word_or_elt))


def elements_up_to(n, maxlen):
    """All affine Weyl elements of length <= maxlen, via breadth-first
    search over right multiplication."""
    frontier = {AffineWeylElt.identity(n)}
    seen = set(frontier)
    out = [AffineWeylElt.identity(n)]
    for _ in range(maxlen):
        nxt = set()
        for w in frontier:
            for s in range(1, n + 1):
                ws = w.compose(word_to_affine((s,), n))
                if ws.length() == w.length() + 1 and ws not in seen:
                    nxt.add(ws)
        seen |= nxt
        out.extend(sorted(nxt, key=lambda e: (e.perm, e.shifts)))
        frontier = nxt
    return out


def panel_of(c, s):
    """The panel of the chamber whose residue is moved by generator s."""
    for p in range(c.n):
        x = c.panel(p)
        if x.cotype_nodes() == (s,):
            return x
    raise AssertionError("no panel with the requested cotype")


def reduced_words(rng, n, maxlen, count):
    """Random reduced words (as normal forms of random products)."""
    out = []
    while len(out) < count:
        w = word_to_affine(rand_affine_word(rng, n, maxlen), n)
        word = affine_to_word(w)
        if len(word) <= maxlen:
            out.append((w, word))
    return out


# ---------------------------------------------------------------------------
# chambers and bases
# ---------------------------------------------------------------------------


def test_standard_chamber_vertices():
    c = standard_chamber("+", 3)
    assert c.n == 3
    assert [v.type for v in c.chain_classes] == [0, 1, 2]


def test_chamber_from_permuted_basis_differs_but_shares_type0_vertex():
    std = standard_chamber("+", 2)
    perm = chamber_from_basis("+", M([[0, 1], [1, 0]]))
    assert perm != std
    assert perm.vertex(0) == std.vertex(0)


def test_chamber_from_scaled_basis_is_equal():
    rng = random.Random(11)
    for _ in range(10):
        n = rng.choice([2, 3])
        g = rand_sl(rng, n)
        side = rng.choice("+-")
        assert chamber_from_basis(side, g.scale(zpow(rng.randint(-2, 2)))) == (
            chamber_from_basis(side, g)
        )


def test_chamber_equality_is_equality_of_vertex_classes():
    """== is one engine run (Weyl distance 1) and the hash reads the type-0
    vertex; both agree with comparing the vertex classes."""
    rng = random.Random(25)
    for _ in range(12):
        n = rng.choice([2, 3])
        side = rng.choice("+-")
        c = chamber_from_basis(side, rand_sl(rng, n))
        same = chamber_from_basis(side, c.rep @ rand_borel(rng, n, side))
        pan = c.panel(rng.randrange(n))
        others = [
            same,
            apartment_chambers(c.rep, (rng.randint(1, n),), side),
            apartment_chambers(c.rep, (rng.randint(1, n), rng.randint(1, n)), side),
        ] + [panel_chamber(pan, t) for t in (GaussRat(0), GaussRat(1), INF)]
        for d in others:
            assert (c == d) == (d == c) == (c.classes == d.classes)
            if c == d:
                assert hash(c) == hash(d)
        assert same == c
        assert chamber_from_basis("-" if side == "+" else "+", c.rep) != c
        assert standard_chamber(side, n + 1) != standard_chamber(side, n)


def test_degenerate_basis_rejected():
    with pytest.raises(NotInvertibleError):
        chamber_from_basis("+", M([["1", "1"], ["1", "1"]]))


def test_empty_face_rejected():
    c = standard_chamber("+", 3)
    with pytest.raises(DomainError):
        c.face(())


@pytest.mark.parametrize("side", ["+", "-"])
def test_a_type_outside_the_chain_is_rejected(side):
    """A vertex or a dropped type outside 0..n-1 raises DomainError: it
    neither drops nothing (a "panel" keeping every type) nor wraps round
    the chain."""
    c = standard_chamber(side, 3)
    for t in (-1, 3, 7):
        with pytest.raises(DomainError, match="vertex types"):
            c.panel(t)
        with pytest.raises(DomainError, match="vertex types"):
            c.vertex(t)
    assert c.panel(2).kept_types == {0, 1}
    assert c.vertex(2) == c.chain_classes[2]


@pytest.mark.parametrize("side", ["+", "-"])
def test_a_kept_type_is_checked_as_a_vertex_type(side):
    """Simplex reads each kept type as Chamber.vertex reads a type: a
    float (1.0 too, though it equals 1), a string or a type outside 0..n-1
    raises DomainError naming it, so no face holds a type that classes,
    project or project_twin would misread."""
    c = standard_chamber(side, 3)
    for bad in (1.0, 2.5, "1", -1, 3, None):
        for kept in ([bad], [bad, 2], [0, 2, bad]):
            with pytest.raises(DomainError, match=r"vertex types are 0\.\.2, got " + re.escape(repr(bad))):
                Simplex(c, kept)
            with pytest.raises(DomainError, match="vertex types"):
                c.face(kept)
    face = Simplex(c, [1, 2, 1])
    assert face.kept_types == {1, 2} and face.classes == {c.vertex(1), c.vertex(2)}


# ---------------------------------------------------------------------------
# borel membership
# ---------------------------------------------------------------------------


def test_borel_upper_unitriangular_constant_plus():
    g = M([["1", "(1+i)"], [0, "1"]])
    assert borel_membership("+", g)


def test_borel_diagonal_constant_both_sides():
    g = M([["2", 0], [0, "1/2"]])
    assert borel_membership("+", g)
    assert borel_membership("-", g)


def test_borel_z_lower_entry_plus():
    g = M([["1", 0], ["z", "1"]])
    assert borel_membership("+", g)


def test_borel_constant_lower_entry_fails_plus():
    g = M([["1", 0], ["1", "1"]])
    assert not borel_membership("+", g)


def test_borel_zinv_upper_entry_minus():
    g = M([["1", "z^-1"], [0, "1"]])
    assert borel_membership("-", g)
    assert not borel_membership("+", g)


def test_borel_requires_det_one():
    with pytest.raises(DomainError):
        borel_membership("+", M([["z", 0], [0, "1"]]))


def test_borel_samples_members(seed=5):
    rng = random.Random(seed)
    for side in "+-":
        for _ in range(20):
            n = rng.choice([2, 3])
            assert borel_membership(side, rand_borel(rng, n, side))


# ---------------------------------------------------------------------------
# delta
# ---------------------------------------------------------------------------


def test_delta_self_is_identity():
    for n in (2, 3, 4):
        for side in "+-":
            c = standard_chamber(side, n)
            assert delta(c, c) == AffineWeylElt.identity(n)


def test_delta_side_mismatch():
    with pytest.raises(DomainError):
        delta(standard_chamber("+", 2), standard_chamber("-", 2))


def test_delta_of_monomial_translates():
    """delta(C0, n_w C0) = w for every reduced w of length <= 8."""
    rng = random.Random(23)
    for n in (2, 3, 4):
        c0 = standard_chamber("+", n)
        for w, _ in reduced_words(rng, n, 8, 25):
            d = chamber_from_basis("+", weyl_matrix(w))
            assert delta(c0, d) == w


def test_delta_construct_and_recover():
    """delta(C0, b1 n_w b2 C0) = w, for random Borel factors."""
    rng = random.Random(31)
    for _ in range(200):
        n = rng.choice([2, 3, 4])
        side = rng.choice("+-")
        c0 = standard_chamber(side, n)
        w = word_to_affine(rand_affine_word(rng, n, 8), n)
        b1 = rand_borel(rng, n, side)
        b2 = rand_borel(rng, n, side)
        d = chamber_from_basis(side, b1 @ weyl_matrix(w) @ b2)
        assert delta(c0, d) == w


def test_delta_inverse_symmetry():
    rng = random.Random(37)
    for _ in range(30):
        n = rng.choice([2, 3])
        side = rng.choice("+-")
        c = rand_chamber(rng, n, side)
        d = rand_chamber(rng, n, side)
        assert delta(d, c) == delta(c, d).inverse()


def test_delta_gallery_extension():
    """If delta(C,D) = w and delta(D,E) = s with l(ws) = l(w)+1 then
    delta(C,E) = ws."""
    rng = random.Random(41)
    done = 0
    while done < 25:
        n = rng.choice([2, 3])
        c = standard_chamber("+", n)
        w = word_to_affine(rand_affine_word(rng, n, 5), n)
        d = chamber_from_basis("+", rand_borel(rng, n, "+") @ weyl_matrix(w))
        s = rng.randint(1, n)
        ws = w.compose(word_to_affine((s,), n))
        if ws.length() != w.length() + 1:
            continue
        x = panel_of(d, s)
        e = panel_chamber(x, GaussRat(rng.randint(-2, 2)))
        if delta(d, e) != word_to_affine((s,), n):
            continue
        assert delta(c, e) == ws
        done += 1


# ---------------------------------------------------------------------------
# codelta, opposition, twin axioms
# ---------------------------------------------------------------------------


def test_codelta_standard_pair_identity():
    for n in (2, 3, 4):
        cm = standard_chamber("-", n)
        cp = standard_chamber("+", n)
        assert codelta(cm, cp) == AffineWeylElt.identity(n)
        assert opposite(cm, cp)


def test_codelta_same_side_rejected():
    with pytest.raises(DomainError):
        codelta(standard_chamber("+", 2), standard_chamber("+", 2))


def test_codelta_equivariance():
    rng = random.Random(43)
    for _ in range(25):
        n = rng.choice([2, 3])
        cm = rand_chamber(rng, n, "-")
        cp = rand_chamber(rng, n, "+")
        g = rand_sl(rng, n)
        gm = chamber_from_basis("-", g @ cm.rep)
        gp = chamber_from_basis("+", g @ cp.rep)
        assert codelta(gm, gp) == codelta(cm, cp)


def test_codelta_construct_and_recover():
    """codelta(x b- C0-, x n_w b+ C0+) = w."""
    rng = random.Random(47)
    for _ in range(200):
        n = rng.choice([2, 3, 4])
        w = word_to_affine(rand_affine_word(rng, n, 8), n)
        x = rand_sl(rng, n)
        cm = chamber_from_basis("-", x @ rand_borel(rng, n, "-"))
        cp = chamber_from_basis("+", x @ weyl_matrix(w) @ rand_borel(rng, n, "+"))
        assert codelta(cm, cp) == w


def test_codelta_apartment_calibration():
    """codelta(A-(v), A+(w)) = v^{-1} w on the standard twin apartment."""
    n = 3
    basis = LMat.identity(n)
    els = elements_up_to(n, 3)
    for v in els:
        am = apartment_chambers(basis, v, "-")
        for w in els:
            ap = apartment_chambers(basis, w, "+")
            assert codelta(am, ap) == v.inverse().compose(w)


def test_opposite_of_shared_basis():
    rng = random.Random(53)
    for _ in range(50):
        n = rng.choice([2, 3, 4])
        cm, cp = rand_opposite_pair(rng, n)
        assert opposite(cm, cp)


def test_opposite_fails_only_at_special_panel_parameter():
    """On each panel through the standard plus chamber, exactly one
    chamber is non-opposite to the standard minus chamber (the twin
    gate); generic parameters like t = 1 stay opposite."""
    for n in (2, 3):
        cm = standard_chamber("-", n)
        cp = standard_chamber("+", n)
        for s in range(1, n + 1):
            x = panel_of(cp, s)
            gate = project_twin(x, cm)
            assert not opposite(cm, gate)
            tgate = panel_parameter(x, gate)
            for t in (GaussRat(0), GaussRat(1), GaussRat(2), INF):
                if t == tgate:
                    continue
                assert opposite(cm, panel_chamber(x, t))


_CONTAINMENT_KINDS = ("self", "chart", "wall", "other-wall", "word", "random")


@settings(max_examples=100, derandomize=True, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.sampled_from([2, 3, 4]),
    side=st.sampled_from("+-"),
    kind=st.sampled_from(_CONTAINMENT_KINDS),
)
def test_panel_containment_matches_the_vertex_class_oracle(seed, n, side, kind):
    """panel_parameter accepts exactly the chambers whose vertex classes
    contain the panel's (the test it made before it asked the engine),
    on chambers inside the panel (the carrier, a chart chamber, its
    neighbour across the panel's wall) and outside it (a neighbour
    across another wall, a chamber at a random Weyl distance, a random
    chamber), and an accepted chamber is the chart's chamber at the
    returned parameter."""
    rng = random.Random(seed)
    d = rand_chamber(rng, n, side)
    s = rng.randint(1, n)
    panel = panel_of(d, s)
    if kind == "self":
        c = d
    elif kind == "chart":
        c = panel_chamber(panel, rng.choice([GaussRat(rng.randint(-2, 2)), INF]))
    elif kind in ("wall", "other-wall", "word"):
        if kind == "wall":
            word = (s,)
        elif kind == "other-wall":
            word = (rng.choice([t for t in range(1, n + 1) if t != s]),)
        else:
            word = rand_affine_word(rng, n, 5)
        w = word_to_affine(word, n)
        c = chamber_from_basis(side, d.rep @ weyl_matrix(w) @ rand_borel(rng, n, side))
    else:
        c = rand_chamber(rng, n, side)
    inside = panel.classes <= c.classes
    event(f"{kind} inside={inside}")
    if inside:
        assert panel_chamber(panel, panel_parameter(panel, c)) == c
    else:
        with pytest.raises(DomainError, match="does not contain the panel"):
            panel_parameter(panel, c)


def test_opposite_equivariance():
    rng = random.Random(59)
    for _ in range(20):
        n = rng.choice([2, 3])
        cm = rand_chamber(rng, n, "-")
        cp = rand_chamber(rng, n, "+")
        g = rand_sl(rng, n)
        gm = chamber_from_basis("-", g @ cm.rep)
        gp = chamber_from_basis("+", g @ cp.rep)
        assert opposite(gm, gp) == opposite(cm, cp)


def test_tw1_symmetry():
    rng = random.Random(61)
    for _ in range(40):
        n = rng.choice([2, 3, 4])
        cm = rand_chamber(rng, n, "-")
        cp = rand_chamber(rng, n, "+")
        assert codelta(cp, cm) == codelta(cm, cp).inverse()


def test_tw2_shortening_across_panel():
    """If codelta(C,D) = w, l(ws) < l(w), and delta(D,E) = s, then
    codelta(C,E) = ws, for every E in the panel."""
    rng = random.Random(67)
    done = 0
    while done < 30:
        n = rng.choice([2, 3])
        w = word_to_affine(rand_affine_word(rng, n, 5), n)
        word = affine_to_word(w)
        if not word:
            continue
        s = word[-1]
        ws = w.compose(word_to_affine((s,), n))
        assert ws.length() == w.length() - 1
        x = rand_sl(rng, n)
        cm = chamber_from_basis("-", x @ rand_borel(rng, n, "-"))
        cp = chamber_from_basis("+", x @ weyl_matrix(w) @ rand_borel(rng, n, "+"))
        assert codelta(cm, cp) == w
        pan = panel_of(cp, s)
        for t in (GaussRat(0), GaussRat(1), GaussRat(0, 1), INF):
            e = panel_chamber(pan, t)
            if e == cp:
                continue
            assert codelta(cm, e) == ws
        done += 1


def test_tw3_existence_both_directions():
    """For codelta(C,D) = w and each s there is an s-adjacent E with
    codelta(C,E) = ws; the lengthening one is the twin gate."""
    rng = random.Random(71)
    done = 0
    while done < 15:
        n = rng.choice([2, 3])
        w = word_to_affine(rand_affine_word(rng, n, 4), n)
        x = rand_sl(rng, n)
        cm = chamber_from_basis("-", x @ rand_borel(rng, n, "-"))
        cp = chamber_from_basis("+", x @ weyl_matrix(w) @ rand_borel(rng, n, "+"))
        s = rng.randint(1, n)
        ws = w.compose(word_to_affine((s,), n))
        pan = panel_of(cp, s)
        if ws.length() > w.length():
            e = project_twin(pan, cm)
            assert delta(cp, e) == word_to_affine((s,), n)
            assert codelta(cm, e) == ws
        else:
            found = False
            for t in (GaussRat(0), GaussRat(1), GaussRat(2), INF):
                e = panel_chamber(pan, t)
                if e != cp and codelta(cm, e) == ws:
                    found = True
                    break
            assert found
        done += 1


# ---------------------------------------------------------------------------
# simplex-level positions
# ---------------------------------------------------------------------------


def test_simplex_delta_same_vertex_identity():
    c = standard_chamber("+", 3)
    x = c.face({0})
    pos = simplex_delta(x, x)
    assert pos.word == ()


def test_simplex_delta_matches_double_coset_search():
    """Within the standard apartment the simplex position is the
    brute-force minimal element of W_J u^{-1} v W_K."""
    n = 3
    basis = LMat.identity(n)

    def subgroup(nodes):
        els = {AffineWeylElt.identity(n)}
        while True:
            more = {
                e.compose(word_to_affine((s,), n)) for e in els for s in nodes
            }
            new = els | more
            if len(new) == len(els):
                return els
            els = new

    rng = random.Random(73)
    for _ in range(12):
        u = word_to_affine(rand_affine_word(rng, n, 3), n)
        v = word_to_affine(rand_affine_word(rng, n, 3), n)
        ktypes1 = set(rng.sample(range(n), rng.randint(1, n - 1)))
        ktypes2 = set(rng.sample(range(n), rng.randint(1, n - 1)))
        x = apartment_chambers(basis, u).face(ktypes1)
        y = apartment_chambers(basis, v).face(ktypes2)
        pos = simplex_delta(x, y)
        wj = subgroup(pos.left)
        wk = subgroup(pos.right)
        mid = u.inverse().compose(v)
        best = min(
            (a.compose(mid).compose(b) for a in wj for b in wk),
            key=lambda e: e.length(),
        )
        assert word_to_affine(pos.word, n).length() == best.length()
        assert word_to_affine(pos.word, n) == best


# ---------------------------------------------------------------------------
# project (gates)
# ---------------------------------------------------------------------------


def test_project_fixes_containing_chamber():
    rng = random.Random(79)
    for _ in range(15):
        n = rng.choice([2, 3])
        side = rng.choice("+-")
        c = rand_chamber(rng, n, side)
        kept = set(rng.sample(range(n), rng.randint(1, n - 1)))
        assert project(c.face(kept), c) == c


def test_project_apartment_coxeter_oracle():
    """Exhaustive gate check inside the standard apartment, n = 3,
    l(w) <= 5: delta(C0, gate) is the minimal coset representative."""
    n = 3
    basis = LMat.identity(n)
    c0 = standard_chamber("+", n)
    for w in elements_up_to(n, 5):
        d = apartment_chambers(basis, w)
        for p in range(n):
            x = d.panel(p)
            e = project(x, c0)
            wmin, _ = coset_min_split(w.window, set(x.cotype_nodes()))
            assert delta(c0, e).window == wmin
            assert x.classes <= e.classes


def test_project_minus_side_oracle():
    n = 3
    basis = LMat.identity(n)
    c0 = standard_chamber("-", n)
    for w in elements_up_to(n, 4):
        d = apartment_chambers(basis, w, "-")
        for p in range(n):
            x = d.panel(p)
            e = project(x, c0)
            wmin, _ = coset_min_split(w.window, set(x.cotype_nodes()))
            assert delta(c0, e).window == wmin
            assert x.classes <= e.classes


def test_project_gate_factorization():
    """delta(C,D) = delta(C,E) delta(E,D) with lengths adding, for
    D in the residue."""
    rng = random.Random(83)
    for _ in range(25):
        n = rng.choice([2, 3])
        side = rng.choice("+-")
        c = rand_chamber(rng, n, side, maxlen=4)
        d0 = rand_chamber(rng, n, side, maxlen=4)
        p = rng.randrange(n)
        x = d0.panel(p)
        e = project(x, c)
        d = panel_chamber(x, rng.choice([GaussRat(0), GaussRat(1), INF]))
        full = delta(c, d)
        head = delta(c, e)
        tail = delta(e, d)
        assert head.compose(tail) == full
        assert head.length() + tail.length() == full.length()


def test_project_gate_unique_on_panels():
    """No other panel chamber is as close to C as the gate."""
    rng = random.Random(89)
    for _ in range(10):
        n = rng.choice([2, 3])
        c = rand_chamber(rng, n, "+", maxlen=3)
        d0 = rand_chamber(rng, n, "+", maxlen=3)
        p = rng.randrange(n)
        x = d0.panel(p)
        e = project(x, c)
        lmin = delta(c, e).length()
        for t in (GaussRat(0), GaussRat(1), GaussRat(-1), GaussRat(0, 1), INF):
            d = panel_chamber(x, t)
            if d == e:
                continue
            assert delta(c, d).length() > lmin


def test_project_rejects_side_mismatch():
    c = standard_chamber("+", 2)
    d = standard_chamber("-", 2)
    with pytest.raises(DomainError):
        project(d.panel(0), c)


# ---------------------------------------------------------------------------
# project_twin
# ---------------------------------------------------------------------------


def test_project_twin_panel_unique_longer():
    """On a panel through a chamber opposite C, the twin gate is the
    unique chamber that is NOT opposite C; every sampled parameter other
    than the gate's stays opposite."""
    rng = random.Random(97)
    for _ in range(10):
        n = rng.choice([2, 3])
        cm, cp = rand_opposite_pair(rng, n)
        s = rng.randint(1, n)
        pan = panel_of(cp, s)
        gate = project_twin(pan, cm)
        assert codelta(cm, gate) == word_to_affine((s,), n)
        tgate = panel_parameter(pan, gate)
        for t in (GaussRat(0), GaussRat(1), INF):
            if t == tgate:
                continue
            assert opposite(cm, panel_chamber(pan, t))


def test_project_twin_equivariance():
    rng = random.Random(101)
    for _ in range(10):
        n = rng.choice([2, 3])
        d = rand_chamber(rng, n, "-", maxlen=3)
        c = rand_chamber(rng, n, "+", maxlen=3)
        p = rng.randrange(n)
        g = rand_sl(rng, n)
        e = project_twin(d.panel(p), c)
        gd = chamber_from_basis("-", g @ d.rep)
        gc = chamber_from_basis("+", g @ c.rep)
        ge = project_twin(gd.panel(p), gc)
        assert ge == chamber_from_basis("-", g @ e.rep)


def test_project_twin_apartment_oracle():
    """Inside the standard twin apartment the twin gate maximizes
    l(s v^{-1} w) over the panel coset, matching the Coxeter value."""
    n = 3
    basis = LMat.identity(n)
    small = elements_up_to(n, 2)
    larger = elements_up_to(n, 3)
    for v in small:
        av = apartment_chambers(basis, v, "-")
        for w in larger:
            aw = apartment_chambers(basis, w)
            for p in range(n):
                x = av.panel(p)
                (s,) = x.cotype_nodes()
                e = project_twin(x, aw)
                base = v.inverse().compose(w)
                sbase = word_to_affine((s,), n).compose(base)
                want = sbase if sbase.length() > base.length() else base
                assert codelta(e, aw) == want
                assert x.classes <= e.classes


def parabolic_elements(jset, n):
    """All elements of the finite group W_J, closed under right
    multiplication by the generators in J."""
    gens = [word_to_affine((s,), n) for s in jset]
    seen = {AffineWeylElt.identity(n)}
    frontier = list(seen)
    while frontier:
        nxt = []
        for u in frontier:
            for g in gens:
                ug = u.compose(g)
                if ug not in seen:
                    seen.add(ug)
                    nxt.append(ug)
        frontier = nxt
    return seen


@pytest.mark.parametrize("n, codim", [(2, 1), (3, 1), (3, 2), (4, 1), (4, 2)])
@pytest.mark.parametrize("side", ["+", "-"])
def test_project_twin_independent_gate_check(n, codim, side):
    """The twin gate contains the face, sits at the unique longest element
    of codelta(c, d) W_J (W_J enumerated from words), and every other
    sampled chamber of a residue panel through it is strictly closer to c
    in codistance."""
    rng = random.Random(1000 * n + 10 * codim + (side == "+"))
    other = "-" if side == "+" else "+"
    params = (GaussRat(0), GaussRat(1), GaussRat(-1), GaussRat(0, 1), INF)
    for _ in range(3):
        d = rand_chamber(rng, n, side, maxlen=4)
        c = rand_chamber(rng, n, other, maxlen=4)
        dropped = rng.sample(range(n), codim)
        x = d.face(set(range(n)) - set(dropped))
        gate = project_twin(x, c)
        assert gate.side == side
        assert x.classes <= gate.classes

        w = codelta(c, d)
        coset = [w.compose(u) for u in parabolic_elements(x.cotype_nodes(), n)]
        top = max(v.length() for v in coset)
        (longest,) = [v for v in coset if v.length() == top]
        assert codelta(c, gate) == longest

        for p in dropped:
            pan = gate.panel(p)
            for t in params:
                e = panel_chamber(pan, t)
                if e != gate:
                    assert codelta(c, e).length() < top


def test_project_twin_residue_rank_two():
    """Gate of a vertex residue (rank 2 for n = 3): the result's
    codistance dominates sampled chambers of the residue."""
    rng = random.Random(103)
    n = 3
    cm, cp = rand_opposite_pair(rng, n)
    x = cp.face({0})
    e = project_twin(x, cm)
    lbest = codelta(cm, e).length()
    assert x.classes <= e.classes
    for _ in range(12):
        w = word_to_affine(
            tuple(rng.choice(x.cotype_nodes()) for _ in range(rng.randint(0, 3))), n
        )
        d = chamber_from_basis("+", cp.rep @ weyl_matrix(w))
        assert x.classes <= d.classes
        assert codelta(cm, d).length() <= lbest


# ---------------------------------------------------------------------------
# apartments
# ---------------------------------------------------------------------------


def test_apartment_identity_is_base_chamber():
    rng = random.Random(107)
    g = rand_sl(rng, 3)
    assert apartment_chambers(g, ()) == chamber_from_basis("+", g)
    assert apartment_chambers(g, (), "-") == chamber_from_basis("-", g)


def test_apartment_delta_exhaustive():
    """delta(apartment(1), apartment(w)) = w for all l(w) <= 6, n = 3."""
    n = 3
    basis = LMat.identity(n)
    c0 = apartment_chambers(basis, ())
    for w in elements_up_to(n, 6):
        assert delta(c0, apartment_chambers(basis, w)) == w


def test_apartment_affine_a1_alternation():
    """n = 2: apartment chambers along the line alternate generators."""
    basis = LMat.identity(2)
    c0 = apartment_chambers(basis, ())
    for start in (1, 2):
        word = []
        for k in range(6):
            word.append(start if k % 2 == 0 else 3 - start)
            d = apartment_chambers(basis, tuple(word))
            got = delta_word(c0, d)
            assert got == tuple(word)


# ---------------------------------------------------------------------------
# common basis, coordinates
# ---------------------------------------------------------------------------


def test_common_basis_reproduces_pair():
    rng = random.Random(109)
    for _ in range(15):
        n = rng.choice([2, 3])
        x = rand_sl(rng, n)
        cm = chamber_from_basis("-", x @ rand_borel(rng, n, "-"))
        cp = chamber_from_basis("+", x @ rand_borel(rng, n, "+"))
        y = common_basis(cm, cp)
        assert chamber_from_basis("-", y) == cm
        assert chamber_from_basis("+", y) == cp


def test_common_basis_rejects_non_opposite():
    cm = standard_chamber("-", 2)
    cp = chamber_from_basis("+", weyl_matrix(word_to_affine((1,), 2)))
    assert not opposite(cm, cp)
    with pytest.raises(DomainError):
        common_basis(cm, cp)


def test_encode_identity_empty():
    cm = standard_chamber("-", 3)
    cp = standard_chamber("+", 3)
    assert encode_coords(cp, cm, cp) == []
    assert decode_coords(cp, cm, (), []) == cp


def test_encode_decode_round_trip():
    rng = random.Random(113)
    for _ in range(40):
        n = rng.choice([2, 3])
        cm, cp = rand_opposite_pair(rng, n)
        w = word_to_affine(rand_affine_word(rng, n, 6), n)
        e = chamber_from_basis(
            "+", cp.rep @ rand_borel(rng, n, "+") @ weyl_matrix(w)
        )
        word = delta_word(cp, e)
        coords = encode_coords(cp, cm, e)
        assert len(coords) == len(word)
        assert decode_coords(cp, cm, word, coords) == e


def test_encode_decode_round_trip_n4():
    rng = random.Random(127)
    for _ in range(4):
        n = 4
        cm, cp = rand_opposite_pair(rng, n)
        w = word_to_affine(rand_affine_word(rng, n, 4), n)
        e = chamber_from_basis("+", cp.rep @ weyl_matrix(w))
        word = delta_word(cp, e)
        coords = encode_coords(cp, cm, e)
        assert decode_coords(cp, cm, word, coords) == e


def test_encode_respects_caller_word():
    """A non-normal-form reduced word walks a different gallery but the
    round trip still closes."""
    n = 3
    cm = standard_chamber("-", n)
    cp = standard_chamber("+", n)
    w = word_to_affine((1, 2), n)
    e = chamber_from_basis("+", weyl_matrix(w))
    for word in ((1, 2),):
        coords = encode_coords(cp, cm, e, word)
        assert decode_coords(cp, cm, word, coords) == e


def test_encode_rejects_wrong_or_unreduced_word():
    n = 2
    cm = standard_chamber("-", n)
    cp = standard_chamber("+", n)
    e = chamber_from_basis("+", weyl_matrix(word_to_affine((1,), n)))
    with pytest.raises(DomainError):
        encode_coords(cp, cm, e, (2,))
    with pytest.raises(DomainError):
        encode_coords(cp, cm, e, (1, 2, 2))


def test_decode_injective_over_coordinates():
    """Distinct coordinate tuples decode to distinct chambers of the cell
    (the coordinatization is bijective on all of Q(i)^l): every drawn
    tuple, 0 included, lands in the cell and encodes back."""
    rng = random.Random(131)
    n = 3
    cm = standard_chamber("-", n)
    cp = standard_chamber("+", n)
    word = (1, 2, 3)
    assert word_to_affine(word, n).length() == 3
    seen = {}
    pool = [GaussRat(0), GaussRat(1), GaussRat(-1), GaussRat(0, 1), GaussRat(2)]
    for _ in range(25):
        coords = [rng.choice(pool) for _ in word]
        e = decode_coords(cp, cm, word, coords)
        assert delta_word(cp, e) == word
        assert encode_coords(cp, cm, e, word) == coords
        key = tuple(coords)
        for other, ch in seen.items():
            if other != key:
                assert ch != e
        seen[key] = e
    assert len(seen) >= 10


def test_decode_output_reachable_by_unimodular_element():
    """The decoded chamber's basis can be rescaled to determinant 1, so a
    group element maps the standard chamber onto it."""
    rng = random.Random(137)
    n = 3
    cm = standard_chamber("-", n)
    cp = standard_chamber("+", n)
    word = (1, 2)
    coords = [GaussRat(1), GaussRat(0, 1)]
    e = decode_coords(cp, cm, word, coords)
    d = e.rep.det()
    c = d.coeff(0)
    g = e.rep @ LMat.diag(
        [LaurentPoly({0: c.inverse()})] + [LaurentPoly({0: GaussRat(1)})] * (n - 1)
    )
    assert g.det() == LP_ONE
    assert chamber_from_basis("+", g) == e


def test_twinposition_fields_serializable():
    cp = standard_chamber("+", 3)
    pos = simplex_delta(cp.face({0, 1}), cp.face({0}))
    assert isinstance(pos.left, tuple)
    assert isinstance(pos.word, tuple)
    assert isinstance(pos.right, tuple)


def dense_basis(rng, n):
    """A determinant-one basis with every entry filled: 2n elementary
    factors c*z^d (d in -1..1) at positions that sweep the whole matrix."""
    m = LMat.identity(n)
    for k in range(2 * n):
        i, j = k % n, (k + 1 + k // n) % n
        if i == j:
            j = (j + 1) % n
        if k % 2:
            i, j = j, i
        c = rand_gauss(rng) or GaussRat(1)
        m = m @ elementary(n, i, j, LaurentPoly({rng.randint(-1, 1): c}))
    return m


@pytest.mark.parametrize("n", [8, 9])
def test_planted_recovery_on_dense_bases_at_large_n(n):
    """delta, codelta and opposite recover a planted Weyl element between
    dense bases x and x n_w b; at these sizes every Chamber, det and
    inverse is a full n x n Laurent computation."""
    rng = random.Random(8000 + n)
    for side in "+-":
        x = dense_basis(rng, n)
        w = word_to_affine(rand_affine_word(rng, n, n + 2), n)
        y = x @ weyl_matrix(w) @ rand_borel(rng, n, side)
        assert delta(chamber_from_basis(side, x), chamber_from_basis(side, y)) == w
    x = dense_basis(rng, n)
    w = word_to_affine(rand_affine_word(rng, n, n + 2), n)
    cm = chamber_from_basis("-", x @ rand_borel(rng, n, "-"))
    cp = chamber_from_basis("+", x @ weyl_matrix(w) @ rand_borel(rng, n, "+"))
    assert codelta(cm, cp) == w
    assert opposite(cm, cp) == (w == AffineWeylElt.identity(n))
    assert opposite(cm, chamber_from_basis("+", x @ rand_borel(rng, n, "+")))


# ---------------------------------------------------------------------------
# chambers the library builds, and the inverse a chamber keeps
# ---------------------------------------------------------------------------


def assert_built_as_validated(g):
    """A chamber that skipped the determinant check and the alignment has
    a constant unit determinant, and the validating constructor changes
    neither the chamber nor its representative."""
    det = g.rep.det()
    assert det.is_unit_monomial() and set(det.coeffs) == {0}
    again = Chamber(g.side, g.rep)
    assert again == g
    assert again.rep == g.rep


def assert_built_chambers(rng, n, dense):
    """Every gate of project and project_twin, the normalised common basis
    and a decoded chamber, on random chambers (dense bases when asked)."""
    def chamber(side):
        if not dense:
            return rand_chamber(rng, n, side)
        x = dense_basis(rng, n)
        w = word_to_affine(rand_affine_word(rng, n, n + 1), n)
        return chamber_from_basis(side, x @ weyl_matrix(w) @ rand_borel(rng, n, side))

    side = rng.choice("+-")
    other = "-" if side == "+" else "+"
    d = chamber(side)
    kept = rng.sample(range(n), rng.randint(1, n - 1))
    assert_built_as_validated(project(d.face(kept), chamber(side)))
    assert_built_as_validated(project_twin(d.face(kept), chamber(other)))
    if dense:
        x = dense_basis(rng, n)
        cm = chamber_from_basis("-", x @ rand_borel(rng, n, "-"))
        cp = chamber_from_basis("+", x @ rand_borel(rng, n, "+"))
    else:
        cm, cp = rand_opposite_pair(rng, n)
    word = affine_to_word(word_to_affine(rand_affine_word(rng, n, 5), n))
    assert_built_as_validated(_common_chamber(cm, cp))
    assert_built_as_validated(decode_coords(cp, cm, word, [rand_gauss(rng) for _ in word]))


@settings(max_examples=40, derandomize=True, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.sampled_from([2, 3, 4]))
def test_built_chambers_match_the_validating_constructor(seed, n):
    assert_built_chambers(random.Random(seed), n, dense=False)


def test_built_chambers_match_the_validating_constructor_on_dense_bases():
    rng = random.Random(2105)
    for _ in range(2):
        assert_built_chambers(rng, 5, dense=True)


@pytest.mark.parametrize(
    "entries",
    [
        ["z", "1", "1"],          # det z: rotated on both sides
        ["z^-1", "z^2", "1"],     # det z: rotated on both sides
        ["z", "z", "z"],          # det z^3: scaled, not rotated
        ["2", "1", "(i)"],        # constant det 2i: kept as it is
        ["1", "1", "1"],
        ["z^-5", "1", "1"],       # det z^-5: rotated and scaled
        ["z^4", "z", "(i)"],      # det i z^5
    ],
)
def test_chamber_inverse_is_the_inverse_of_its_representative(entries):
    """The inverse a chamber keeps is rep^{-1} of its aligned
    representative, also where alignment rotated or scaled the basis (the
    minor chain of the basis as given inverts that basis, and its rows are
    then moved)."""
    rng = random.Random(len("".join(entries)))
    g = rand_sl(rng, 3) @ LMat.diag([P(e) for e in entries])
    for side in "+-":
        c = chamber_from_basis(side, g)
        inv = c._inverse()
        assert inv == c.rep.inv()
        assert c.rep @ inv == LMat.identity(3)
        assert c._inverse() is inv


def test_an_unaligned_chamber_builds_one_minor_chain(monkeypatch):
    """Building a chamber whose basis needs alignment and inverting it
    takes the top minor chain once: the inverse of the basis as given
    comes from the chain of its determinant check, then moves rows."""
    calls = []
    top_minors = exactalg._top_minors

    def counted(rows):
        calls.append(None)
        return top_minors(rows)

    monkeypatch.setattr(exactalg, "_top_minors", counted)
    monkeypatch.setattr(building, "_top_minors", counted)
    for side in "+-":
        calls.clear()
        c = chamber_from_basis(side, LMat.diag([P("z^3"), LP_ONE]))
        c._inverse()
        assert len(calls) == 1


def test_chamber_inverse_on_dense_bases():
    rng = random.Random(2106)
    x = dense_basis(rng, 5)
    for k in range(5):
        g = x @ LMat.diag([Z] * k + [LP_ONE] * (5 - k))
        for side in "+-":
            c = chamber_from_basis(side, g)
            assert c.rep @ c._inverse() == LMat.identity(5)


def test_minor_table_passes_per_operation(monkeypatch):
    """One delta on determinant-one dense bases at n = 5 builds the top
    minor chain of each chamber once (4 + 4 passes of _extend_minors: a
    chain starts at its first row's entries) and the bottom chain of the
    first chamber's inverse (3, from the last row up to row 1), which
    reuses the first chamber's top chain.  One project makes as many
    passes: the gate is a product of aligned factors and takes no
    determinant."""
    rng = random.Random(2107)
    n = 5
    x = dense_basis(rng, n)
    w = word_to_affine(rand_affine_word(rng, n, n + 2), n)
    y = x @ weyl_matrix(w) @ rand_borel(rng, n, "+")
    passes = []
    extend = exactalg._extend_minors

    def counted(table, row):
        passes.append(None)
        return extend(table, row)

    monkeypatch.setattr(exactalg, "_extend_minors", counted)
    delta(chamber_from_basis("+", x), chamber_from_basis("+", y))
    assert len(passes) == 11
    passes.clear()
    c, d = chamber_from_basis("+", x), chamber_from_basis("+", y)
    project(d.panel(1), c)
    assert len(passes) == 11


# ---------------------------------------------------------------------------
# Carried inverses and the engine's factors
# ---------------------------------------------------------------------------


CARRY_PARAMS = [
    GaussRat(0), GaussRat(1), GaussRat(-1), GaussRat(0, 1), GaussRat(Fraction(2, 3)), INF
]


def assert_carried(chamber):
    assert chamber._inv is None and chamber._inv_of is not None
    assert chamber.rep @ chamber._inverse() == LMat.identity(chamber.n)


@settings(max_examples=30, derandomize=True, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.sampled_from([2, 3, 4]))
def test_carried_inverses_invert_the_representative(seed, n):
    """Every chamber the library builds carries rep^{-1}: the gates of
    project and project_twin (also of a face of a gate), the common basis,
    the decoded chambers (coordinates 0, INF and random), and the panel
    chambers at fixed parameters, the swap block carrier n_s at t = 0
    among them, on both sides.
    The caller's chambers are inverted first; after that no minor-table
    inverse is taken."""
    rng = random.Random(seed)
    side = rng.choice("+-")
    other = "-" if side == "+" else "+"
    d, c, c2 = (rand_chamber(rng, n, s) for s in (side, side, other))
    cm, cp = rand_opposite_pair(rng, n)
    word = affine_to_word(word_to_affine(rand_affine_word(rng, n, 5), n))
    for validated in (d, c, c2, cm, cp):
        validated._inverse()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(LMat, "_inv_from", None)
        kept = rng.sample(range(n), rng.randint(1, n - 1))
        gate = project(d.face(kept), c)
        built = [
            gate,
            project_twin(d.face(kept), c2),
            project(gate.panel(rng.randrange(n)), d),
            project_twin(gate.face(kept), c2),
        ]
        built.append(_common_chamber(cm, cp))
        pool = [GaussRat(0), INF, rand_gauss(rng)]
        decoded = [
            decode_coords(cp, cm, word, [rng.choice(pool) for _ in word]) for _ in range(3)
        ]
        built += decoded
        swaps = 0
        for carrier in (d, gate, decoded[-1]):
            for gap in range(n):
                panel = carrier.panel(gap)
                chart = PanelChart(carrier, gap)
                swap = carrier.rep @ weyl_matrix(word_to_affine(panel.cotype_nodes(), n))
                for t in CARRY_PARAMS:
                    swaps += chart.chamber_basis(t) == swap
                    built.append(panel_chamber(panel, t))
        assert swaps >= 3 * n
        for chamber in built:
            assert_carried(chamber)


def test_round_trip_inverts_only_the_callers_chambers(monkeypatch):
    """encode then decode at n = 2, 3 (words of length 2), and the final
    comparison, take the minor-table inverse of cp (the common basis's
    inverse, for the engine run of encode) only, once: dm and cp share
    one basis, so the common basis's engine run is on 1 and inverts
    nothing; e is never the left chamber of an engine run, and every
    chamber the library builds carries its inverse.  The minor table
    stays the oracle for validated chambers (see
    test_minor_table_passes_per_operation)."""
    rng = random.Random(2801)
    inverted = []
    inv_from = LMat._inv_from

    def counted(self, top):
        inverted.append(self)
        return inv_from(self, top)

    monkeypatch.setattr(LMat, "_inv_from", counted)
    for n in (2, 3):
        for word in [(1, 2), (2, 1), (n, 1), (1, n)]:
            cm, cp = rand_opposite_pair(rng, n)
            w = word_to_affine(word, n)
            e = chamber_from_basis("+", cp.rep @ rand_borel(rng, n, "+") @ weyl_matrix(w))
            inverted.clear()
            coords = encode_coords(cp, cm, e, word)
            assert decode_coords(cp, cm, word, coords) == e
            assert len(inverted) == 1
            assert {id(m) for m in inverted} == {id(cp.rep)}


def engine_on_the_product(c, d, reduce=building._reduce):
    """The oracle route of _relpos: the minor-table (or carried) inverse
    of c times d.rep, then the engine (``reduce``), with no shortcut for
    equal representatives.  Returns (u, the reduced columns, leads, ops)."""
    n = c.n
    cols = [list(col) for col in zip(*(c._inverse() @ d.rep).rows)]
    leads, ops = reduce(cols, c.side == "+", d.side == "+")
    u = tuple(i + 1 - n * e for e, i, _ in leads)
    return u, cols, leads, ops


def full_rescan_reduce(cols, key_plus, ops_plus):
    """The reduction engine as it was before it kept its leads, the oracle
    of building._reduce: every pass scans every column (building._lead),
    then the admissible column of the first clashing row reduces the
    others."""
    ops = []
    while True:
        leads = [building._lead(c, key_plus) for c in cols]
        byrow = {}
        for j, (e, i, _) in enumerate(leads):
            byrow.setdefault(i, []).append(j)
        clash = next((js for js in byrow.values() if len(js) > 1), None)
        if clash is None:
            return leads, ops
        if ops_plus:
            jr = min(clash, key=lambda j: (leads[j][0], j))
        else:
            jr = min(clash, key=lambda j: (-leads[j][0], -j))
        er, _, cr = leads[jr]
        for j2 in clash:
            if j2 != jr:
                e2, _, c2 = leads[j2]
                f = LaurentPoly({e2 - er: c2 / cr})
                cols[j2] = exactalg._col_sub(cols[j2], f, cols[jr])
                ops.append((j2, f, jr))


@settings(max_examples=150, derandomize=True, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(2, 5),
    sides=st.sampled_from(["++", "+-", "-+", "--"]),
    planted=st.booleans(),
)
def test_the_engine_keeps_the_leads_a_full_rescan_finds(seed, n, sides, planted):
    """_relpos, whose engine rescans only the column an operation changed,
    returns the window, reduced columns, leads and operations of the
    full-rescan engine, on planted pairs (x b, x n_w b') and random pairs,
    with one _lead scan per column and one per operation, never more than
    the full rescan.  An operation beyond the oracle's count fails at once,
    so an engine whose leads go stale stops instead of looping."""
    rng = random.Random(seed)
    if planted:
        x = rand_sl(rng, n)
        w = word_to_affine(rand_affine_word(rng, n, n + 2), n)
        c = chamber_from_basis(sides[0], x @ rand_borel(rng, n, sides[0]))
        d = chamber_from_basis(sides[1], x @ weyl_matrix(w) @ rand_borel(rng, n, sides[1]))
    else:
        c, d = rand_chamber(rng, n, sides[0]), rand_chamber(rng, n, sides[1])
    c._inverse()
    scans, made = [], []
    lead, col_sub = building._lead, building._col_sub

    def counted(col, key_plus):
        scans.append(None)
        return lead(col, key_plus)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(building, "_lead", counted)
        want = engine_on_the_product(c, d, full_rescan_reduce)
        full = len(scans)

        def bounded(col_a, f, col_b):
            made.append(None)
            assert len(made) <= len(want[3]), "more operations than the full rescan"
            return col_sub(col_a, f, col_b)

        mp.setattr(building, "_col_sub", bounded)
        scans.clear()
        got = _relpos(c, d)
    event(f"operations: {min(len(want[3]), 4)}")
    assert got == want
    assert len(scans) == n + len(got[3]) <= full


def common_basis_by_the_product(cm, cp):
    """The oracle route of common_basis: x = cp.rep b, b the product of
    the engine's operations on cm.rep^{-1} cp.rep as elementary matrices,
    each column divided by its top-most nonzero entry at its lowest
    exponent."""
    n = cp.n
    _, _, _, ops = engine_on_the_product(cm, cp)
    x = cp.rep
    for j2, f, jr in ops:
        x = x @ elementary(n, jr, j2, -f)
    lc = [next(a.coeffs[a.val0()] for a in col if a) for col in x.cols()]
    return x @ LMat.diag([LaurentPoly({0: c.inverse()}) for c in lc])


@settings(max_examples=40, derandomize=True, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.sampled_from([2, 3, 4]),
    shift=st.integers(-2, 2),
    copy_rep=st.booleans(),
)
def test_equal_representatives_take_the_engine_on_one(seed, n, shift, copy_rep):
    """Chambers on one basis, on every pair of sides, are at the relative
    position the engine reads off c.rep^{-1} d.rep, in all four parts, with
    no inverse taken: also when the basis needed alignment (shift != 0,
    so each chamber moves its own columns) and when the two
    representatives are equal but distinct objects.  The common basis of
    such a pair is the one the product route gives."""
    rng = random.Random(seed)
    g = rand_sl(rng, n)
    if shift:
        g = g @ LMat.diag([zpow(shift)] + [LP_ONE] * (n - 1))
    for s1 in "+-":
        for s2 in "+-":
            c = chamber_from_basis(s1, g)
            d = chamber_from_basis(s2, LMat._of(g.rows) if copy_rep else g)
            assert c.rep == d.rep and (c.rep is not d.rep) == bool(shift or copy_rep)
            got = _relpos(c, d)
            assert c._inv is None and d._inv is None
            assert got == engine_on_the_product(c, d)
    cm = chamber_from_basis("-", g)
    cp = chamber_from_basis("+", LMat._of(g.rows) if copy_rep else g)
    assert common_basis(cm, cp) == common_basis_by_the_product(cm, cp)


def test_common_basis_of_a_pair_on_two_bases_is_the_product_route():
    rng = random.Random(3801)
    for n in (2, 3, 4):
        for _ in range(3):
            g = rand_sl(rng, n)
            cm = chamber_from_basis("-", g @ rand_borel(rng, n, "-"))
            cp = chamber_from_basis("+", g @ rand_borel(rng, n, "+"))
            assert cm.rep != cp.rep
            assert common_basis(cm, cp) == common_basis_by_the_product(cm, cp)


def test_a_round_trip_on_one_basis_inverts_and_multiplies_once(monkeypatch):
    """encode then decode over a pair on one basis take one minor-table
    inverse, cp's (for x's carried inverse), and one Laurent product,
    x^{-1} e.rep: the common basis's engine run is on 1.  A pair on two
    bases (cm = g b-) still takes two of each: cm's inverse and
    cm.rep^{-1} cp.rep for the common basis."""
    inverted, products = [], []
    inv_from, matmul = LMat._inv_from, LMat.__matmul__

    def counted_inv(self, top):
        inverted.append(self)
        return inv_from(self, top)

    def counted_matmul(self, other):
        products.append(None)
        return matmul(self, other)

    # A chamber binds its _inv_from when it is built.
    monkeypatch.setattr(LMat, "_inv_from", counted_inv)
    rng = random.Random(3802)
    for n in (2, 3):
        for word in [(1, 2), (2, 1), (n, 1), (1, n)]:
            one = rand_opposite_pair(rng, n)
            g = rand_sl(rng, n)
            two = chamber_from_basis("-", g @ rand_borel(rng, n, "-")), chamber_from_basis("+", g)
            for (cm, cp), count in ((one, 1), (two, 2)):
                w = word_to_affine(word, n)
                e = chamber_from_basis("+", cp.rep @ rand_borel(rng, n, "+") @ weyl_matrix(w))
                inverted.clear()
                products.clear()
                with monkeypatch.context() as mp:
                    mp.setattr(LMat, "__matmul__", counted_matmul)
                    back = decode_coords(cp, cm, word, encode_coords(cp, cm, e, word))
                assert back == e
                assert (len(inverted), len(products)) == (count, count)
                want = [cp.rep] if count == 1 else [cm.rep, cp.rep]
                assert [id(m) for m in inverted] == [id(m) for m in want]


def test_coordinates_are_read_up_to_a_constant_right_diagonal():
    """_read gives the same coordinates off the engine's columns of r and
    of r D, for a random constant invertible diagonal D (the lead
    coefficients scaled to match): on cell coordinates (plus side) and on
    panel parameters (both sides)."""
    rng = random.Random(3803)
    cases = []
    for n in (2, 3):
        for _ in range(4):
            cm, cp = rand_opposite_pair(rng, n)
            w = word_to_affine(rand_affine_word(rng, n, 5), n)
            e = chamber_from_basis("+", cp.rep @ rand_borel(rng, n, "+") @ weyl_matrix(w))
            cases.append((_relpos(_common_chamber(cm, cp), e), delta_word(cp, e), "+"))
            for side in "+-":
                carrier = rand_chamber(rng, n, side)
                panel = carrier.panel(rng.randrange(n))
                c = panel_chamber(panel, rand_gauss(rng))
                cases.append((_relpos(carrier, c), panel.cotype_nodes(), side))
    for (u, cols, leads, ops), word, side in cases:
        scale = [rand_gauss(rng) or GaussRat(1) for _ in u]
        cols_d = [[a * k for a in col] for col, k in zip(cols, scale)]
        leads_d = [(e, i, c * k) for (e, i, c), k in zip(leads, scale)]
        got = list(building._read((u, cols_d, leads_d, ops), word, side))
        assert got == list(building._read((u, cols, leads, ops), word, side))
        assert len(got) == len(word)


def round_trip_case(rng, n, word):
    cm, cp = rand_opposite_pair(rng, n)
    w = word_to_affine(word, n)
    e = chamber_from_basis("+", cp.rep @ rand_borel(rng, n, "+") @ weyl_matrix(w))
    return cm, cp, e


def test_round_trip_runs_the_engine_twice(monkeypatch):
    """encode then decode at n = 2, 3 (words of length 2) run the engine
    twice and build no panel chart: encode takes one run for the common
    basis and one on (x, e) for all of its coordinates; decode reuses the
    common basis cp kept and only moves and combines columns."""
    rng = random.Random(2901)
    runs, charts = [], []
    relpos, chart_init = building._relpos, PanelChart.__init__

    def counted_relpos(c, d):
        runs.append(None)
        return relpos(c, d)

    def counted_chart(self, carrier, gap):
        charts.append(None)
        chart_init(self, carrier, gap)

    monkeypatch.setattr(building, "_relpos", counted_relpos)
    monkeypatch.setattr(PanelChart, "__init__", counted_chart)
    for n in (2, 3):
        for word in [(1, 2), (2, 1), (n, 1), (1, n)]:
            cm, cp, e = round_trip_case(rng, n, word)
            runs.clear()
            charts.clear()
            back = decode_coords(cp, cm, word, encode_coords(cp, cm, e, word))
            assert (len(runs), len(charts)) == (2, 0)
            assert back == e


def test_each_letter_and_each_panel_chamber_is_one_root_step(monkeypatch):
    """The root-group step is lattice's, taken once per use: a decode of k
    letters makes k column steps (an INF letter none), a panel chamber
    one (the carrier itself at INF none), and panel_parameter reads its
    parameter off its one engine run, the containment check."""
    steps, runs = [], []
    root_cols, relpos = lattice._root_cols, building._relpos

    def counted_cols(cols, s, t, side):
        steps.append(s)
        root_cols(cols, s, t, side)

    def counted_relpos(c, d):
        runs.append(None)
        return relpos(c, d)

    for owner in (lattice, building):
        monkeypatch.setattr(owner, "_root_cols", counted_cols)
    monkeypatch.setattr(building, "_relpos", counted_relpos)
    rng = random.Random(3301)
    n = 3
    cm, cp = rand_opposite_pair(rng, n)
    for word in [(1,), (3, 1), (1, 2, 3), (1, 2, 3, 1)]:
        steps.clear()
        decode_coords(cp, cm, word, [rand_gauss(rng) for _ in word])
        assert steps == list(word)
        steps.clear()
        decode_coords(cp, cm, word, [INF] + [GaussRat(1)] * (len(word) - 1))
        assert steps == list(word[1:])
    for side in "+-":
        carrier = chamber_from_basis(side, rand_sl(rng, n))
        for gap in range(n):
            panel = carrier.panel(gap)
            for t in (GaussRat(0), GaussRat(2, 3), INF):
                steps.clear()
                c = panel_chamber(panel, t)
                assert steps == ([] if t == INF else list(panel.cotype_nodes()))
                runs.clear()
                assert panel_parameter(panel, c) == t
                assert len(runs) == 1


def test_a_long_gallery_of_carried_inverses_is_walked_without_recursion():
    """decode_coords on a word of length 600 builds one chamber, on the
    common basis, and forces no inverse; its inverse is 600 row
    operations and row moves on the common basis's, taken in a loop: it
    inverts the representative exactly, and no step recurses."""
    n, length = 2, 600
    word = tuple((1, 2)[k % 2] for k in range(length))
    cp, cm = standard_chamber("+", n), standard_chamber("-", n)
    e = decode_coords(cp, cm, word, [GaussRat(1)] * length)
    assert e._inv is None and e._base is cp._twin[1]
    assert e.rep @ e._inverse() == LMat.identity(n)
    assert delta(e, cp).length() == length


def test_built_chambers_pickle_with_their_inverse():
    rng = random.Random(2803)
    cm, cp = rand_opposite_pair(rng, 3)
    e = rand_chamber(rng, 3, "+")
    gate = project(cp.panel(1), e)
    built = [gate, panel_chamber(gate.panel(0), GaussRat(1)), _common_chamber(cm, cp)]
    for chamber in built:
        twin = pickle.loads(pickle.dumps(chamber))
        assert twin == chamber
        assert twin.rep @ twin._inverse() == LMat.identity(3)


@pytest.mark.parametrize("sides", ["++", "+-", "-+", "--"])
def test_recorded_operations_give_b_and_its_inverse(sides):
    """The operations of one engine run, replayed on the columns of 1,
    give bruhat_factors' b with a b = r, r the matrix of the engine's
    columns; replayed as row operations they give b^{-1} (the
    minor-table inverse)."""
    rng = random.Random(2802)
    for n in (2, 3, 4):
        c, d = rand_chamber(rng, n, sides[0]), rand_chamber(rng, n, sides[1])
        _, cols, _, ops = _relpos(c, d)
        r = LMat.from_cols(cols)
        b_l, w, t, b = bruhat_factors(c, d)
        assert c.rep.inv() @ d.rep @ b == r == b_l @ weyl_matrix(w) @ t
        assert LMat._of(_replay_rows(ops, list(LMat.identity(n).rows))) == b.inv()
        assert borel_membership(sides[1], b)


# ---------------------------------------------------------------------------
# Monomial right factors are column moves
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("side", "+-")
def test_alignment_keeps_the_chamber_and_its_types(side):
    """A basis of determinant valuation d (every residue mod n), also
    scaled by a z-power, is aligned to the same chamber: its chain classes
    are the basis's vertex classes, and chain position p carries type p.
    A basis that needs no move is kept as it is."""
    rng = random.Random(2601)
    for n in (2, 3, 4):
        for d in range(n):
            for k in (0, 1, -2):
                if not (d or k):
                    g = rand_sl(rng, n)
                    assert chamber_from_basis(side, g).rep is g
                    continue
                g = rand_sl(rng, n) @ LMat.diag([Z] * d + [LP_ONE] * (n - d))
                g = g.scale(zpow(k))
                c = chamber_from_basis(side, g)
                assert c.rep.det().val0() == 0
                assert set(c.chain_classes) == set(vertex_classes_of_basis(side, g))
                assert [cls.type for cls in c.chain_classes] == list(range(n))


def is_monomial(m):
    """One nonzero entry per row and column, each of the form c*z^k."""
    entries = [(i, j) for i, row in enumerate(m.rows) for j, a in enumerate(row) if a]
    return (
        m.nrows == m.ncols
        and len(entries) == m.nrows
        and {i for i, _ in entries} == set(range(m.nrows))
        and {j for _, j in entries} == set(range(m.ncols))
        and all(m[i, j].is_unit_monomial() for i, j in entries)
    )


def test_no_monomial_right_factor_goes_through_matmul(monkeypatch):
    """encode_coords, decode_coords, project and project_twin multiply by
    n_w, by the chain shift and by the engine's lead monomials by moving
    columns: no right operand of LMat.__matmul__ is a monomial matrix."""
    rng = random.Random(2602)
    cases = []
    for n in (2, 3):
        for _ in range(3):
            cm, cp = rand_opposite_pair(rng, n)
            w = word_to_affine(rand_affine_word(rng, n, 5), n)
            e = chamber_from_basis("+", cp.rep @ rand_borel(rng, n, "+") @ weyl_matrix(w))
            cases.append((cm, cp, e, delta_word(cp, e), rand_chamber(rng, n, "-")))
    rights = []
    matmul = LMat.__matmul__

    def recorded(self, other):
        rights.append(other)
        return matmul(self, other)

    monkeypatch.setattr(LMat, "__matmul__", recorded)
    for cm, cp, e, word, d in cases:
        coords = encode_coords(cp, cm, e)
        assert decode_coords(cp, cm, word, coords) == e
        for t in range(cp.n):
            project(e.panel(t), cp)
            project_twin(d.panel(t), cp)
            project_twin(cp.panel(t), d)
    assert rights
    assert not [m for m in rights if is_monomial(m)]


# ---------------------------------------------------------------------------
# One engine run per gallery, and the common basis an opposite pair keeps
# ---------------------------------------------------------------------------


def random_reduced_word(rng, n, length):
    """A random reduced word of the given length, not only normal forms:
    each letter is drawn among those that lengthen the word so far."""
    word = ()
    while len(word) < length:
        ups = [
            s for s in range(1, n + 1)
            if word_to_affine(word + (s,), n).length() == len(word) + 1
        ]
        word += (rng.choice(ups),)
    return word


def project_walk(c, e, word):
    """The minimal gallery of type word from c to e, one gate per letter:
    the chamber after a letter is the gate of e onto the panel that the
    letter moves of the chamber before it (one engine run per letter)."""
    for s in word:
        c = project(panel_of(c, s), e)
        yield c


def one_run_gallery(e, rel, word):
    """The chambers after each letter of the minimal gallery of type word
    from c to e, for rel = _relpos(c, e) and a reduced word for delta(c,
    e): the k-th is the gate at the k-th prefix of the word in the
    apartment of c and e that the engine run reads off, built on e."""
    n = e.n
    prefix = widentity(n)
    for s in word:
        prefix = wcompose(prefix, wgen(s, n))
        yield _gate(e.side, e, rel, prefix)


@settings(max_examples=40, derandomize=True, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.sampled_from([2, 3, 4]),
    length=st.integers(0, 5),
    dense=st.booleans(),
)
def test_one_run_gallery_is_the_projection_walk(seed, n, length, dense):
    """Every chamber of the gallery read off one engine run of delta(c, e)
    is the chamber the per-letter projection walk reaches, on both sides,
    for random reduced words and random or dense bases."""
    rng = random.Random(seed)
    side = rng.choice("+-")
    word = random_reduced_word(rng, n, length)
    x = dense_basis(rng, n) if dense else rand_sl(rng, n)
    c = chamber_from_basis(side, x @ rand_borel(rng, n, side))
    e = chamber_from_basis(
        side, x @ weyl_matrix(word_to_affine(word, n)) @ rand_borel(rng, n, side)
    )
    gallery = list(one_run_gallery(e, _relpos(c, e), word))
    walk = list(project_walk(c, e, word))
    assert len(gallery) == len(walk) == len(word)
    for k, (g, h) in enumerate(zip(gallery, walk)):
        assert g == h
        assert delta(c, g) == word_to_affine(word[: k + 1], n)
    if word:
        assert gallery[-1] == e


def fresh(chamber):
    return chamber_from_basis(chamber.side, chamber.rep)


@settings(max_examples=30, derandomize=True, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.sampled_from([2, 3, 4]),
    length=st.integers(0, 4),
)
def test_encode_is_the_checked_projection_walk(seed, n, length):
    """The coordinates encode_coords reads off one engine run walk the
    minimal gallery from cp to e: the first k of them decode to the
    chamber after k letters of the per-letter projection walk, which
    checks each step (one gate per letter)."""
    rng = random.Random(seed)
    word = random_reduced_word(rng, n, length)
    cm, cp, e = round_trip_case(rng, n, word)
    coords = encode_coords(cp, cm, e, word)
    for k, g in enumerate(project_walk(cp, e, word), 1):
        assert delta(cp, g) == word_to_affine(word[:k], n)
        assert decode_coords(cp, cm, word[:k], coords[:k]) == g


def test_a_kept_twin_apartment_gives_what_fresh_chambers_give():
    """cp reused with a second minus chamber, or with a second reduced
    word for the same distance, gives the coordinates and the chamber
    that fresh chambers of the same bases give."""
    rng = random.Random(2902)
    n = 3
    for words in [((1, 2, 1), (2, 1, 2)), ((3, 1, 3), (1, 3, 1))]:
        cm, cp, e = round_trip_case(rng, n, words[0])
        x = common_basis(cm, cp)
        cm2 = chamber_from_basis("-", x @ rand_borel(rng, n, "+"))
        assert opposite(cm2, cp) and cm2 != cm
        for dm in (cm, cm2, cm):
            for word in words + words[:1]:
                coords = encode_coords(cp, dm, e, word)
                assert coords == encode_coords(fresh(cp), fresh(dm), fresh(e), word)
                assert cp._twin[0] is dm
                back = decode_coords(cp, dm, word, coords)
                assert back == e
                assert back.rep == decode_coords(fresh(cp), fresh(dm), word, coords).rep
        other = words[1]
        coords = encode_coords(cp, cm, e, words[0])
        assert decode_coords(cp, cm, other, encode_coords(cp, cm, e, other)) == e
        assert decode_coords(cp, cm, words[0], coords) == e


def test_a_pair_that_is_not_opposite_raises_and_keeps_nothing():
    n = 2
    cp = standard_chamber("+", n)
    e = chamber_from_basis("+", weyl_matrix(word_to_affine((1,), n)))
    near = chamber_from_basis("-", weyl_matrix(word_to_affine((1,), n)))
    for _ in range(2):
        with pytest.raises(DomainError, match="not opposite"):
            encode_coords(cp, near, e)
        with pytest.raises(DomainError, match="not opposite"):
            decode_coords(cp, near, (1,), [GaussRat(1)])
        assert cp._twin is None
    cm = standard_chamber("-", n)
    encode_coords(cp, cm, e)
    kept = cp._twin
    with pytest.raises(DomainError, match="not opposite"):
        encode_coords(cp, near, e)
    assert cp._twin is kept


def test_a_chamber_keeping_its_twin_apartment_pickles_and_copies():
    rng = random.Random(2903)
    n = 3
    word = (1, 2)
    cm, cp, e = round_trip_case(rng, n, word)
    coords = encode_coords(cp, cm, e, word)
    assert cp._twin is not None
    for twin in (pickle.loads(pickle.dumps(cp)), copy.copy(cp), copy.deepcopy(cp)):
        assert twin == cp and hash(twin) == hash(cp)
        assert twin.rep == cp.rep
        assert decode_coords(twin, cm, word, coords) == e
        assert encode_coords(twin, cm, e, word) == coords


def test_the_kept_common_basis_serves_every_word():
    """cp keeps only (dm, the common basis): one object for every word and
    every prefix, encode and decode alike, with nothing per word."""
    rng = random.Random(2904)
    n = 3
    cm, cp, e = round_trip_case(rng, n, (1, 2, 1))
    encode_coords(cp, cm, e)
    kept = cp._twin
    assert len(kept) == 2 and kept[0] is cm and kept[1] == cp
    for word in [(1, 2, 1), (2, 1, 2), (1, 2, 1)]:
        coords = encode_coords(cp, cm, e, word)
        *_, second = project_walk(cp, e, word[:2])
        assert decode_coords(cp, cm, word[:2], coords[:2]) == second
        assert cp._twin is kept
    decode_coords(cp, cm, (), [])
    assert cp._twin is kept


@pytest.mark.parametrize(
    "word, encode, decode",
    [((1, 2), True, False), ((1,), True, True), ((1, 2), True, True)],
)
def test_a_kept_twin_apartment_makes_no_reference_cycle(word, encode, decode):
    """What cp keeps holds no reference back to cp, so cp and its common
    basis are freed by reference counting, with no cycle collection,
    after an encode alone or a round trip of any length.  (A decode alone
    takes no inverse; see the next test.)"""
    rng = random.Random(2907)
    cm, cp, e = round_trip_case(rng, 3, word)
    enabled = gc.isenabled()
    gc.disable()
    try:
        gc.collect()
        coords = encode_coords(cp, cm, e, word) if encode else [GaussRat(1)] * len(word)
        if decode:
            decode_coords(cp, cm, word, coords)
        assert cp._twin[1]._base is None
        del cm, cp, e, coords
        assert gc.collect() == 0
    finally:
        if enabled:
            gc.enable()


def test_a_short_decode_on_a_fresh_pair_leaves_cp_uninverted():
    """A decode of any length needs no inverse of cp, so the common basis
    it keeps does not force one (it leaves the cycle through x's base to
    the collector); an encode that follows takes cp's inverse and then
    x's, dropping x's reference to cp.  For the empty word the decoded
    chamber's representative equals x's, so that encode is an engine run
    on 1 and takes no inverse at all."""
    rng = random.Random(2908)
    for word in [(), (1,), (3,), (1, 2), (3, 1, 2)]:
        cm, cp, e = round_trip_case(rng, 3, word)
        back = decode_coords(cp, cm, word, [GaussRat(1)] * len(word))
        assert cp._inv is None and cp._twin[0] is cm
        coords = encode_coords(cp, cm, back, word)
        if word:
            assert cp._inv is not None and cp._twin[1]._base is None
        else:
            assert back.rep == cp._twin[1].rep
            assert cp._inv is None and cp._twin[1]._base is cp
        assert coords == [GaussRat(1)] * len(word)


def test_panel_parameter_rejects_a_chamber_outside_the_panel():
    """Also a gate built on another carrier, or on this carrier but onto
    a larger face."""
    rng = random.Random(2906)
    n = 3
    cp, cm = standard_chamber("+", n), standard_chamber("-", n)
    panel = cp.panel(1)
    far = chamber_from_basis("+", weyl_matrix(word_to_affine((1, 2, 3), n)))
    elsewhere = project_twin(far.panel(1), cm)
    assert elsewhere._base is far
    on_face = project(cp.face([0]), far)
    assert on_face._base is cp and delta(cp, on_face).window not in (
        word_to_affine((), n).window,
        word_to_affine(panel.cotype_nodes(), n).window,
    )
    for c in (far, elsewhere, on_face, rand_chamber(rng, n, "+")):
        with pytest.raises(DomainError, match="does not contain the panel"):
            panel_parameter(panel, c)
    inside = project(panel, far)
    assert panel_parameter(panel, inside) == panel_parameter(panel, fresh(inside))


def test_coordinates_are_read_once_as_scalars():
    """int, Fraction and GaussRat coordinates go through GaussRat and INF
    stays the sentinel; a float, a str or a complex raises the scalar
    layer's TypeError naming the coordinate, not one from inside the
    chart."""
    n = 2
    cp, cm = standard_chamber("+", n), standard_chamber("-", n)
    with pytest.raises(TypeError, match="bad scalar: 0.5"):
        decode_coords(cp, cm, (1,), [0.5])
    panel = cp.panel(1)
    for bad in ("1", 0.5, 1j, None, -math.inf):
        with pytest.raises(TypeError, match="bad scalar"):
            panel_chamber(panel, bad)
    for t in (2, Fraction(2), GaussRat(2)):
        assert panel_chamber(panel, t).rep == panel_chamber(panel, GaussRat(2)).rep
    assert panel_parameter(panel, panel_chamber(panel, float("inf"))) is INF
    word = (1, 2)
    want = decode_coords(cp, cm, word, [GaussRat(1), GaussRat(Fraction(1, 2))])
    got = decode_coords(cp, cm, word, [1, Fraction(1, 2)])
    assert got.rep == want.rep
    assert encode_coords(cp, cm, got, word) == [GaussRat(1), GaussRat(Fraction(1, 2))]


# ---------------------------------------------------------------------------
# Root-group coordinates, and the chart walk they replaced
# ---------------------------------------------------------------------------
#
# Before root-group coordinates, encode_coords and decode_coords walked
# one P^1 panel chart per letter: the k-th coordinate was the chart
# parameter of the twin gate of the k-th gallery chamber onto the k-th
# reference panel (the s_k-panel of the chamber at the k-th prefix of the
# twin apartment's gallery from dm), and decode inverted the walk with one
# twin gate per letter.  The walk stays here as an independent oracle.


def reference_panels(dm, x, word):
    """The chart walk's reference panels: for each letter s of word, the
    s-panel of the minus chamber x n_v B-, v the prefix before s, in the
    twin apartment of the basis x (dm itself for the first letter)."""
    prefix = ()
    for s in word:
        d = apartment_chambers(x, prefix, "-") if prefix else dm
        yield panel_of(d, s)
        prefix += (s,)


def chart_encode(cp, dm, e, word):
    """The chart walk's coordinates of e: the checked chart parameter of
    the twin gate of each gallery chamber onto its reference panel."""
    panels = reference_panels(dm, common_basis(dm, cp), word)
    return [
        panel_parameter(panel, project_twin(panel, g))
        for g, panel in zip(project_walk(cp, e, word), panels)
    ]


def chart_walk(cp, dm, word, params):
    """The chart walk's decode, one chamber per letter: the twin gate of
    the panel chamber at the letter's parameter onto the letter's panel
    of the chamber before it."""
    c = cp
    panels = reference_panels(dm, common_basis(dm, cp), word)
    for s, panel, t in zip(word, panels, params):
        c = project_twin(panel_of(c, s), panel_chamber(panel, t))
        yield c


@settings(max_examples=30, derandomize=True, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.sampled_from([2, 3, 4]),
    length=st.integers(1, 3),
)
def test_root_decode_passes_through_the_chart_walk(seed, n, length):
    """The chamber after each letter of a root decode is the chamber at
    that step of the chart walk (and of the gallery one engine run reads
    off), because the minimal gallery of a reduced type from cp to e is
    unique; and the chart walk still inverts itself."""
    rng = random.Random(seed)
    word = random_reduced_word(rng, n, length)
    cm, cp = rand_opposite_pair(rng, n)
    coords = [rand_gauss(rng) for _ in word]
    e = decode_coords(cp, cm, word, coords)
    params = chart_encode(cp, cm, e, word)
    walk = list(chart_walk(cp, cm, word, params))
    gallery = one_run_gallery(e, _relpos(cp, e), word)
    for k, (g, h) in enumerate(zip(walk, gallery), 1):
        root = decode_coords(cp, cm, word[:k], coords[:k])
        assert root == g == h
    assert walk[-1] == e
    assert chart_encode(cp, cm, walk[-1], word) == params


gauss_rats = st.builds(
    GaussRat,
    st.fractions(min_value=-9, max_value=9, max_denominator=6),
    st.fractions(min_value=-9, max_value=9, max_denominator=6),
)


@settings(max_examples=60, derandomize=True, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.sampled_from([2, 3, 4]),
    length=st.integers(0, 4),
    drawn=st.lists(gauss_rats, min_size=4, max_size=4),
)
def test_cells_are_affine_spaces(seed, n, length, drawn):
    """Every tuple in Q(i)^l, zeros included, decodes to a chamber at
    Weyl distance w from cp and encodes back exactly, for random reduced
    words up to length 4 (affine letters included) over random opposite
    pairs; a validated copy of the decoded chamber encodes the same."""
    rng = random.Random(seed)
    word = random_reduced_word(rng, n, length)
    cm, cp = rand_opposite_pair(rng, n)
    coords = drawn[: len(word)]
    e = decode_coords(cp, cm, word, coords)
    assert delta(cp, e) == word_to_affine(word, n)
    assert encode_coords(cp, cm, e, word) == coords
    assert encode_coords(fresh(cp), fresh(cm), fresh(e), word) == coords


@settings(max_examples=40, derandomize=True, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.sampled_from([2, 3, 4]),
    length=st.integers(1, 4),
)
def test_infinity_keeps_the_gallery_in_place(seed, n, length):
    """A coordinate INF skips its letter's factor: all INF gives cp, and
    a tuple with an INF lands in a cell v <= w in the Bruhat order, the
    cell of what is left of the word when that is reduced."""
    rng = random.Random(seed)
    word = random_reduced_word(rng, n, length)
    cm, cp = rand_opposite_pair(rng, n)
    assert decode_coords(cp, cm, word, [INF] * len(word)) == cp
    coords = [rng.choice([INF, rand_gauss(rng)]) for _ in word]
    coords[rng.randrange(len(word))] = INF
    e = decode_coords(cp, cm, word, coords)
    v = delta(cp, e)
    assert v.length() < len(word)
    assert bruhat_leq(affine_to_word(v), word, coxeter_matrix("affine-A", n))
    kept = tuple(s for s, t in zip(word, coords) if t != INF)
    if word_to_affine(kept, n).length() == len(kept):
        assert v == word_to_affine(kept, n)


def constant_diagonal(rng, n):
    return LMat.diag([LaurentPoly({0: rand_gauss(rng) or GaussRat(1)}) for _ in range(n)])


@settings(max_examples=40, derandomize=True, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.sampled_from([2, 3, 4]),
    length=st.integers(0, 4),
)
def test_coordinates_do_not_depend_on_the_representatives(seed, n, length):
    """encode_coords(cp', dm', e) = encode_coords(cp, dm, e) for cp' =
    cp h beta and dm' = dm h' beta' (h, h' constant diagonals, beta and
    beta' in the Borels): the common basis is unique only up to a
    constant diagonal, and its column normalisation removes that.  The
    decoded chambers agree too."""
    rng = random.Random(seed)
    word = random_reduced_word(rng, n, length)
    cm, cp, e = round_trip_case(rng, n, word)
    coords = encode_coords(cp, cm, e, word)
    cp2 = chamber_from_basis("+", cp.rep @ constant_diagonal(rng, n) @ rand_borel(rng, n, "+"))
    cm2 = chamber_from_basis("-", cm.rep @ constant_diagonal(rng, n) @ rand_borel(rng, n, "-"))
    assert encode_coords(cp2, cm2, e, word) == coords
    assert decode_coords(cp2, cm2, word, coords) == e
    assert common_basis(cm2, cp2) == common_basis(cm, cp)
