"""Acceptance suite: the headline results and randomized protocols that
define "working", each with a pinned wall-clock budget.

Run with ``pytest -v tests/test_acceptance.py`` to get one pass/fail line
per criterion.  The randomized criteria reuse the seeded self-check
suites from :mod:`twinbuild.verify` (seed 0 throughout), so the CLI
``twinbuild verify`` exercises the same code paths.
"""

import itertools
import time
from collections import Counter
from contextlib import contextmanager

from twinbuild.cells import (
    bott_equivalence_check,
    loop_poincare,
    schubert_poincare,
)
from twinbuild.coxeter import (
    bruhat_leq,
    coset_min_split,
    coxeter_matrix,
    longest_element,
    min_coset_reps,
    window_to_word,
    word_to_window,
)
from twinbuild.verify import run_suite


@contextmanager
def budget(seconds):
    start = time.monotonic()
    yield
    elapsed = time.monotonic() - start
    assert elapsed < seconds, f"took {elapsed:.1f}s, budget {seconds}s"


def run_clean(name, count=None):
    """Run a verify suite at seed 0 and require zero failures."""
    result = run_suite(name, seed=0, count=count)
    assert result.failed == 0, "\n".join(result.messages)
    return result


def min_rep(M, J, w):
    win, _ = coset_min_split(word_to_window(w, M), frozenset(J))
    return window_to_word(win, M)


def test_01_coset_diagram_with_covering_arrows():
    # W_{1,2,4} / W_{2,4} inside the affine 4-cycle: six representatives
    # forming a diamond in Bruhat order.
    with budget(1):
        M = coxeter_matrix("affine-A", 4)
        reps = min_coset_reps(
            M, frozenset({2, 4}), 12, within=frozenset({1, 2, 4})
        )
        assert list(reps) == [
            (), (1,), (2, 1), (4, 1), (2, 4, 1), (1, 2, 4, 1),
        ]
        covers = {
            (u, w)
            for u in reps
            for w in reps
            if len(w) == len(u) + 1 and bruhat_leq(u, w, M)
        }
        assert covers == {
            ((), (1,)),
            ((1,), (2, 1)),
            ((1,), (4, 1)),
            ((2, 1), (2, 4, 1)),
            ((4, 1), (2, 4, 1)),
            ((2, 4, 1), (1, 2, 4, 1)),
        }


def test_02_cell_dimension_lists():
    # Gr_2(C^4) has cells of dimension 0,2,4,4,6,8; its loop-group
    # continuation through degree 6 has 0,2,4,4,6,6,6.
    with budget(1):
        M = coxeter_matrix("finite-A", 4)
        J = frozenset({1, 3})
        gr = schubert_poincare(M, J, min_rep(M, J, longest_element(M)))
        assert gr.cell_dims() == [0, 2, 4, 4, 6, 8]
        assert loop_poincare(4, 6).cell_dims() == [0, 2, 4, 4, 6, 6, 6]


def test_03_low_skeleton_equivalence():
    # Through degree 2k-1 the loop complex and Gr_k(C^{2k}) have the
    # same cell counts.
    with budget(10):
        assert bott_equivalence_check(1, 1) is True
        assert bott_equivalence_check(2, 5) is True
        assert bott_equivalence_check(3, 5) is True


def test_03_bott_check_cost_follows_the_degree():
    # Gr_9(C^18) has C(18, 9) = 48620 cells; a check through degree 1
    # reads only the cells of dimension <= 1.
    with budget(1):
        assert bott_equivalence_check(9, 1) is True


def test_04_full_flag_product_identity():
    # The full-flag series is prod_{i<n} (1 + t^2 + ... + t^{2i}),
    # cross-checked against brute-force inversion counting.
    with budget(30):
        for n in range(2, 7):
            M = coxeter_matrix("finite-A", n)
            series = schubert_poincare(M, frozenset(), longest_element(M))

            poly = [1]
            for i in range(1, n):
                step = [0] * (2 * i + 1)
                step[::2] = [1] * (i + 1)
                out = [0] * (len(poly) + len(step) - 1)
                for a, ca in enumerate(poly):
                    for b, cb in enumerate(step):
                        out[a + b] += ca * cb
                poly = out
            assert list(series.coeffs) == poly

            brute = Counter()
            for p in itertools.permutations(range(n)):
                inv = sum(
                    1
                    for a in range(n)
                    for b in range(a + 1, n)
                    if p[a] > p[b]
                )
                brute[2 * inv] += 1
            assert list(series.coeffs) == [
                brute.get(d, 0) for d in range(len(series.coeffs))
            ]


def test_05_delta_construct_and_recover():
    # delta recovers the planted Weyl element from b1 n_w b2 on 200
    # random instances, n in {2,3,4}, lengths up to 8.
    with budget(60):
        result = run_clean("delta-recover", count=200)
        assert result.passed == 200


def test_06_codelta_construct_and_recover():
    # Same protocol across the twinning, plus the inverse symmetry of
    # the codistance on every instance.
    with budget(60):
        result = run_clean("codelta-recover", count=200)
        assert result.passed >= 200


def test_07_twin_axioms():
    # Panel sweeps: codistance drops to ws away from the gate (Tw2)
    # and a chamber at codistance ws exists in every panel (Tw3), 100
    # rank-3 instances each.
    with budget(60):
        result = run_clean("twin-axioms", count=100)
        assert result.passed == 200


def test_08_cell_coordinate_round_trip():
    # decode(encode(chamber)) over 200 random Schubert-cell chambers
    # with words up to length 8.
    with budget(60):
        result = run_clean("coords-roundtrip", count=200)
        assert result.passed == 200


def test_09_spherical_flag_recovery():
    # Eigenspace accumulation inverts the projector embedding on 100
    # random flags (n <= 5), and squared distance detects incidence
    # exhaustively for rank 3.
    with budget(30):
        result = run_clean("flag-recovery", count=100)
        assert result.passed == 100 + 81


def test_10_affine_eigen_identity():
    # (z d/dz - Phi)(g z^m e_j) = (m - [j<=k] + k/n)(g z^m e_j) exactly
    # for |m| <= 3 on winding-free unitary loops, n in {2,3}.
    with budget(10):
        result = run_clean("eigen-identity")
        assert result.passed >= 9


def test_11_caveat_window():
    # diag(a,...,a,(1-n)a) with a = z + 1/z has no truncated
    # eigenvectors in window 8 for n in {2,3}, while a genuine vertex
    # image is detected.
    with budget(10):
        result = run_clean("caveat-window")
        assert result.passed == 3


def test_12_gauge_preservation_and_cocycle():
    # The gauge action keeps sharp-fixed traceless matrices and
    # satisfies (gh) * X = g * (h * X) on 100 random loop pairs.
    with budget(10):
        result = run_clean("gauge-cocycle", count=100)
        assert result.passed == 100


def test_13_borel_calibration():
    # The standard chambers are back to back: identity codistance and
    # opposition, for the standard pair and 50 common-basis pairs.
    with budget(10):
        result = run_clean("borel-calibration", count=50)
        assert result.passed >= 50


def test_14_engine_factor_certificate():
    # One engine run factors c.rep^{-1} d.rep = b_L n_w t b^{-1}
    # (Iwahori-Bruhat on one side, Birkhoff across): the factors multiply
    # back exactly, w is the planted element and each factor has its
    # Borel shape, on 120 random pairs (n = 2..5, all four side pairs).
    with budget(1):
        result = run_clean("factor-certificate")
        assert result.passed == 120
