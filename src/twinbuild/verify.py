"""Seeded self-check suites over the randomized protocols.

Each suite replays a construct-and-verify protocol with an explicit
seed, so a run is reproducible bit-for-bit; the CLI's ``verify``
command and the acceptance tests call the same functions.  A suite
returns a :class:`SuiteResult` with pass/fail counts and the first few
failure descriptions.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .building import (
    borel_membership,
    bruhat_factors,
    chamber_from_basis,
    codelta,
    decode_coords,
    delta,
    delta_word,
    encode_coords,
    opposite,
    panel_chamber,
    panel_parameter,
    project_twin,
    standard_chamber,
    weyl_matrix,
)
from .cells import bott_equivalence_check, loop_poincare, schubert_poincare
from .coxeter import (
    affine_to_word,
    coset_min_split,
    coxeter_matrix,
    longest_element,
    min_coset_reps,
    window_to_word,
    word_to_affine,
    word_to_window,
)
from .errors import DomainError
from .exactalg import GaussRat, LMat, LaurentPoly, LP_ONE, LP_ZERO, QI_ONE
from .lattice import INF, _position_of_node
from .record import Record
from .samples import (
    rand_affine_word,
    rand_borel,
    rand_det1_loop,
    rand_flag,
    rand_opposite_pair,
    rand_sl,
    rand_weights,
)
from .veronese import (
    SubspaceFlag,
    affine_veronese_vertex,
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
)

__all__ = ["SuiteResult", "available_suites", "run_all", "run_suite"]

_MAX_MESSAGES = 5


class SuiteResult(Record):
    __slots__ = ("name", "seed", "passed", "failed", "messages")

    def __init__(self, name: str, seed: int, passed: int, failed: int, messages: tuple):
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "seed", seed)
        object.__setattr__(self, "passed", passed)
        object.__setattr__(self, "failed", failed)
        object.__setattr__(self, "messages", messages)

    @property
    def ok(self) -> bool:
        return self.failed == 0

    def as_dict(self):
        return {
            "suite": self.name,
            "seed": self.seed,
            "passed": self.passed,
            "failed": self.failed,
            "messages": list(self.messages),
        }

    def __str__(self):
        status = "ok" if self.ok else "FAIL"
        return f"{self.name}: {status} ({self.passed} passed, {self.failed} failed)"


class _Collector:
    __slots__ = ("passed", "failed", "messages")

    def __init__(self):
        self.passed = 0
        self.failed = 0
        self.messages = []

    def check(self, ok: bool, describe: str):
        if ok:
            self.passed += 1
        else:
            self.failed += 1
            if len(self.messages) < _MAX_MESSAGES:
                self.messages.append(describe)


def _panel(c, s):
    return c.panel(_position_of_node(s, c.n, c.side))


# ---------------------------------------------------------------------------
# suites
# ---------------------------------------------------------------------------


def _suite_delta_recover(col, rng, count):
    """delta(C0, b1 n_w b2 C0) recovers w."""
    for i in range(count):
        n = rng.choice([2, 3, 4])
        side = rng.choice("+-")
        c0 = standard_chamber(side, n)
        w = word_to_affine(rand_affine_word(rng, n, 8), n)
        d = chamber_from_basis(
            side, rand_borel(rng, n, side) @ weyl_matrix(w) @ rand_borel(rng, n, side)
        )
        col.check(delta(c0, d) == w, f"delta case {i}: n={n} side={side}")


def _suite_codelta_recover(col, rng, count):
    """codelta(x b- C0-, x n_w b+ C0+) recovers w; opposite-symmetry
    (inverse under swapping the arguments) on every instance."""
    for i in range(count):
        n = rng.choice([2, 3, 4])
        w = word_to_affine(rand_affine_word(rng, n, 8), n)
        x = rand_sl(rng, n)
        cm = chamber_from_basis("-", x @ rand_borel(rng, n, "-"))
        cp = chamber_from_basis("+", x @ weyl_matrix(w) @ rand_borel(rng, n, "+"))
        got = codelta(cm, cp)
        col.check(got == w, f"codelta case {i}: n={n}")
        col.check(
            codelta(cp, cm) == got.inverse(), f"codelta symmetry case {i}: n={n}"
        )


def _factors_certified(c, d, planted):
    """The checks of the factor-certificate suite on one pair."""
    b_l, w, t, b = bruhat_factors(c, d)
    a = c.rep.inv() @ d.rep
    r = b_l @ weyl_matrix(w) @ t
    if not (w == planted and a @ b == r and a == r @ b.inv()):
        return False
    det = b_l.det()
    if set(det.coeffs) != {0} or not borel_membership(d.side, b):
        return False
    # b_L with its first column scaled to determinant 1 keeps its shape
    unit = LMat.diag([LaurentPoly({0: det.coeffs[0].inverse()})] + [LP_ONE] * (c.n - 1))
    return borel_membership(c.side, b_l @ unit) and all(
        set(t[k, k].coeffs) == {0} for k in range(c.n)
    )


def _suite_factor_certificate(col, rng, count):
    """bruhat_factors(c, d) = (b_L, w, t, b) on c = x b1, d = x n_w b2 (n =
    2..5, all four side pairs): a b = b_L n_w t and a = b_L n_w t b^{-1}
    exactly (a = c.rep^{-1} d.rep, b^{-1} from the minor table), w is the
    planted element, b lies in d's Borel, b_L has the Borel shape of c's
    side and a constant determinant, and t is a constant diagonal."""
    for i in range(count):
        n = rng.choice([2, 3, 4, 5])
        cs, ds = rng.choice("+-"), rng.choice("+-")
        planted = word_to_affine(rand_affine_word(rng, n, 6), n)
        x = rand_sl(rng, n, 1, 3)
        c = chamber_from_basis(cs, x @ rand_borel(rng, n, cs, 1, 2))
        d = chamber_from_basis(ds, x @ weyl_matrix(planted) @ rand_borel(rng, n, ds, 1, 2))
        col.check(_factors_certified(c, d, planted), f"factor case {i}: n={n} sides={cs}{ds}")


def _suite_twin_axioms(col, rng, count):
    """Shortening across panels (Tw2) and adjacent-chamber existence in
    both directions (Tw3), on constructed rank-3 instances.  The Tw2
    sweep also reads each panel chamber's parameter back."""
    n = 3
    sweep = (GaussRat(0), GaussRat(1), GaussRat(0, 1), INF)
    done = 0
    while done < count:
        w = word_to_affine(rand_affine_word(rng, n, 5), n)
        word = affine_to_word(w)
        if not word:
            continue
        s = word[-1]
        ws = w.compose(word_to_affine((s,), n))
        x = rand_sl(rng, n)
        cm = chamber_from_basis("-", x @ rand_borel(rng, n, "-"))
        cp = chamber_from_basis("+", x @ weyl_matrix(w) @ rand_borel(rng, n, "+"))
        pan = _panel(cp, s)
        ok = codelta(cm, cp) == w
        for t in sweep:
            e = panel_chamber(pan, t)
            ok = ok and panel_parameter(pan, e) == t
            if e != cp:
                ok = ok and codelta(cm, e) == ws
        col.check(ok, f"Tw2 case {done}")
        done += 1
    done = 0
    while done < count:
        w = word_to_affine(rand_affine_word(rng, n, 4), n)
        x = rand_sl(rng, n)
        cm = chamber_from_basis("-", x @ rand_borel(rng, n, "-"))
        cp = chamber_from_basis("+", x @ weyl_matrix(w) @ rand_borel(rng, n, "+"))
        s = rng.randint(1, n)
        gen = word_to_affine((s,), n)
        ws = w.compose(gen)
        pan = _panel(cp, s)
        if ws.length() > w.length():
            e = project_twin(pan, cm)
            ok = delta(cp, e) == gen and codelta(cm, e) == ws
        else:
            ok = any(
                panel_chamber(pan, t) != cp
                and codelta(cm, panel_chamber(pan, t)) == ws
                for t in (GaussRat(0), GaussRat(1), GaussRat(2), INF)
            )
        col.check(ok, f"Tw3 case {done}")
        done += 1


def _suite_coords_roundtrip(col, rng, count):
    """decode(encode(chamber)) returns the chamber, over random
    opposite pairs and random cell chambers."""
    for i in range(count):
        n = rng.choice([2, 3])
        cm, cp = rand_opposite_pair(rng, n)
        w = word_to_affine(rand_affine_word(rng, n, 8), n)
        e = chamber_from_basis(
            "+", cp.rep @ rand_borel(rng, n, "+") @ weyl_matrix(w)
        )
        word = delta_word(cp, e)
        coords = encode_coords(cp, cm, e)
        ok = len(coords) == len(word) and decode_coords(cp, cm, word, coords) == e
        col.check(ok, f"coords case {i}: n={n} len={len(word)}")


def _suite_flag_recovery(col, rng, count):
    """Spherical round trips on random flags, then the exhaustive
    rank-3 incidence-distance sweep."""
    for i in range(count):
        n = rng.choice([2, 3, 4, 5])
        fl = rand_flag(rng, n)
        ws = rand_weights(rng, len(fl.steps))
        col.check(
            recover_flag(spherical_veronese(fl, ws)) == fl,
            f"flag case {i}: n={n} dims={fl.dims}",
        )
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
        xl = spherical_veronese(SubspaceFlag(3, [l]), [1])
        for p in planes:
            xp = spherical_veronese(SubspaceFlag(3, [p]), [1])
            d2 = squared_distance(xl, xp)
            incident = len(subspace(list(p) + list(l))) == len(p)
            expected = d2.re == base if incident else d2.re > base
            col.check(
                not d2.im and expected,
                f"incidence distance: line {lines.index(l)} plane {planes.index(p)}",
            )


def _suite_gauge_cocycle(col, rng, count):
    """Sharp-fixed tracelessness and the cocycle law on random pairs of
    winding-free unitary loops."""
    for i in range(count):
        n = rng.choice([2, 3])
        g = rand_det1_loop(rng, n)
        h = rand_det1_loop(rng, n)
        x = pi_tls(n, rng.randint(0, n - 1))
        y = gauge(h, x)
        ok = y.sharp() == y and y.trace() == LP_ZERO
        ok = ok and gauge(g @ h, x) == gauge(g, y)
        col.check(ok, f"gauge case {i}: n={n}")


def _suite_eigen_identity(col, rng, count):
    """(z d/dz - Phi)(g z^m e_j) = (m - [j <= k] + k/n)(g z^m e_j) for
    |m| <= 3, over the deterministic rank-2 loop and random loops."""
    loops = [(sl_loop_pair(pi_projector(2, 1), projector_of([[1, 0]])), 1, 2)]
    for _ in range(count):
        n = rng.choice([2, 3])
        loops.append((rand_det1_loop(rng, n), rng.randint(0, n - 1), n))
    for idx, (g, k, n) in enumerate(loops):
        phi = affine_veronese_vertex(g, k)
        ok = True
        for m in range(-3, 4):
            for j in range(1, n + 1):
                vec = LMat(
                    [[LaurentPoly({m: QI_ONE}) if r == j - 1 else LP_ZERO]
                     for r in range(n)]
                )
                v = g @ vec
                lam = GaussRat(Fraction(m) - (1 if j <= k else 0) + Fraction(k, n))
                ok = ok and v.z_ddz() - phi @ v == v.scale(LaurentPoly({0: lam}))
        col.check(ok, f"eigen case {idx}: n={n} k={k}")


def _suite_caveat_window(col, rng, count):
    """The flag image has truncated eigenvectors; the non-image
    diagonal matrices have none in the window N = 8."""
    col.check(caveat_check(2, 6, pi_tls(2, 1)) is False, "flag image not detected")
    col.check(caveat_check(2, 8) is True, "n=2 window")
    col.check(caveat_check(3, 8) is True, "n=3 window")


def _suite_borel_calibration(col, rng, count):
    """The standard pair is back to back; common-basis pairs are
    opposite with identity codistance."""
    n = 3
    cm = standard_chamber("-", n)
    cp = standard_chamber("+", n)
    col.check(
        codelta(cm, cp).length() == 0 and opposite(cm, cp),
        "standard pair",
    )
    for i in range(count):
        n = rng.choice([2, 3, 4])
        cm, cp = rand_opposite_pair(rng, n)
        col.check(
            opposite(cm, cp) and codelta(cm, cp).length() == 0,
            f"pair case {i}: n={n}",
        )


def _suite_cell_series(col, rng, count):
    """Deterministic cell bookkeeping: the parabolic coset sextet, the
    Grassmannian/loop cell lists, the skeleton agreements, and the
    full-flag product identity."""
    M4 = coxeter_matrix("affine-A", 4)
    reps = min_coset_reps(M4, {2, 4}, 8, within={1, 2, 4})
    col.check(
        reps == [(), (1,), (2, 1), (4, 1), (2, 4, 1), (1, 2, 4, 1)],
        "parabolic coset representatives",
    )
    Mf = coxeter_matrix("finite-A", 4)
    win, _ = coset_min_split(word_to_window(longest_element(Mf), Mf), frozenset({1, 3}))
    top = window_to_word(win, Mf)
    col.check(
        schubert_poincare(Mf, {1, 3}, top).cell_dims() == [0, 2, 4, 4, 6, 8],
        "Grassmannian cell list",
    )
    col.check(
        loop_poincare(4, 6).cell_dims() == [0, 2, 4, 4, 6, 6, 6],
        "loop cell list",
    )
    for k in (1, 2, 3):
        col.check(
            bott_equivalence_check(k, 2 * k - 1) is True, f"skeleton match k={k}"
        )
    for n in range(2, 7):
        M = coxeter_matrix("finite-A", n)
        series = schubert_poincare(M, set(), longest_element(M))
        poly = [1]
        for i in range(1, n):
            step = [1 if d % 2 == 0 else 0 for d in range(2 * i + 1)]
            out = [0] * (len(poly) + len(step) - 1)
            for a, ca in enumerate(poly):
                for b, cb in enumerate(step):
                    out[a + b] += ca * cb
            poly = out
        col.check(list(series.coeffs) == poly, f"full flag product n={n}")


_SUITES = {
    "delta-recover": (_suite_delta_recover, 200),
    "codelta-recover": (_suite_codelta_recover, 200),
    "twin-axioms": (_suite_twin_axioms, 100),
    "factor-certificate": (_suite_factor_certificate, 120),
    "coords-roundtrip": (_suite_coords_roundtrip, 200),
    "flag-recovery": (_suite_flag_recovery, 100),
    "gauge-cocycle": (_suite_gauge_cocycle, 100),
    "eigen-identity": (_suite_eigen_identity, 8),
    "caveat-window": (_suite_caveat_window, 1),
    "borel-calibration": (_suite_borel_calibration, 50),
    "cell-series": (_suite_cell_series, 1),
}


def available_suites():
    """Sorted names of the self-check suites."""
    return tuple(sorted(_SUITES))


def run_suite(name: str, seed: int = 0, count=None) -> SuiteResult:
    """Run one suite with the given seed; ``count`` scales the
    randomized portion (None = the suite's default)."""
    if name not in _SUITES:
        raise DomainError(
            f"unknown suite {name!r}; available: {', '.join(available_suites())}"
        )
    func, default = _SUITES[name]
    if count is None:
        count = default
    if count < 1:
        raise DomainError("count must be >= 1")
    col = _Collector()
    func(col, random.Random(seed), count)
    return SuiteResult(name, seed, col.passed, col.failed, tuple(col.messages))


def run_all(seed: int = 0, count=None):
    """Run every suite (alphabetically) with one seed."""
    return [run_suite(name, seed, count) for name in available_suites()]
