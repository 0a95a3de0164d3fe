"""The four workloads: seeded inputs, the operation under test and the
exact oracle that checks its result.

Inputs are built here from ``--seed`` with names the ``twinbuild``
package exports (``GaussRat``, ``LaurentPoly``, ``LMat``,
``weyl_matrix``, ...), never with ``twinbuild.samples`` or
``twinbuild.verify``, so that edits to those modules cannot change a
workload.  Every operation carries an oracle: a planted Weyl element, a
round trip, an identity, or a known command-line output.

A workload is a list of strata (operation kind and size).  Operations
run round-robin over the strata, so the mix is the same for every seed;
the seed changes only the instances.  Chambers are built inside the
timed call, because users pay for building them on every operation.

Library functions are called through the ``twinbuild`` module object at
call time, so that the spans installed by a traced run see them.
"""

import itertools
import random
from fractions import Fraction

import twinbuild as tb

from affine import length, longest_finite_word, random_reduced_word, reduced_words, window

ONE = tb.GaussRat(1)
ZERO = tb.GaussRat(0)
LP0 = tb.LaurentPoly()


class Stratum:
    """One operation kind at one size.

    ``make(rng)`` builds an instance; ``call(inst)`` is the timed
    operation; ``check(inst, result)`` returns an error message or None;
    ``digest(result)`` renders the result for comparing runs.
    """

    def __init__(self, name, make, call, check, digest=repr):
        self.name = name
        self.make = make
        self.call = call
        self.check = check
        self.digest = digest


class Workload:
    def __init__(self, name, strata, tail_pct, pool, trace_rate, setup_samples,
                 in_process=True):
        self.name = name
        self.strata = strata
        # Fixed per workload so the metric keeps one meaning across
        # commits; chosen so a run has at least ten samples beyond it.
        self.tail_pct = tail_pct
        # Instances generated per stratum during set-up.
        self.pool = pool
        # Operations per run-second replayed by a traced run.
        self.trace_rate = trace_rate
        # Set-up is timed this many times per run and the median reported:
        # more where one set-up is short, so each run spends a few seconds.
        self.setup_samples = setup_samples
        self.in_process = in_process


# ---------------------------------------------------------------------------
# generators
# ---------------------------------------------------------------------------


def rng_for(seed, *parts):
    return random.Random("/".join(str(p) for p in (seed,) + parts))


def _gauss(rng, span=2):
    while True:
        c = tb.GaussRat(rng.randint(-span, span), rng.randint(-1, 1))
        if c:
            return c


def _const(c):
    return tb.LaurentPoly({0: c})


def _product(rng, n, positions, exponent):
    """The product of elementary matrices 1 + c z^d e_ij, one per (i, j)
    in positions, applied as column operations."""
    cols = [[_const(ONE) if a == b else LP0 for a in range(n)] for b in range(n)]
    for i, j in positions:
        f = tb.LaurentPoly({exponent(rng, i, j): _gauss(rng, 1)})
        cols[j] = [a + f * b for a, b in zip(cols[j], cols[i])]
    return tb.LMat([[cols[j][i] for j in range(n)] for i in range(n)])


def dense_basis(rng, n, steps=None):
    """A determinant-one basis: 2n (or `steps`) elementary factors of
    degree <= 1 at fixed positions that sweep the whole matrix.  Fixing
    the positions keeps the cost of one instance close to the next, so a
    run's mix does not hinge on a few unlucky instances."""
    positions = []
    for k in range(steps or 2 * n):
        i = k % n
        j = (k + 1 + k // n) % n
        if j == i:
            j = (j + 1) % n
        positions.append((j, i) if k % 2 else (i, j))
    return _product(rng, n, positions, lambda r, i, j: r.randint(-1, 1))


def borel(rng, n, side, steps=2):
    """An element of B+ or B-: elementary factors with admissible
    exponents (on '+', >= 0 above and >= 1 below the diagonal; on '-',
    <= -1 above and <= 0 below)."""
    positions = [rng.sample(range(n), 2) for _ in range(steps)]
    if side == "+":
        return _product(rng, n, positions, lambda r, i, j: r.randint(0, 1) if i < j else 1)
    return _product(rng, n, positions, lambda r, i, j: -1 if i < j else r.randint(-1, 0))


def planted(rng, n, lo, hi):
    """A reduced word of length in [lo, hi] and its Weyl element."""
    word = random_reduced_word(rng, n, rng.randint(lo, hi))
    return word, tb.word_to_affine(word, n)


def node_of_position(p, n, side):
    """Generator moving chain position p of a chamber on the given side
    (the library's convention: the affine node n sits at position 0)."""
    if p == 0:
        return n
    return n - p if side == "+" else p


def _gen(s, n):
    return tb.word_to_affine((s,), n)


def _other(side):
    return "-" if side == "+" else "+"


def _parabolic(nodes, n):
    """All elements of the finite group generated by the given nodes."""
    ident = tb.AffineWeylElt.identity(n)
    seen = {ident}
    frontier = [ident]
    while frontier:
        nxt = []
        for u in frontier:
            for s in nodes:
                su = _gen(s, n).compose(u)
                if su not in seen:
                    seen.add(su)
                    nxt.append(su)
        frontier = nxt
    return seen


def longest_in_coset(nodes, v, n):
    """The longest element of W_J v, by enumerating W_J."""
    return max((u.compose(v) for u in _parabolic(nodes, n)), key=lambda e: e.length())


def matrix_text(m):
    return ";".join(",".join(tb.poly_to_str(e) for e in row) for row in m.rows)


# ---------------------------------------------------------------------------
# dense-distances
# ---------------------------------------------------------------------------


def _dense_pair(rng, n, side):
    """Bases x and x n_w b of chambers at planted distance w.  The first
    chamber keeps the bare basis x: a Borel factor on both sides made the
    cost of one instance vary several-fold at n = 7."""
    x = dense_basis(rng, n)
    _, w = planted(rng, n, n - 1, n + 1)
    return x, x @ tb.weyl_matrix(w) @ borel(rng, n, side), w


def _delta_make(n):
    def make(rng):
        side = rng.choice("+-")
        a, b, w = _dense_pair(rng, n, side)
        return side, a, b, w

    return make


def _delta_call(inst):
    side, a, b, _ = inst
    return tb.delta(tb.chamber_from_basis(side, a), tb.chamber_from_basis(side, b))


def _expect_elt(inst, result):
    want = inst[-1]
    return None if result == want else f"got {result!r}, planted {want!r}"


def _codelta_make(n):
    def make(rng):
        x = dense_basis(rng, n)
        _, w = planted(rng, n, n - 1, n + 1)
        return x, x @ tb.weyl_matrix(w) @ borel(rng, n, "+"), w

    return make


def _codelta_call(inst):
    am, bp, _ = inst
    return tb.codelta(tb.chamber_from_basis("-", am), tb.chamber_from_basis("+", bp))


def _project_make(n):
    def make(rng):
        side = rng.choice("+-")
        a, b, w = _dense_pair(rng, n, side)
        p = rng.randrange(n)
        kept = frozenset(range(n)) - {p}
        return side, a, b, kept, node_of_position(p, n, side), w

    return make


def _project_call(inst):
    side, a, b, kept, _, _ = inst
    c = tb.chamber_from_basis(side, a)
    d = tb.chamber_from_basis(side, b)
    return tb.project(tb.Simplex(d, kept), c), c, d


def _project_check(inst, result):
    g, c, d = result
    n = c.n
    w, s = inst[-1], inst[-2]
    ws = w.compose(_gen(s, n))
    wmin = ws if ws.length() < w.length() else w
    if tb.delta(c, g) != wmin:
        return "gate is not at the shortest distance of the panel"
    if tb.delta(g, d) != wmin.inverse().compose(w):
        return "gate does not lie in the panel"
    return None


def _opposite_make(n):
    def make(rng):
        x = dense_basis(rng, n)
        expected = rng.random() < 0.5
        _, w = planted(rng, n, 1 if not expected else 0, n)
        bp = x @ borel(rng, n, "+")
        if not expected:
            bp = x @ tb.weyl_matrix(w) @ borel(rng, n, "+")
        return x, bp, expected

    return make


def _opposite_call(inst):
    am, bp, _ = inst
    return tb.opposite(tb.chamber_from_basis("-", am), tb.chamber_from_basis("+", bp))


def _expect_value(inst, result):
    want = inst[-1]
    return None if result == want else f"got {result!r}, expected {want!r}"


def dense_distances():
    strata = []
    for n in (5, 6, 7):
        strata += [
            Stratum(f"delta.n{n}", _delta_make(n), _delta_call, _expect_elt),
            Stratum(f"codelta.n{n}", _codelta_make(n), _codelta_call, _expect_elt),
            Stratum(
                f"project.n{n}", _project_make(n), _project_call, _project_check,
                digest=lambda r: matrix_text(r[0].rep),
            ),
            Stratum(f"opposite.n{n}", _opposite_make(n), _opposite_call, _expect_value),
        ]
    return strata


# ---------------------------------------------------------------------------
# twin-gates
# ---------------------------------------------------------------------------


def _cycled_elements(n, target):
    """A maker's source of planted elements: every element of the given
    length in turn, so that every seed plants the same mix and only the
    bases change."""
    words = reduced_words(n, target)
    return (words[k % len(words)] for k in itertools.count())


def _roundtrip_make(n):
    planted_words = _cycled_elements(n, 2)

    def make(rng):
        x = dense_basis(rng, n, n + 1)
        word = next(planted_words)
        w = tb.word_to_affine(word, n)
        return x, x @ borel(rng, n, "+", 1) @ tb.weyl_matrix(w), word

    return make


def _roundtrip_call(inst):
    x, e_basis, word = inst
    cp = tb.chamber_from_basis("+", x)
    cm = tb.chamber_from_basis("-", x)
    e = tb.chamber_from_basis("+", e_basis)
    coords = tb.encode_coords(cp, cm, e, word=word)
    return coords, e, tb.decode_coords(cp, cm, word, coords)


def _roundtrip_check(inst, result):
    coords, e, back = result
    if len(coords) != len(inst[2]):
        return f"{len(coords)} coordinates for a word of length {len(inst[2])}"
    if back != e:
        return "decode(encode(e)) != e"
    return None


def _coords_digest(result):
    return ",".join("INF" if t == tb.INF else tb.scalar_to_str(t) for t in result[0])


def _gate_make(n, codim):
    """A face of d with `codim` types dropped, d at a planted codistance
    from c, chosen so that v = codelta(d, c) is the shortest element of
    W_J v: the gate must climb the whole residue.  (A face already at the
    top returns at once, and a kind mixing both cases has a median that
    jumps between them from seed to seed.)"""
    planted_words = _cycled_elements(n, 2)

    def make(rng):
        side = rng.choice("+-")
        while True:
            w = tb.word_to_affine(next(planted_words), n)
            v = w.inverse()
            faces = [
                dropped for dropped in itertools.combinations(range(n), codim)
                if all(_gen(node_of_position(p, n, side), n).compose(v).length() > v.length()
                       for p in dropped)
            ]
            if faces:
                break
        dropped = rng.choice(faces)
        nodes = [node_of_position(p, n, side) for p in dropped]
        x = dense_basis(rng, n, n + 1)
        d = x @ tb.weyl_matrix(w) @ borel(rng, n, side, 1)
        c = x @ borel(rng, n, _other(side), 1)
        want = longest_in_coset(nodes, v, n)
        return side, d, c, frozenset(range(n)) - set(dropped), want

    return make


def _gate_call(inst):
    side, d, c, kept, _ = inst
    face = tb.Simplex(tb.chamber_from_basis(side, d), kept)
    cc = tb.chamber_from_basis(_other(side), c)
    return tb.project_twin(face, cc), face, cc


def _gate_check(inst, result):
    g, face, c = result
    if tb.codelta(g, c) != inst[-1]:
        return "twin gate does not attain the longest codistance"
    if not face.classes <= g.classes:
        return "twin gate does not contain the face"
    return None


def twin_gates():
    strata = []
    for n in (2, 3):
        strata.append(
            Stratum(f"roundtrip.n{n}", _roundtrip_make(n), _roundtrip_call,
                    _roundtrip_check, digest=_coords_digest)
        )
        strata.append(
            Stratum(f"gate.n{n}", _gate_make(n, 1), _gate_call, _gate_check,
                    digest=lambda r: matrix_text(r[0].rep))
        )
    strata.append(
        Stratum("gate2.n3", _gate_make(3, 2), _gate_call, _gate_check,
                digest=lambda r: matrix_text(r[0].rep))
    )
    return strata


# ---------------------------------------------------------------------------
# projectors
# ---------------------------------------------------------------------------


def _frame(rng, n):
    """Rows of a random invertible constant matrix over Q(i)."""
    rows = [[ONE if i == j else ZERO for j in range(n)] for i in range(n)]
    for _ in range(2 * n):
        i, j = rng.sample(range(n), 2)
        c = _gauss(rng)
        rows[i] = [a + c * b for a, b in zip(rows[i], rows[j])]
    return rows


def _weights(rng, count):
    raw = [Fraction(rng.randint(1, 5)) for _ in range(count)]
    return [w / sum(raw) for w in raw]


def _solve_gram(g):
    """Inverse of a small invertible matrix over Q(i) by Gauss-Jordan."""
    k = len(g)
    aug = [list(row) + [ONE if i == j else ZERO for j in range(k)] for i, row in enumerate(g)]
    for col in range(k):
        piv = next(r for r in range(col, k) if aug[r][col])
        aug[col], aug[piv] = aug[piv], aug[col]
        inv = aug[col][col].inverse()
        aug[col] = [a * inv for a in aug[col]]
        for r in range(k):
            if r != col and aug[r][col]:
                f = aug[r][col]
                aug[r] = [a - f * b for a, b in zip(aug[r], aug[col])]
    return [row[k:] for row in aug]


def projector(rng, n, k):
    """The orthogonal projector onto a random k-dimensional subspace:
    B (B* B)^{-1} B* for a basis B."""
    basis = _frame(rng, n)[:k]
    gram = [[sum((a.conj * b for a, b in zip(u, v)), ZERO) for v in basis] for u in basis]
    ginv = _solve_gram(gram)
    rows = [
        [
            sum(
                (basis[a][i] * ginv[a][b] * basis[b][j].conj for a in range(k) for b in range(k)),
                ZERO,
            )
            for j in range(n)
        ]
        for i in range(n)
    ]
    return tb.LMat([[_const(c) for c in row] for row in rows])


def _phase_permutation(rng, n):
    phases = [ONE, -ONE, tb.GaussRat(0, 1), tb.GaussRat(0, -1)]
    perm = list(range(n))
    rng.shuffle(perm)
    rows = [[LP0] * n for _ in range(n)]
    for j, i in enumerate(perm):
        rows[i][j] = _const(rng.choice(phases))
    return tb.LMat(rows)


def unitary_loop(rng, n):
    """A determinant-one unitary loop: a pair of projector loops mixed
    with a constant phase permutation."""
    k = rng.randint(1, n - 1)
    g = tb.sl_loop_pair(projector(rng, n, k), projector(rng, n, k))
    u = _phase_permutation(rng, n)
    return u @ g @ u.sharp() if rng.random() < 0.5 else g @ u


def _flag_make(n):
    def make(rng):
        frame = _frame(rng, n)
        dims = sorted(rng.sample(range(1, n), rng.randint(1, n - 1)))
        flag = tb.SubspaceFlag(n, [frame[:d] for d in dims])
        return flag, _weights(rng, len(dims))

    return make


def _flag_call(inst):
    flag, weights = inst
    return tb.recover_flag(tb.spherical_veronese(flag, weights))


def _flag_check(inst, result):
    return None if result == inst[0] else "recovered flag differs"


def _cocycle_make(n):
    def make(rng):
        return unitary_loop(rng, n), unitary_loop(rng, n), tb.pi_tls(n, rng.randint(0, n - 1))

    return make


def _cocycle_call(inst):
    g, h, x = inst
    y = tb.gauge(h, x)
    return y, tb.gauge(g @ h, x), tb.gauge(g, y)


def _cocycle_check(inst, result):
    y, lhs, rhs = result
    if y.sharp() != y or y.trace() != LP0:
        return "gauge left the sharp-fixed traceless matrices"
    if lhs != rhs:
        return "cocycle law fails"
    return None


def _eigen_make(n):
    def make(rng):
        return unitary_loop(rng, n), rng.randint(0, n - 1)

    return make


def _eigen_call(inst):
    """(z d/dz - Phi)(g z^m e_j) = (m - [j <= k] + k/n) g z^m e_j."""
    g, k = inst
    n = g.nrows
    phi = tb.affine_veronese_vertex(g, k)
    bad = []
    for m in range(-2, 3):
        for j in range(1, n + 1):
            e = tb.LMat([[tb.LaurentPoly({m: ONE}) if r == j - 1 else LP0] for r in range(n)])
            v = g @ e
            lam = tb.GaussRat(Fraction(m) - (1 if j <= k else 0) + Fraction(k, n))
            if v.z_ddz() - phi @ v != v.scale(_const(lam)):
                bad.append((m, j))
    return bad


def _eigen_check(inst, result):
    return f"eigen identity fails at (m, j) in {result}" if result else None


def _caveat_make(image):
    # The default non-image matrix has no truncated eigenvectors; a
    # vertex image has them.  The two cases differ in cost, so each is
    # its own kind.
    def make(rng):
        return (tb.pi_tls(2, 1) if image else None), not image

    return make


def _caveat_call(inst):
    return tb.caveat_check(2, 4, inst[0])


def projectors():
    strata = [
        Stratum(f"flag.n{n}", _flag_make(n), _flag_call, _flag_check,
                digest=lambda r: repr(r.steps))
        for n in (2, 3, 4, 5)
    ]
    for n in (2, 3):
        strata.append(
            Stratum(f"cocycle.n{n}", _cocycle_make(n), _cocycle_call, _cocycle_check,
                    digest=lambda r: matrix_text(r[1]))
        )
        strata.append(Stratum(f"eigen.n{n}", _eigen_make(n), _eigen_call, _eigen_check))
    strata.append(Stratum("caveat.n2", _caveat_make(False), _caveat_call, _expect_value))
    strata.append(Stratum("caveat-image.n2", _caveat_make(True), _caveat_call, _expect_value))
    return strata


# ---------------------------------------------------------------------------
# cli
# ---------------------------------------------------------------------------
#
# Each instance is (argv, oracle); the oracle receives the parsed JSON
# envelope's "result" object.  The timed call is made by the worker:
# a cold ``python -m twinbuild`` process, or ``twinbuild.cli.main`` in
# process for traced runs.


def _fixed(argv, expected):
    """A command with a known output: the listed result fields."""
    def make(rng):
        def oracle(res):
            ok = all(res.get(k) == v for k, v in expected.items())
            return None if ok else f"expected {expected}"

        return argv, oracle

    return make


def _length_make(rng):
    word = [rng.randint(1, 3) for _ in range(rng.randint(1, 6))]
    want = length(window(word, 4))
    argv = ["coxeter", "length", "--type", "A3", "--word", ",".join(map(str, word))]
    return argv, lambda res: None if res == {"length": want} else f"length should be {want}"


def _schubert_expected(rank):
    poly = [1]
    for i in range(1, rank + 1):
        step = [1 if d % 2 == 0 else 0 for d in range(2 * i + 1)]
        out = [0] * (len(poly) + len(step) - 1)
        for a, ca in enumerate(poly):
            for b, cb in enumerate(step):
                out[a + b] += ca * cb
        poly = out
    return poly


def _schubert_make(rng):
    # CLI type A5 is the symmetric group S_6: the full flag variety of C^6.
    want = _schubert_expected(5)
    word = ",".join(map(str, longest_finite_word(5)))
    argv = ["poincare", "schubert", "--type", "A5", "--w", word]

    def oracle(res):
        return None if res.get("coefficients") == want else "full-flag product identity fails"

    return argv, oracle


def _reduce_make(rng):
    word = [rng.randint(1, 4) for _ in range(40)]
    u = window(word, 4)

    def oracle(res):
        got = res.get("word", [])
        if window(got, 4) != u:
            return "reduced word spells another element"
        if len(got) != length(u):
            return "word is not reduced"
        return None

    return ["coxeter", "reduce", "--type", "A~3", "--word", ",".join(map(str, word))], oracle


def _bruhat_make(rng):
    w = random_reduced_word(rng, 4, 10)
    if rng.random() < 0.5:
        keep = sorted(rng.sample(range(10), rng.randint(0, 9)))
        v, want = [w[i] for i in keep], True  # subword property
    else:
        while True:  # equal length, different element: incomparable
            v = random_reduced_word(rng, 4, 10)
            if window(v, 4) != window(w, 4):
                break
        want = False
    argv = ["coxeter", "bruhat", "--type", "A~3",
            "--v", ",".join(map(str, v)), "--w", ",".join(map(str, w))]
    return argv, lambda res: None if res == {"leq": want} else f"leq should be {want}"


def _codelta_cli_make(rng):
    n = 3
    x = dense_basis(rng, n, n + 1)
    word, w = planted(rng, n, 1, 4)
    cm = x @ borel(rng, n, "-")
    cp = x @ tb.weyl_matrix(w) @ borel(rng, n, "+")
    u = window(word, n)

    def oracle(res):
        return None if window(res.get("word", []), n) == u else "codistance differs from the planted one"

    # "--opt=value": a matrix may start with "-", which argparse would
    # take for an option if it were a separate argument.
    return ["codelta", "--cminus=" + matrix_text(cm), "--cplus=" + matrix_text(cp)], oracle


def _project_twin_cli():
    gate = _gate_make(3, 1)

    def make(rng):
        side, d, c, kept, want = inst = gate(rng)
        argv = ["project-twin", "--side", side, "--basis=" + matrix_text(d),
                "--keep", ",".join(map(str, sorted(kept))), "--chamber=" + matrix_text(c)]

        def oracle(res):
            rows = res.get("chamber")
            g = tb.chamber_from_basis(side, tb.LMat([[tb.parse_poly(e) for e in row] for row in rows]))
            face = tb.Simplex(tb.chamber_from_basis(side, d), kept)
            return _gate_check(inst, (g, face, tb.chamber_from_basis(_other(side), c)))

        return argv, oracle

    return make


def cli_strata():
    readme = [
        ("cosets", ["coxeter", "cosets", "--type", "A~3", "--quotient", "J=2,4", "--within", "K=1,2,4"],
         {"representatives": [[], [1], [2, 1], [4, 1], [2, 4, 1], [1, 2, 4, 1]]}),
        ("codelta-std", ["codelta", "--n", "3"], {"word": []}),
        ("loop", ["poincare", "loop", "--n", "4", "--deg", "6"], {"coefficients": [1, 0, 1, 0, 2, 0, 3]}),
        ("bott", ["poincare", "bott-check", "--k", "2", "--deg", "5"], {"equivalent": True}),
        ("spherical", ["veronese", "spherical", "--flag", "1,0", "--weights", "1"],
         {"matrix": [["-1/2", "0"], ["0", "1/2"]]}),
    ]
    strata = [Stratum("trivial", _length_make, None, None)]
    strata += [Stratum(name, _fixed(argv, expected), None, None) for name, argv, expected in readme]
    strata += [
        Stratum("trivial", _length_make, None, None),
        Stratum("schubert-A5", _schubert_make, None, None),
        Stratum("reduce", _reduce_make, None, None),
        Stratum("bruhat", _bruhat_make, None, None),
        Stratum("trivial", _length_make, None, None),
        Stratum("codelta.n3", _codelta_cli_make, None, None),
        Stratum("reduce", _reduce_make, None, None),
        Stratum("bruhat", _bruhat_make, None, None),
        Stratum("project-twin.n3", _project_twin_cli(), None, None),
    ]
    return strata


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------


# The reasons for each workload are in BENCHMARK.json and NOTES.md.
WORKLOADS = {
    "twin-gates": lambda: Workload(
        "twin-gates", twin_gates(), tail_pct=90, pool=60, trace_rate=5, setup_samples=7),
    "dense-distances": lambda: Workload(
        "dense-distances", dense_distances(), tail_pct=80, pool=16, trace_rate=2,
        setup_samples=5),
    "projectors": lambda: Workload(
        "projectors", projectors(), tail_pct=95, pool=24, trace_rate=5, setup_samples=5),
    "cli": lambda: Workload(
        "cli", cli_strata(), tail_pct=80, pool=8, trace_rate=4, setup_samples=9,
        in_process=False),
}
