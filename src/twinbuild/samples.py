"""Seeded random generators for group elements, chambers, and words.

Shared by the test suite and the self-check command so that the same
constructions drive both.  All functions take an explicit
``random.Random`` instance; nothing here touches global state.
"""

from __future__ import annotations

from fractions import Fraction

from .building import chamber_from_basis
from .exactalg import GaussRat, LMat, LP_ZERO, LaurentPoly, _col_sub
from .veronese import SubspaceFlag, projector_of, sl_loop_pair

__all__ = [
    "rand_gauss",
    "rand_unit",
    "rand_borel",
    "rand_sl",
    "rand_affine_word",
    "rand_opposite_pair",
    "rand_invertible_const",
    "rand_flag",
    "rand_weights",
    "rand_qi_unitary",
    "rand_projector",
    "rand_det1_loop",
]


def rand_gauss(rng, span=2):
    """A random Gaussian rational with small integer parts."""
    return GaussRat(
        Fraction(rng.randint(-span, span)),
        Fraction(rng.randint(-1, 1)),
    )


def rand_unit(rng, span=2):
    """A random nonzero Gaussian rational."""
    while True:
        c = rand_gauss(rng, span)
        if c:
            return c


def _diag_torus(rng, n, span=2):
    """A determinant-1 constant diagonal matrix."""
    units = [rand_unit(rng, span) for _ in range(n - 1)]
    last = GaussRat(1)
    for u in units:
        last = last * u.inverse()
    entries = units + [last]
    return LMat.diag([LaurentPoly({0: c}) for c in entries])


def rand_borel(rng, n, side, deg=2, steps=4):
    """A random element of B+ or B-: a determinant-1 constant diagonal
    times admissible elementary matrices, applied as column operations.

    Admissible z-exponents: on '+', d >= 0 above the diagonal and d >= 1
    below; on '-', d <= -1 above the diagonal and d <= 0 below.
    """
    cols = _diag_torus(rng, n).cols()
    for _ in range(steps):
        i = rng.randrange(n)
        j = rng.randrange(n)
        if i == j:
            continue
        if side == "+":
            d = rng.randint(0, deg) if i < j else rng.randint(1, deg)
        else:
            d = rng.randint(-deg, -1) if i < j else rng.randint(-deg, 0)
        c = rand_gauss(rng)
        if not c:
            continue
        cols[j] = _col_sub(cols[j], LaurentPoly({d: -c}), cols[i])
    return LMat._of(zip(*cols))


def rand_sl(rng, n, deg=2, steps=5):
    """A random determinant-1 matrix over the Laurent ring: a product of
    unrestricted elementary matrices, applied as column operations."""
    cols = LMat.identity(n).cols()
    for _ in range(steps):
        i = rng.randrange(n)
        j = rng.randrange(n)
        if i == j:
            continue
        d = rng.randint(-deg, deg)
        c = rand_gauss(rng)
        if not c:
            continue
        cols[j] = _col_sub(cols[j], LaurentPoly({d: -c}), cols[i])
    return LMat._of(zip(*cols))


def rand_affine_word(rng, n, maxlen=8):
    """A random word in the affine generators 1..n (not always reduced)."""
    return tuple(rng.randint(1, n) for _ in range(rng.randint(0, maxlen)))


def rand_opposite_pair(rng, n, deg=2):
    """A uniformly constructed opposite pair: both standard chambers of
    one random basis."""
    g = rand_sl(rng, n, deg)
    return chamber_from_basis("-", g), chamber_from_basis("+", g)


def rand_invertible_const(rng, n):
    """A determinant-1 constant matrix built from elementary row
    operations, returned as a grid of Gaussian rationals."""
    rows = [
        [GaussRat(1) if i == j else GaussRat(0) for j in range(n)]
        for i in range(n)
    ]
    for _ in range(2 * n):
        i, j = rng.sample(range(n), 2)
        c = rand_gauss(rng)
        rows[i] = [a + c * b for a, b in zip(rows[i], rows[j])]
    return rows


def rand_flag(rng, n):
    """A random full-rank frame cut into a flag of random signature."""
    frame = rand_invertible_const(rng, n)
    dims = sorted(rng.sample(range(1, n), rng.randint(1, n - 1)))
    return SubspaceFlag(n, [frame[:d] for d in dims])


def rand_weights(rng, count):
    """Positive rational barycentric weights summing to 1."""
    raw = [Fraction(rng.randint(1, 5)) for _ in range(count)]
    total = sum(raw)
    return [w / total for w in raw]


def rand_qi_unitary(rng, n):
    """A constant unitary over Q(i): permutation matrix with unit
    phases in {1, -1, i, -i}."""
    one = GaussRat(1)
    eye = GaussRat(0, 1)
    perm = list(range(n))
    rng.shuffle(perm)
    rows = [[LP_ZERO] * n for _ in range(n)]
    for j, i in enumerate(perm):
        rows[i][j] = LaurentPoly({0: rng.choice([one, -one, eye, -eye])})
    return LMat(rows)


def rand_projector(rng, n, k=None):
    """A projector whose kernel is a random subspace (dimension k when
    given)."""
    frame = rand_invertible_const(rng, n)
    if k is None:
        k = rng.randint(1, n - 1)
    return projector_of(frame[:k])


def rand_det1_loop(rng, n):
    """A random winding-free unitary loop: a determinant-one pair of
    projector loops mixed with constant unitaries."""
    k = rng.randint(1, n - 1)
    g = sl_loop_pair(rand_projector(rng, n, k), rand_projector(rng, n, k))
    u = rand_qi_unitary(rng, n)
    return u @ g @ u.star() if rng.random() < 0.5 else g @ u
