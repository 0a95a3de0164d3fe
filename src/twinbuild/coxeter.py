"""Coxeter systems of types A_{n-1} and affine A_{n-1}.

These are the Weyl groups of the paper's buildings (of SL_n over C and
over the Laurent polynomials), and the only kinds: a ``CoxeterMatrix``
is its type (kind, n), and its Coxeter graph is read off the type.
Words, deterministic normal forms, length, Bruhat order, parabolic coset
enumeration, and the affine Weyl group elements the building uses.

Group elements are *windows*: the tuple (u(1), ..., u(n)) of a
bijection u: Z -> Z with

    u(j + n) = u(j) + n      and      sum(u(j) - j) = 0

(Bjorner-Brenti, *Combinatorics of Coxeter Groups*, section 8.3).  The
finite symmetric group embeds as the genuine permutations, the affine
symmetric group as all such periodic bijections.  Generators: s_i for
i < n swaps i <-> i+1 (and its n-translates); s_n is the wrap-around swap
of n <-> n+1.  Windows compose as plain functions, length is the
inversion count of the periodic window, and descents read off
adjacent-value comparisons.  ``AffineWeylElt`` wraps a window; its
(perm, shifts) pair is only the monomial-matrix view of it.

>>> M = coxeter_matrix("finite-A", 3)
>>> reduce_word((1, 2, 1, 1, 2, 1), M)
()
>>> word_length((1, 2, 1), M)
3
>>> bruhat_leq((1,), (2,), M)
False
"""

from __future__ import annotations

from .errors import DomainError, _integer, check_rank
from .record import Record

__all__ = [
    "CoxeterMatrix",
    "coxeter_matrix",
    "reduce_word",
    "word_length",
    "bruhat_leq",
    "min_coset_reps",
    "longest_element",
    "AffineWeylElt",
    "word_to_affine",
    "affine_to_word",
    "word_to_window",
    "window_to_word",
    "wdescents_left",
    "coset_act",
    "coset_min_split",
    "min_double_coset_rep",
    "widentity",
    "wgen",
    "wcompose",
    "winvert",
    "wlength",
    "wdescents_right",
]


# ---------------------------------------------------------------------------
# Coxeter matrices
# ---------------------------------------------------------------------------


class CoxeterMatrix(Record):
    """The Coxeter system of a type: A_{n-1} (kind ``"finite-A"``, the
    path on the generators 1..n-1) or affine A_{n-1} (kind ``"affine-A"``,
    the cycle on 1..n).  n is the matrix size of SL_n and the window size
    of the permutation model.  So s_i s_j has order 3 between neighbours
    (in the affine cycle, for n >= 3, 1 and n are neighbours too), order
    2 between other distinct generators, and infinite order in affine A_1.

    >>> CoxeterMatrix("affine-A", 3).generators
    (1, 2, 3)
    >>> CoxeterMatrix("finite-A", 4).rank
    3
    """

    __slots__ = ("kind", "n")

    def __init__(self, kind: str, n: int):
        n = check_rank(n)
        if kind not in ("finite-A", "affine-A"):
            raise DomainError(f"unknown Coxeter kind {kind!r}")
        Record.__init__(self, kind, n)

    @property
    def rank(self) -> int:
        return self.n if self.is_affine() else self.n - 1

    @property
    def generators(self):
        return tuple(range(1, self.rank + 1))

    def is_affine(self) -> bool:
        return self.kind == "affine-A"


def coxeter_matrix(kind: str, n: int) -> CoxeterMatrix:
    """``CoxeterMatrix(kind, n)``; a function, not an alias, so that a
    tracer rebinding this name leaves the class in place."""
    return CoxeterMatrix(kind, n)


# ---------------------------------------------------------------------------
# Windows
# ---------------------------------------------------------------------------


def widentity(n):
    """The identity window (1, 2, ..., n)."""
    return tuple(range(1, n + 1))


def wgen(i, n):
    """Window of the generator s_i (1 <= i <= n; i = n is the affine node)."""
    if not 1 <= i <= n:
        raise DomainError(f"generator index {i} outside 1..{n}")
    u = list(range(1, n + 1))
    if i < n:
        u[i - 1], u[i] = u[i], u[i - 1]
    else:
        u[0] = 0
        u[n - 1] = n + 1
    return tuple(u)


def wcompose(u, v):
    """Window of the composite function u o v (first v, then u)."""
    n = len(u)
    out = [0] * n
    for j in range(n):
        val = v[j]
        r = (val - 1) % n
        m = (val - 1 - r) // n
        out[j] = u[r] + m * n
    return tuple(out)


def winvert(u):
    """Window of the inverse function."""
    n = len(u)
    out = [0] * n
    for j in range(n):
        val = u[j]
        r = (val - 1) % n
        m = (val - 1 - r) // n
        out[r] = j + 1 - m * n
    return tuple(out)


def wlength(u):
    """Coxeter length: number of inversions of the periodic window."""
    n = len(u)
    total = 0
    for a in range(n):
        ua = u[a]
        for b in range(a + 1, n):
            d = u[b] - ua
            if d > 0:
                total += d // n
            else:
                total += (-d) // n + 1
    return total


def wdescents_right(u):
    """Generators i with length(u s_i) < length(u), as a sorted tuple.

    For windows that are genuine permutations (the finite case) the
    wrap-around generator n never appears.
    """
    n = len(u)
    out = []
    for i in range(1, n):
        if u[i - 1] > u[i]:
            out.append(i)
    if u[n - 1] > u[0] + n:
        out.append(n)
    return tuple(out)


# ---------------------------------------------------------------------------
# Words
# ---------------------------------------------------------------------------


def _word_window(word, rank, n):
    """Multiply out a word over the generators 1..rank into a window of
    size n."""
    u = widentity(n)
    for i in word:
        i = _integer(i, "generator label")
        if not 1 <= i <= rank:
            raise DomainError(f"generator index {i} outside 1..{rank}")
        u = wcompose(u, wgen(i, n))
    return u


def word_to_window(word, M: CoxeterMatrix):
    """Multiply out a generator word into a window."""
    return _word_window(word, M.rank, M.n)


def wdescents_left(u):
    """Generators s with length(s u) < length(u)."""
    return wdescents_right(winvert(u))


def _window_word(u):
    """The lex-least reduced word of a window (see window_to_word)."""
    n = len(u)
    word = []
    e = widentity(n)
    while u != e:
        s = min(wdescents_left(u))
        word.append(s)
        u = wcompose(wgen(s, n), u)
    return tuple(word)


def window_to_word(u, M: CoxeterMatrix):
    """Deterministic normal form: the lexicographically least reduced word.

    Peels the smallest left descent repeatedly; the resulting word is the
    lex-least reduced expression under the order s_1 < s_2 < ...
    """
    return _window_word(u)


def reduce_word(word, M: CoxeterMatrix):
    """Normal form of a word: lex-least reduced expression of its element.

    >>> M = coxeter_matrix("finite-A", 3)
    >>> reduce_word((2, 1, 2), M)
    (1, 2, 1)
    """
    return window_to_word(word_to_window(word, M), M)


def word_length(word, M: CoxeterMatrix) -> int:
    """Coxeter length of the element spelled by the word."""
    return wlength(word_to_window(word, M))


# ---------------------------------------------------------------------------
# Bruhat order
# ---------------------------------------------------------------------------


def bruhat_leq(v, w, M: CoxeterMatrix) -> bool:
    """Bruhat order v <= w, by the lifting property.

    >>> M = coxeter_matrix("affine-A", 4)
    >>> bruhat_leq((4, 1), (2, 4, 1), M)
    True
    """
    # Lifting property, for a left descent s of w: if s is also a left
    # descent of v then v <= w iff sv <= sw, otherwise v <= w iff v <= sw.
    v, w = word_to_window(v, M), word_to_window(w, M)
    lv, lw = wlength(v), wlength(w)
    while lv < lw:
        s = min(wdescents_left(w))
        g = wgen(s, len(w))
        if s in wdescents_left(v):
            v = wcompose(g, v)
            lv -= 1
        w = wcompose(g, w)
        lw -= 1
    return v == w


# ---------------------------------------------------------------------------
# Parabolic quotients
# ---------------------------------------------------------------------------


def _check_subset(J, M: CoxeterMatrix):
    J = frozenset(_integer(i, "generator label") for i in J)
    for i in J:
        if not 1 <= i <= M.rank:
            raise DomainError(f"generator index {i} outside 1..{M.rank}")
    return J


def coset_act(s, u, J):
    """The generator s acting on the J-minimal window u as on the coset
    u W_J: s*u if that is J-minimal, else u, for then s*u = u*t with t in
    J (Deodhar's lemma, Bjorner-Brenti Lemma 2.5.1).

    >>> coset_act(1, (1, 2, 3), {2}), coset_act(2, (1, 2, 3), {2})
    ((2, 1, 3), (1, 2, 3))
    """
    v = wcompose(wgen(s, len(u)), u)
    return u if any(d in J for d in wdescents_right(v)) else v


def min_coset_reps(M: CoxeterMatrix, J, max_length: int, within=None):
    """All minimal-length representatives of cosets w W_J with length
    <= max_length, sorted by (length, lex); one per coset.

    With ``within = K`` (a generator subset containing J) the enumeration
    is restricted to the standard parabolic subgroup W_K, giving the
    quotient W_K / W_J.

    The breadth-first levels of ``_coset_levels``, spelled as words.

    >>> M = coxeter_matrix("affine-A", 4)
    >>> min_coset_reps(M, {2, 4}, 4, within={1, 2, 4})[:3]
    [(), (1,), (2, 1)]
    """
    if max_length < 0:
        raise DomainError(f"max_length = {max_length} must be >= 0")
    J = _check_subset(J, M)
    if within is None:
        gens = list(M.generators)
    else:
        K = _check_subset(within, M)
        if not J <= K:
            raise DomainError("within must contain J")
        gens = sorted(K)
    words = [window_to_word(u, M) for level in _coset_levels(M.n, J, gens, max_length)
             for u in level]
    words.sort(key=lambda w: (len(w), w))
    return words


def _coset_levels(n, J, gens, max_length):
    """The J-minimal windows of W_K / W_J by length, K = ``gens``: level l
    lists those of length l, for l <= max_length.  A breadth-first search
    of ``coset_act``: a representative first met from length l has length
    l + 1, as the shorter ones were met before."""
    level = [widentity(n)]
    seen = set(level)
    levels = [level]
    for _ in range(max_length):
        level = []
        for u in levels[-1]:
            for s in gens:
                v = coset_act(s, u, J)
                if v not in seen:
                    seen.add(v)
                    level.append(v)
        if not level:
            break
        levels.append(level)
    return levels


def coset_min_split(u, J):
    """Split a window as u = u_min * u_J with u_min J-minimal, u_J in W_J.

    Returns the pair of windows; lengths add.
    """
    n = len(u)
    uj = widentity(n)
    while True:
        ds = [s for s in wdescents_right(u) if s in J]
        if not ds:
            return u, uj
        s = ds[0]
        g = wgen(s, n)
        u = wcompose(u, g)
        uj = wcompose(g, uj)


def min_double_coset_rep(u, J, K):
    """The unique minimal-length element of the double coset W_J u W_K."""
    n = len(u)
    while True:
        lds = [s for s in wdescents_left(u) if s in J]
        if lds:
            u = wcompose(wgen(lds[0], n), u)
            continue
        rds = [s for s in wdescents_right(u) if s in K]
        if rds:
            u = wcompose(u, wgen(rds[0], n))
            continue
        return u


def longest_element(M: CoxeterMatrix):
    """The longest element of a finite type-A system, as a word.

    >>> longest_element(coxeter_matrix("finite-A", 3))
    (1, 2, 1)
    """
    if M.is_affine():
        raise DomainError("the group is infinite; no longest element")
    n = M.n
    w0 = tuple(range(n, 0, -1))
    return window_to_word(w0, M)


# ---------------------------------------------------------------------------
# Affine Weyl group elements
# ---------------------------------------------------------------------------


class AffineWeylElt(Record):
    """An affine Weyl group element.  Its window is the element, and the
    group law is ``wcompose``/``winvert``/``wlength`` on it.  The derived
    (perm, shifts) = (pi, k), which the constructor takes, is the monomial
    matrix e_j -> z^{k_{pi(j)}} e_{pi(j)}: u(j) = pi(j) - n k_{pi(j)}, and
    the shifts sum to zero.

    >>> AffineWeylElt((2, 1), (-1, 1)).window
    (0, 3)
    """

    __slots__ = ("window",)

    def __init__(self, perm: tuple, shifts: tuple):
        perm = [_integer(p, "perm entry") for p in perm]
        shifts = [_integer(k, "shift") for k in shifts]
        n = len(perm)
        _check_element(perm, len(shifts), sum(shifts))
        Record.__init__(self, tuple([p - n * shifts[p - 1] for p in perm]))

    @staticmethod
    def from_window(u) -> "AffineWeylElt":
        u = tuple([_integer(v, "window entry") for v in u])
        n = len(u)
        # u(j) = pi(j) - n k_{pi(j)}: pi(j) = (u(j) - 1) % n + 1, and the
        # shifts sum to (n(n+1)/2 - sum(u)) / n.
        _check_element([(v - 1) % n + 1 for v in u], n, n * (n + 1) // 2 - sum(u))
        elt = object.__new__(AffineWeylElt)
        Record.__init__(elt, u)
        return elt

    @staticmethod
    def identity(n: int) -> "AffineWeylElt":
        return AffineWeylElt.from_window(widentity(n))

    @property
    def n(self):
        return len(self.window)

    @property
    def perm(self):
        n = self.n
        return tuple((v - 1) % n + 1 for v in self.window)

    @property
    def shifts(self):
        n = self.n
        shifts = [0] * n
        for v in self.window:
            k, r = divmod(v - 1, n)
            shifts[r] = -k
        return tuple(shifts)

    def compose(self, other: "AffineWeylElt") -> "AffineWeylElt":
        """Group product self * other (matrix product of monomial forms)."""
        if self.n != other.n:
            raise DomainError("size mismatch")
        return AffineWeylElt.from_window(wcompose(self.window, other.window))

    def inverse(self) -> "AffineWeylElt":
        return AffineWeylElt.from_window(winvert(self.window))

    def length(self) -> int:
        return wlength(self.window)

    def __repr__(self):
        return f"AffineWeylElt(perm={self.perm!r}, shifts={self.shifts!r})"

    def __reduce__(self):
        return AffineWeylElt, (self.perm, self.shifts)


def _check_element(perm, shifts_len, shifts_sum):
    """The one check of both constructors of AffineWeylElt: DomainError
    unless perm is a permutation of 1..n and the shifts (of the given
    length and sum; n times their sum will do) have length n and sum 0."""
    n = len(perm)
    if sorted(perm) != list(range(1, n + 1)):
        raise DomainError("perm is not a permutation of 1..n")
    if shifts_len != n or shifts_sum:
        raise DomainError("shifts must have length n and sum 0")


def word_to_affine(word, n: int) -> AffineWeylElt:
    """Multiply out a word over the affine A_{n-1} generators 1..n.

    >>> word_to_affine((2,), 2)
    AffineWeylElt(perm=(2, 1), shifts=(-1, 1))
    """
    check_rank(n)
    return AffineWeylElt.from_window(_word_window(word, n, n))


def affine_to_word(elt: AffineWeylElt):
    """Normal-form word of an affine permutation."""
    check_rank(elt.n)
    return _window_word(elt.window)
