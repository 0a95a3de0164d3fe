"""Chambers of the positive/negative buildings for SL_n over Laurent
polynomials: Weyl distance and codistance, gates (projections), twin
projections across the two halves, and Schubert-cell coordinates.

Conventions
-----------
A plus chamber is a coset g*B+ where B+ consists of matrices with
polynomial entries, determinant 1, and upper-triangular value at z = 0.
The minus Borel B- is the opposite one: entries polynomial in 1/z,
determinant 1, and LOWER-triangular value at z = infinity; with this
pair the two standard chambers built from one basis are opposite, and
exactly one chamber of every panel maximizes the codistance.

Representatives are normalised on construction: right multiplication by
a power of the chain-shift matrix (whose n-th power is z) takes the
determinant valuation to exactly 0.  With that
normalisation chain position p of a representative carries the vertex of
type p, relative positions read off the reduction engine are genuine
affine Weyl elements (shift vectors summing to zero), and two
representatives give equal chambers exactly when they differ by the
side's Borel (up to constant diagonals).  Chambers compare equal when
their Weyl distance is 1, which holds exactly when they share every
vertex class, so the rotation is invisible to callers.

Monomial Weyl representatives are shared by the two sides: for the
window entry u(j) = r - n k (1 <= r <= n), column j of n_w holds z^k in
row r, and the engine reads u(j) = i - n e off a column led by z^e in
row i.  The twin apartment of a basis x is the chambers x*n_w*B(side) on
both sides, with codelta(x n_v B-, x n_w B+) = v^{-1} w.

Right products by n_w, by the chain shift, by the engine's lead
monomials and by their inverse are column moves in one helper,
``_move_cols``, and the left products by their inverses that carried
inverses need are row moves in ``_move_rows``: none goes through the
Laurent matmul.

Both gates come from one run of the reduction engine.  For a chamber c
and the carrier d of a face, the engine factors c.rep^{-1} d.rep as
b_L m b^{-1} (b_L in c's Borel, m monomial, b in d's Borel), so the
basis c.rep b_L m0^{-1} (m0 the monomial part) spans an apartment -- a
twin apartment when the sides differ -- holding c at 1 and d at the
position of m.  The gate lies in that apartment, where the residue of
the face is a coset of the finite group W_J: project takes its shortest
element, project_twin its longest.

The engine records its column operations, so each run also returns b:
``bruhat_factors`` gives the Iwahori-Bruhat factorisation (same sides) or
the Birkhoff factorisation (opposite sides).  It returns its reduced
columns, not a matrix, and rescans only the column an operation changed.
A gate is c.rep r N = d.rep b N (r = c.rep^{-1} d.rep b the reduced
matrix, N monomial), built by replaying the operations on the columns
of d.rep, and every chamber the library builds carries its inverse as a
lazy product of known pieces:
G^{-1} = N^{-1} b^{-1} d.rep^{-1} replays them as row operations on d's
inverse, then moves rows.  The common basis x = cp.rep b, the panel
chambers and the decoded chambers invert the same way.  The minor table
inverts only the chambers a caller validated, each once.  Two chambers
on equal representatives are at relative position 1, and the engine
reads that off the identity's columns, with no inverse and no product:
an opposite pair on one basis (the standard pair, every pair of
``samples.rand_opposite_pair``) has the common basis cp.rep rescaled,
and inverts only cp.

Schubert-cell coordinates are root-group coordinates: the chambers at
Weyl distance w = s_1 ... s_l (reduced) from cp = x B+ are x x_{s_1}(t_1)
n_{s_1} ... x_{s_l}(t_l) n_{s_l} B+, one for each t in Q(i)^l, with x the
normalised common basis of (dm, cp) (see common_basis).  A panel's chart
is the same step on its carrier g: the chambers through the panel of
cotype s are g and the g x_s(t) n_s, t in Q(i) (see panel_chamber).  The
step and its inverse are lattice's (_root_cols, _root_rows), and a cell
coordinate and a panel parameter are read the same way, off the engine
run each already makes (_read, which moves columns inside the rows).
The pair keeps x on cp, so a decode after an encode over the same
objects runs no engine.
"""

from __future__ import annotations

from functools import partial

from .coxeter import (
    AffineWeylElt,
    _window_word,
    affine_to_word,
    coset_min_split,
    min_double_coset_rep,
    wcompose,
    wdescents_right,
    wgen,
    widentity,
    winvert,
    word_to_affine,
)
from .errors import DomainError, NotInvertibleError, check_rank
from .exactalg import (
    LMat,
    LP_ONE,
    LP_ZERO,
    LaurentPoly,
    QI_ONE,
    _chain_det,
    _col_sub,
    _lp,
    _scalar,
    _top_minors,
)
from .lattice import INF, PanelChart, _check_side, _node_of_position, vertex_classes_of_basis
from .lattice import _root, _root_cols, _root_rows
from .record import Record

__all__ = [
    "Chamber",
    "Simplex",
    "TwinPosition",
    "chamber_from_basis",
    "standard_chamber",
    "borel_membership",
    "bruhat_factors",
    "weyl_matrix",
    "delta",
    "codelta",
    "delta_word",
    "codelta_word",
    "opposite",
    "simplex_delta",
    "project",
    "project_twin",
    "common_basis",
    "panel_chamber",
    "panel_parameter",
    "encode_coords",
    "decode_coords",
]


def _moved(vecs, u, coeffs, sign):
    """Vector j of the result is c z^{sign k} times vector r of vecs, where
    u(j) - 1 = r + n k and c is coeffs[j] (1 without coeffs, and then a
    shift of exponents)."""
    n = len(u)
    out = []
    for j, v in enumerate(u):
        k, r = divmod(v - 1, n)
        c, vec, k = coeffs[j] if coeffs else QI_ONE, vecs[r], sign * k
        if c.b or c.a != c.d:
            vec = [_lp({e + k: c * x for e, x in a.coeffs.items()}) for a in vec]
        elif k:
            vec = [a.shift(k) for a in vec]
        out.append(vec)
    return out


def _move_cols(cols, u, coeffs=None) -> LMat:
    """mat n_u diag(coeffs), for the columns of mat, by moving columns:
    column j of the product is c z^{-k} times column r of mat, where
    u(j) - 1 = r + n k and c is coeffs[j]."""
    return LMat._of(zip(*_moved(cols, u, coeffs, -1)))


def _move_rows(rows, u, coeffs=None) -> LMat:
    """diag(coeffs) n_u^{-1} mat, for the rows of mat, by moving rows: row j
    of the product is c z^k times row r of mat, where u(j) - 1 = r + n k and
    c is coeffs[j].  So (mat n_u diag(c))^{-1} = _move_rows(mat^{-1}.rows, u, 1/c)."""
    return LMat._of(_moved(rows, u, coeffs, 1))


def _moved_inverse(inv_of, u):
    """(mat n_u)^{-1} = _move_rows(mat^{-1}, u), with inv_of() = mat^{-1}."""
    return _move_rows(inv_of().rows, u)


class Chamber:
    """A chamber of one half of the twin building, held by a normalised
    ordered basis of its lattice chain.  Each vertex class costs one
    Hermite form, so it is computed when a caller first reads it:
    ``_chain[p]`` is the class at chain position p, or None until then.

    The inverse of the representative is carried or computed once, when
    ``_relpos`` first asks for it.  A chamber the library built carries it
    as a lazy product of known pieces (see the module notes): the inverse
    of its base chamber ``_base`` and ``_inv_of``, which takes that to its
    own.  A chamber a caller validated has no base and computes it from
    the top minor chain of its determinant check (``LMat._inv_from``),
    and moves rows when its basis needed alignment.

    A plus chamber cp that encode_coords or decode_coords paired with an
    opposite minus chamber dm keeps (dm, the normalised common basis) in
    ``_twin``, reused only for the same dm object."""

    __slots__ = ("side", "rep", "n", "_chain", "_classes", "_inv", "_inv_of", "_base", "_twin")

    def __init__(self, side, rep: LMat):
        _check_side(side)
        if rep.nrows != rep.ncols:
            raise DomainError("chamber representative must be square")
        check_rank(rep.nrows)
        minors = _top_minors(rep.rows)
        det = _chain_det(minors)
        if not det.is_unit_monomial():
            raise NotInvertibleError("chamber representative is degenerate")
        inv_of = partial(rep._inv_from, minors)
        d = int(det.val0())
        if d:
            # Normalise (module notes): n_u is the power of the chain shift
            # that takes the determinant valuation d to 0.
            u = range(1 + d, rep.nrows + 1 + d)
            rep, inv_of = _move_cols(rep.cols(), u), partial(_moved_inverse, inv_of, u)
        self._set(side, rep, None, inv_of)

    @classmethod
    def _built(cls, side, rep: LMat, base: "Chamber", inv_of) -> "Chamber":
        """A chamber whose representative the library built as a product
        of aligned factors (a base chamber's representative, engine column
        operations, m0^{-1}, n_w, root-group steps), so its determinant is a
        constant: no determinant check and no alignment.  ``inv_of(inv)``
        returns rep^{-1} from inv = base.rep^{-1} and the inverses of the
        other factors (a partial, so the chamber pickles)."""
        c = object.__new__(cls)
        c._set(side, rep, base, inv_of)
        return c

    def _set(self, side, rep, base, inv_of):
        self.side = side
        self.rep = rep
        self.n = rep.nrows
        self._chain = [None] * self.n
        self._classes = None
        self._inv = None
        self._inv_of = inv_of
        self._base = base
        self._twin = None

    def _inverse(self) -> LMat:
        """rep^{-1}, computed on first use and kept; what it was computed
        from (a minor chain, a base and the pieces of a product) is
        dropped.  The bases still waiting for their inverse are walked in
        a loop, not by recursion: a gallery of gates, each the base of the
        next, can be longer than the interpreter's recursion limit."""
        waiting, c = [], self
        while c is not None and c._inv is None:
            waiting.append(c)
            c = c._base
        for c in reversed(waiting):
            base, c._base = c._base, None
            c._inv = c._inv_of(base._inv) if base is not None else c._inv_of()
            c._inv_of = None
        return self._inv

    def _vertices(self, positions):
        """The vertex classes at the given chain positions, computing only
        those not read before."""
        chain = self._chain
        missing = [p for p in positions if chain[p] is None]
        if missing:
            found = vertex_classes_of_basis(self.side, self.rep, missing)
            for p, cls in zip(missing, found):
                chain[p] = cls
        return [chain[p] for p in positions]

    @property
    def chain_classes(self):
        """Vertex classes in chain order; position p carries type p."""
        return tuple(self._vertices(range(self.n)))

    @property
    def classes(self):
        if self._classes is None:
            self._classes = frozenset(self.chain_classes)
        return self._classes

    def _type(self, t):
        if not isinstance(t, int) or not 0 <= t < self.n:
            raise DomainError(f"vertex types are 0..{self.n - 1}, got {t!r}")
        return t

    def vertex(self, t: int):
        """The vertex class of type t; a type outside 0..n-1 raises DomainError."""
        return self._vertices([self._type(t)])[0]

    def face(self, kept_types) -> "Simplex":
        return Simplex(self, kept_types)

    def panel(self, drop_type: int) -> "Simplex":
        return Simplex(self, set(range(self.n)) - {self._type(drop_type)})

    def __eq__(self, other):
        """Same side, same n, and Weyl distance 1: one engine run."""
        if not isinstance(other, Chamber):
            return NotImplemented
        if self.side != other.side or self.n != other.n:
            return False
        return _relpos(self, other)[0] == widentity(self.n)

    def __hash__(self):
        # equal chambers share every vertex, the type-0 one included
        return hash((self.side, self.vertex(0)))

    def __repr__(self):
        return f"<Chamber {self.side} n={self.n}>"


def chamber_from_basis(side, basis: LMat) -> Chamber:
    """The chamber whose lattice chain is spanned by the ordered basis."""
    return Chamber(side, basis)


def standard_chamber(side, n: int) -> Chamber:
    return Chamber(side, LMat.identity(n))


class Simplex:
    """A face of a chamber: the vertex classes at the kept types (0..n-1)."""

    __slots__ = ("carrier", "kept_types")

    def __init__(self, carrier: Chamber, kept_types):
        kept = frozenset(map(carrier._type, kept_types))
        if not kept:
            raise DomainError("empty face")
        self.carrier = carrier
        self.kept_types = kept

    @property
    def side(self):
        return self.carrier.side

    @property
    def n(self):
        return self.carrier.n

    @property
    def classes(self):
        return frozenset(self.carrier._vertices(self.kept_types))

    def cotype_nodes(self):
        """Labels of the generators moving this face's residue."""
        n = self.n
        return tuple(
            sorted(
                _node_of_position(p, n, self.side)
                for p in range(n)
                if p not in self.kept_types
            )
        )

    def __eq__(self, other):
        if not isinstance(other, Simplex):
            return NotImplemented
        return self.side == other.side and self.classes == other.classes

    def __hash__(self):
        return hash((self.side, self.classes))

    def __repr__(self):
        return f"<Simplex {self.side} types={sorted(self.kept_types)}>"


# ---------------------------------------------------------------------------
# Borel membership and monomial Weyl representatives
# ---------------------------------------------------------------------------


def borel_membership(side, mat: LMat) -> bool:
    """Is the matrix in B+ / B-?

    B+: polynomial entries, strictly-lower entries divisible by z (so the
    value at z = 0 is upper triangular).  B-: entries polynomial in 1/z,
    strictly-upper entries divisible by 1/z (value at z = infinity lower
    triangular).  Determinant 1 is a precondition on both sides.
    """
    _check_side(side)
    if mat.nrows != mat.ncols:
        raise DomainError("borel membership needs a square matrix")
    if mat.det() != LP_ONE:
        raise DomainError("borel membership is defined for determinant 1")
    if side == "-":
        mat = mat.subs_zinv()
    n = mat.nrows
    for i in range(n):
        for j in range(n):
            e = mat[i, j]
            lo = i > j if side == "+" else i < j
            if e and e.val0() < (1 if lo else 0):
                return False
    return True


def weyl_matrix(elt: AffineWeylElt) -> LMat:
    """The monomial representative n_w: z^{k_i} in row i = perm(j)-1 of
    column j.  Both halves of the twin building use the same matrices.

    >>> print(weyl_matrix(word_to_affine((2,), 2)))
    [0, z^-1]
    [z, 0]
    """
    return _move_cols(LMat.identity(len(elt.window)).cols(), elt.window)


# ---------------------------------------------------------------------------
# The reduction engine
# ---------------------------------------------------------------------------
#
# Bruhat/Birkhoff normal forms share one elimination.  Columns of
# a = g^{-1} h are reduced by right column operations col_j' += c z^d col_j
# legal for the Borel of h's side:
#
#   right '+':  d >= 0, and d >= 1 when j > j'   (value at 0 upper)
#   right '-':  d <= 0, and d <= -1 when j < j'  (value at infinity lower)
#
# Each column has a "leading" support point (exponent, row), minimal for
# the key of g's side:
#
#   left '+':  (e, -i)   lowest exponent, bottom-most row
#   left '-':  (-e, i)   highest exponent, top-most row
#
# so that dividing the finished columns by their leading monomials leaves
# a matrix in the left Borel (up to constant diagonals).  While two
# columns lead in the same row, the admissible one reduces the other: for
# right '+' the smaller exponent wins with ties to the left, for right
# '-' the larger exponent wins with ties to the right; either way the
# reduced column's leading point strictly increases in key order and the
# exponents stay inside a window fixed by the determinant, so the loop
# terminates with all leading rows distinct.  Reading off the leading
# monomials gives the relative position.  Only the reduced column changes
# in an operation, so the engine keeps every column's lead and rescans
# just the columns it reduced.
#
# Each operation col_j2 -= f col_jr is recorded as (j2, f, jr), so b, the
# product of the operations, is known without a matrix product: replayed
# in order on the columns of 1 they give b, and replayed in order as the
# row operations row_jr += f row_j2 they give b^{-1} mat.


def _lead(col, key_plus):
    best = None
    for i, p in enumerate(col):
        for e, c in p.coeffs.items():
            k = (e, -i) if key_plus else (-e, i)
            if best is None or k < best[0]:
                best = (k, e, i, c)
    if best is None:
        raise NotInvertibleError("zero column during reduction")
    return best[1], best[2], best[3]


def _reduce(cols, key_plus, ops_plus):
    """Reduce columns in place until leading rows are distinct; returns
    the final leadings [(exponent, row, coefficient)] and the operations
    [(j2, f, jr)] in the order they were made.  Each column is scanned
    (``_lead``) once at the start and once after each operation on it."""
    ops = []
    leads = [_lead(c, key_plus) for c in cols]
    while True:
        byrow = {}
        for j, (e, i, _) in enumerate(leads):
            byrow.setdefault(i, []).append(j)
        clash = None
        for js in byrow.values():
            if len(js) > 1:
                clash = js
                break
        if clash is None:
            return leads, ops
        if ops_plus:
            jr = min(clash, key=lambda j: (leads[j][0], j))
        else:
            jr = min(clash, key=lambda j: (-leads[j][0], -j))
        er, _, cr = leads[jr]
        for j2 in clash:
            if j2 == jr:
                continue
            e2, _, c2 = leads[j2]
            f = LaurentPoly({e2 - er: c2 / cr})
            cols[j2] = _col_sub(cols[j2], f, cols[jr])
            leads[j2] = _lead(cols[j2], key_plus)
            ops.append((j2, f, jr))


def _relpos(c: Chamber, d: Chamber):
    """Normal form of a = c.rep^{-1} d.rep relative to (c's Borel, d's
    Borel).

    Returns (u, cols, leads, ops): the window of the monomial read-off,
    the engine's columns of the reduced matrix r = a b (b in d's Borel, the
    product of the engine's column operations ops; no LMat is built for
    r), and the leading monomials of r.  Equal representatives (by value)
    give a = 1 with no minor table and no product, and the engine returns
    (1, the columns of 1, unit leads, []).
    """
    if c.n != d.n:
        raise DomainError("dimension mismatch")
    n = c.n
    if c.rep == d.rep:
        cols = [[LP_ONE if i == j else LP_ZERO for i in range(n)] for j in range(n)]
    else:
        cols = list(map(list, zip(*(c._inverse() @ d.rep).rows)))
    leads, ops = _reduce(cols, c.side == "+", d.side == "+")
    u = tuple(i + 1 - n * e for e, i, _ in leads)
    if sum(e for e, _, _ in leads):
        raise DomainError("read-off shifts do not sum to 0; not an affine Weyl element")
    return u, cols, leads, ops


def _replay_cols(ops, cols):
    """The columns of mat b, for the list ``cols`` of mat's columns
    (changed in place and returned) and b the product of the engine
    operations ops."""
    for j2, f, jr in ops:
        cols[j2] = _col_sub(cols[j2], f, cols[jr])
    return cols


def _replay_rows(ops, rows):
    """The rows of b^{-1} mat, for the list ``rows`` of mat's rows (changed
    in place and returned) and b the product of the engine operations
    ops."""
    for j2, f, jr in ops:
        rows[jr] = _col_sub(rows[jr], -f, rows[j2])
    return rows


def _lead_move(rel, w):
    """(v, lc) with b_L n_w = r diag(lc)^{-1} n_v, for rel = (u, r, leads,
    ops) = _relpos(., .): r = b_L n_u diag(c_j), c_j the lead coefficients,
    so v = u^{-1} w, and diag(c)^{-1} n_v = n_v diag(lc)^{-1} with lc[j]
    the lead coefficient of the column that n_v moves to position j."""
    u, _, leads, _ = rel
    v = wcompose(winvert(u), w)
    return v, [leads[(x - 1) % len(v)][2] for x in v]


def _gate(side, d: Chamber, rel, w) -> Chamber:
    """The chamber c.rep b_L n_w on the given side, for rel = _relpos(c, d):
    c.rep b_L is the basis of an apartment through c, with c at the
    identity, and this is its chamber at w.  As c.rep r = d.rep b, its
    representative is G = d.rep b N, N = n_v diag(lc)^{-1}: the operations
    replayed on d.rep's columns, which are then moved and scaled, one
    matrix built.  It carries G^{-1} = N^{-1} b^{-1} d.rep^{-1}."""
    v, lc = _lead_move(rel, w)
    rep = _move_cols(_replay_cols(rel[3], d.rep.cols()), v, [x.inverse() for x in lc])
    return Chamber._built(side, rep, d, partial(_gate_inverse, rel[3], v, lc))


def _gate_inverse(ops, v, lc, inv: LMat) -> LMat:
    """N^{-1} b^{-1} inv, for b the product of ops and N = n_v diag(lc)^{-1}
    (see _gate)."""
    return _move_rows(_replay_rows(ops, list(inv.rows)), v, lc)


def bruhat_factors(c: Chamber, d: Chamber):
    """The factors (b_L, w, t, b) of c.rep^{-1} d.rep = b_L n_w t b^{-1},
    read off one engine run: b_L in c's Borel up to a constant
    determinant, w the Weyl distance (same sides) or codistance (opposite
    sides), t the constant diagonal of lead coefficients, and b in d's
    Borel, the product of the recorded column operations.  On one side
    this is the Iwahori-Bruhat decomposition, across the two sides the
    Birkhoff factorisation.

    >>> c, d = standard_chamber("+", 2), standard_chamber("-", 2)
    >>> b_l, w, t, b = bruhat_factors(c, d)
    >>> w.length(), b_l == t == b == LMat.identity(2)
    (0, True)
    """
    rel = _relpos(c, d)
    u, cols, leads, ops = rel
    v, lc = _lead_move(rel, widentity(c.n))
    b_l = _move_cols(cols, v, [x.inverse() for x in lc])
    t = LMat.diag([x for _, _, x in leads])
    b = LMat.from_cols(_replay_cols(ops, LMat.identity(c.n).cols()))
    return b_l, AffineWeylElt.from_window(u), t, b


# ---------------------------------------------------------------------------
# Weyl distance and codistance
# ---------------------------------------------------------------------------


def delta(c: Chamber, d: Chamber) -> AffineWeylElt:
    """Weyl distance between chambers on the same side."""
    if c.side != d.side:
        raise DomainError("delta needs chambers on the same side; use codelta")
    return AffineWeylElt.from_window(_relpos(c, d)[0])


def codelta(c: Chamber, d: Chamber) -> AffineWeylElt:
    """Codistance between chambers on opposite sides (either order;
    codelta(c, d) == codelta(d, c)^{-1})."""
    if c.side == d.side:
        raise DomainError("codelta needs chambers on opposite sides; use delta")
    return AffineWeylElt.from_window(_relpos(c, d)[0])


def delta_word(c: Chamber, d: Chamber):
    """Weyl distance as a normal-form word."""
    return affine_to_word(delta(c, d))


def codelta_word(c: Chamber, d: Chamber):
    """Codistance as a normal-form word."""
    return affine_to_word(codelta(c, d))


def opposite(cminus: Chamber, cplus: Chamber) -> bool:
    """Are the chambers opposite (codistance 1)?"""
    return codelta(cminus, cplus) == AffineWeylElt.identity(cminus.n)


class TwinPosition(Record):
    """Relative position of two simplices: the minimal double-coset
    representative word framed by the two residues' generator sets."""

    __slots__ = ("left", "word", "right")

    def __init__(self, left: tuple, word: tuple, right: tuple):
        object.__setattr__(self, "left", left)
        object.__setattr__(self, "word", word)
        object.__setattr__(self, "right", right)


def simplex_delta(x: Simplex, y: Simplex) -> TwinPosition:
    """W_J w W_K position of two same-side simplices."""
    if x.side != y.side:
        raise DomainError("simplex_delta needs simplices on the same side")
    j, k = x.cotype_nodes(), y.cotype_nodes()
    u = _relpos(x.carrier, y.carrier)[0]
    return TwinPosition(j, _window_word(min_double_coset_rep(u, set(j), set(k))), k)


# ---------------------------------------------------------------------------
# Projections (gates)
# ---------------------------------------------------------------------------


def project(x: Simplex, c: Chamber) -> Chamber:
    """The gate: the chamber of the residue of x nearest to c.

    Constructively: factor a = g_c^{-1} g_x as b_L m b^{-1} through the
    reduction engine, split delta(c, x) = w_min u with u in the residue
    group W_J, and return g_c b_L n_{w_min}.
    """
    if x.side != c.side:
        raise DomainError("project needs a face and a chamber on the same side")
    rel = _relpos(c, x.carrier)
    wmin, _ = coset_min_split(rel[0], set(x.cotype_nodes()))
    return _gate(c.side, x.carrier, rel, wmin)


# ---------------------------------------------------------------------------
# Twin projections
# ---------------------------------------------------------------------------


def project_twin(x: Simplex, c: Chamber) -> Chamber:
    """The twin gate: the chamber of the residue of x with the longest
    codistance to the opposite-side chamber c.

    Constructively, like project: one engine run on a = g_c^{-1} g_d
    (d the carrier of x) factors it as b_L m b^{-1}, so the basis
    g_c b_L m0^{-1} spans a twin apartment holding c at 1 and d at
    w = codelta(c, d).  The gate lies in every twin apartment through c
    that meets the residue, and there the residue is the chambers at
    w W_J, with codistance to c equal to their position; so the gate is
    the chamber at the longest element of w W_J, reached by right ascent
    (W_J is finite because x is not empty).
    """
    if x.side == c.side:
        raise DomainError("project_twin needs a face and a chamber on opposite sides")
    n = c.n
    rel = _relpos(c, x.carrier)
    u, jset = rel[0], x.cotype_nodes()
    while True:
        up = [s for s in jset if s not in wdescents_right(u)]
        if not up:
            break
        u = wcompose(u, wgen(up[0], n))
    return _gate(x.side, x.carrier, rel, u)


# ---------------------------------------------------------------------------
# Opposite pairs and Schubert-cell coordinates
# ---------------------------------------------------------------------------


def common_basis(cm: Chamber, cp: Chamber) -> LMat:
    """A basis x with chamber_from_basis('-', x) = cm and
    chamber_from_basis('+', x) = cp; exists exactly for opposite pairs.
    It is unique up to a constant diagonal, so each column is divided by
    its first nonzero coefficient (the top-most nonzero entry, at its
    lowest exponent): x depends on the chambers only."""
    return _common_chamber(cm, cp).rep


def _common_chamber(cm: Chamber, cp: Chamber) -> Chamber:
    """cp held by the normalised common basis x = cm.rep r diag(lc)^{-1} =
    cp.rep b diag(lc)^{-1}, carrying x^{-1} = diag(lc) b^{-1} cp.rep^{-1}.
    On a pair with equal representatives the engine runs on 1 and b = 1:
    x is cp.rep rescaled, x^{-1} is diag(lc) cp.rep^{-1}, and cm is never
    inverted."""
    if cm.side != "-" or cp.side != "+":
        raise DomainError("common_basis takes a minus chamber then a plus chamber")
    rel = _relpos(cm, cp)
    if rel[0] != widentity(cm.n):
        raise DomainError("chambers are not opposite")
    ops = rel[3]
    cols = _replay_cols(ops, cp.rep.cols())
    lc = [next(a.coeffs[a.val0()] for a in col if a) for col in cols]
    ident = widentity(cm.n)
    rep = _move_cols(cols, ident, [c.inverse() for c in lc])
    return Chamber._built("+", rep, cp, partial(_gate_inverse, ops, ident, lc))


def _gap(panel: Simplex, caller) -> int:
    if len(panel.kept_types) != panel.n - 1:
        raise DomainError(f"{caller} needs a panel (exactly one type missing)")
    (gap,) = set(range(panel.n)) - panel.kept_types
    return gap


def _parameter(t):
    """A coordinate or a panel parameter as the library reads it: INF, or
    an int, a Fraction or a GaussRat as a GaussRat; any other type raises
    the scalar layer's TypeError."""
    return INF if t == INF else _scalar(t)


def _unroot(side, letters, inv: LMat) -> LMat:
    """g^{-1} inv for g = x_{s_1}(t_1) n_{s_1} ... x_{s_k}(t_k) n_{s_k}, the
    letters being the pairs (s, t): one row step (_root_rows) per letter.
    With inv the inverse of a basis h, this is the inverse of h g."""
    rows = list(inv.rows)
    for s, t in letters:
        _root_rows(rows, s, t, side)
    return LMat._of(rows)


def _read(rel, word, side):
    """Yields the root-group coordinates of word off one engine run rel =
    _relpos(g, c), for c = g x_{s_1}(t_1) n_{s_1} ... x_{s_l}(t_l) n_{s_l}
    B on the given side: the run writes c = g b n_w B with b in the side's
    Borel.  For each letter s, t is b's entry at the root (i, j, e) of s,
    at z^e, over b_jj at z^0; then b becomes n_s^{-1} x_s(-t) b n_s: a row
    step, then n_s as a swap inside each row (entry i takes z^-e times
    entry j, entry j z^e times entry i; see _root_cols).  The engine's
    columns are moved but not divided by their lead coefficients: b is
    read up to a constant right diagonal, which cancels in each ratio
    (both entries sit in column j) and stays diagonal through the row
    steps and column moves."""
    n = len(rel[0])
    rows = [list(row) for row in zip(*_moved(rel[1], winvert(rel[0]), None, -1))]
    for s in word:
        i, j, e = _root(s, n, side)
        t = rows[i][j].coeff(e) / rows[j][j].coeff(0)
        yield t
        _root_rows(rows, s, t, side)
        for row in rows:
            row[i], row[j] = (row[j].shift(-e), row[i].shift(e)) if e else (row[j], row[i])


def panel_chamber(panel: Simplex, t) -> Chamber:
    """The chamber through a panel at chart parameter t (or INF).

    The chart is the root group of the panel's cotype s on its carrier g
    (see PanelChart): the chamber at t is g x_s(t) n_s, so 0 is g n_s,
    and INF is g, the same step that decode_coords takes per letter.  It
    depends on g's representative, up to an affine map t -> a t + c when
    g is replaced by g b, b in the side's Borel.  The chamber carries its
    inverse as one row step on g's (_unroot).  t is an int, a Fraction, a
    GaussRat or INF; any other type raises TypeError.

    On the standard pair the chart of the panel of cotype s of cp is
    decode_coords' coordinate on the word (s,):

    >>> cp, dm = standard_chamber("+", 2), standard_chamber("-", 2)
    >>> panel = cp.panel(1)
    >>> panel.cotype_nodes()
    (1,)
    >>> panel_chamber(panel, INF) == cp
    True
    >>> panel_chamber(panel, 0) == chamber_from_basis("+", weyl_matrix(word_to_affine((1,), 2)))
    True
    >>> print(panel_chamber(panel, 3).rep)
    [3, 1]
    [1, 0]
    >>> panel_chamber(panel, 3) == decode_coords(cp, dm, (1,), [3])
    True
    """
    chart = PanelChart(panel.carrier, _gap(panel, "panel_chamber"))
    t = _parameter(t)
    (s,) = panel.cotype_nodes()
    letters = () if t == INF else ((s, t),)
    return Chamber._built(
        panel.side, chart.chamber_basis(t), panel.carrier, partial(_unroot, panel.side, letters)
    )


def panel_parameter(panel: Simplex, c: Chamber):
    """Inverse chart: the parameter at which a chamber through the panel
    sits, INF for the carrier (see panel_chamber).  The containment check
    is one engine run on (carrier, c), and the parameter is read off that
    run the way encode_coords reads a cell coordinate (_read); a chamber
    outside the panel raises DomainError.

    >>> cp, dm = standard_chamber("+", 2), standard_chamber("-", 2)
    >>> panel = cp.panel(1)
    >>> panel_parameter(panel, cp)
    inf
    >>> str(panel_parameter(panel, decode_coords(cp, dm, (1,), [3])))
    '3'
    >>> str(panel_parameter(panel, chamber_from_basis("+", weyl_matrix(word_to_affine((1,), 2)))))
    '0'
    """
    _gap(panel, "panel_parameter")
    if c.side != panel.side:
        raise DomainError("side mismatch")
    # c contains the panel iff it lies in the panel's residue: its Weyl
    # distance from the carrier is 1 or the panel's cotype generator.
    rel = _relpos(panel.carrier, c)
    word = panel.cotype_nodes()
    if rel[0] == widentity(c.n):
        return INF
    if rel[0] != wgen(word[0], c.n):
        raise DomainError("chamber does not contain the panel")
    return next(_read(rel, word, panel.side))


def _twin_apartment(cp: Chamber, dm: Chamber) -> Chamber:
    """The common basis x of the opposite pair as cp keeps it, in
    cp._twin = (dm, x): reused only for the same dm object; a pair that
    is not opposite raises and keeps nothing.  x keeps cp as its base
    until x's inverse is taken, a cycle through cp._twin.  Once cp's
    inverse is known, as after any encode, the lookup takes x's too (a
    row replay); a decode alone needs neither and leaves the cycle to
    the collector rather than invert cp through the minor table.  On a
    pair with equal representatives building x inverts nothing (see
    _common_chamber), so the one minor-table inverse of a round trip is
    cp's, taken by encode's engine run on (x, e)."""
    twin = cp._twin
    if twin is None or twin[0] is not dm:
        twin = cp._twin = (dm, _common_chamber(dm, cp))
    if cp._inv is not None:
        twin[1]._inverse()
    return twin[1]


def encode_coords(cp: Chamber, dm: Chamber, e: Chamber, word=None):
    """Schubert-cell coordinates of e over the opposite pair (cp, dm), for
    a reduced word of delta(cp, e) (default: its normal form): the t with
    e = x x_{s_1}(t_1) n_{s_1} ... n_{s_l} B+ (see the module notes).

    One engine run on (x, e), and the coordinates are read off it as
    panel_parameter reads a panel's (_read): one row step and one column
    move per letter.

    >>> cp, dm = standard_chamber("+", 2), standard_chamber("-", 2)
    >>> e = chamber_from_basis("+", LMat([[1, 3], [0, 1]]) @ weyl_matrix(word_to_affine((1,), 2)))
    >>> [str(t) for t in encode_coords(cp, dm, e)]
    ['3']
    """
    if cp.side != "+" or dm.side != "-" or e.side != "+":
        raise DomainError("encode_coords takes (plus, minus, plus) chambers")
    rel = _relpos(_twin_apartment(cp, dm), e)
    welt = AffineWeylElt.from_window(rel[0])
    if word is None:
        word = affine_to_word(welt)
    else:
        word = tuple(word)
        if word_to_affine(word, cp.n) != welt:
            raise DomainError("word does not spell the Weyl distance")
        if welt.length() != len(word):
            raise DomainError("word is not reduced")
    return list(_read(rel, word, "+"))


def decode_coords(cp: Chamber, dm: Chamber, word, coords) -> Chamber:
    """The plus chamber x x_{s_1}(t_1) n_{s_1} ... x_{s_l}(t_l) n_{s_l} B+
    (see the module notes): every tuple in Q(i)^l lands in the cell of
    the word and encode_coords gives it back.  A coordinate INF skips its
    letter's factor (the gallery stays), so it lands in a lower cell.  A
    coordinate is an int, a Fraction, a GaussRat or INF; any other type
    raises TypeError.  The representative is x after one root-group step
    (_root_cols) per letter, and it carries its inverse (_unroot).

    >>> cp, dm = standard_chamber("+", 2), standard_chamber("-", 2)
    >>> print(decode_coords(cp, dm, (1,), [3]).rep)
    [3, 1]
    [1, 0]
    >>> print(decode_coords(cp, dm, (2,), [1]).rep)
    [0, z^-1]
    [z, 1]
    >>> decode_coords(cp, dm, (1, 2), [INF, INF]) == cp
    True
    """
    if cp.side != "+" or dm.side != "-":
        raise DomainError("decode_coords takes (plus, minus) chambers")
    x = _twin_apartment(cp, dm)
    word = tuple(word)
    welt = word_to_affine(word, cp.n)
    if welt.length() != len(word):
        raise DomainError("word is not reduced")
    if len(word) != len(coords):
        raise DomainError("word and coordinate list differ in length")
    letters = tuple((s, t) for s, t in zip(word, map(_parameter, coords)) if t != INF)
    cols = x.rep.cols()
    for s, t in letters:
        _root_cols(cols, s, t, "+")
    return Chamber._built("+", LMat._of(zip(*cols)), x, partial(_unroot, "+", letters))
