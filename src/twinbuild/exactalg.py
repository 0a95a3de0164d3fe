"""Exact scalar and matrix arithmetic for the building computations.

Everything here is exact: Gaussian rationals (elements of Q(i)), sparse
Laurent polynomials over them, and square matrices of Laurent
polynomials with the operators used throughout the package.  There is
one polynomial type: ``charpoly`` returns, and ``qi_roots`` reads, a
LaurentPoly with exponents >= 0 as a polynomial in an auxiliary
parameter t; ``qi_roots`` divides in Q(i)[t] with the same
``poly_divmod``/``poly_gcd`` as the lattice normal form.

A Gaussian rational is stored as (a + b*i)/d: three Python ints with
gcd(a, b, d) == 1 and d > 0, so the arithmetic is integer arithmetic and
a gcd is taken only when the denominator is not 1 (the common case of
integer entries skips it).  ``re`` and ``im`` read the parts back as
``Fraction``s.

>>> x = GaussRat(Fraction(1, 2), Fraction(1, 2)) * 2    # (1+i)/2 * 2
>>> (x.a, x.b, x.d), x.re
((1, 1, 1), Fraction(1, 1))

The operators on polynomials and matrices:

* ``valuation`` at zero and at infinity,
* the Euler operator ``z d/dz``,
* ``star`` (conjugate transpose, constant matrices),
* ``sharp`` (conjugate transpose composed with z -> 1/z),
* ``iota`` (coefficientwise conjugation),
* exact determinants, and inverses of matrices whose determinant is a
  unit c*z^k.  Both come from one memoised Laplace expansion: a chain of
  tables of the minors on each set of columns starts at the row table and
  is extended a row at a time, about n*2^(n-1) Laurent products each,
  where cofactor expansion costs about e*n! (and n^2 times that for the
  adjugate).  The inverse's first and last cofactor rows are minors
  already in its two chains, and every cofactor meets the sign and 1/det
  in one place (``_over_det``).

A constant matrix over Q(i) is an LMat with constant entries and uses
the same operators, so there is one matrix product (``@``), one
determinant (the minor table; ``charpoly`` is det(t*1 - A), with no
division) and one inverse (``inv``).  There are two field eliminations:
``rref`` on dense rows of GaussRat, behind ``kernel_basis``, for the
small systems of subspaces and eigenspaces; and ``sparse_rank`` on rows
held as dicts from column to GaussRat, for the banded eigenvector
systems of ``veronese.caveat_check``, where it returns only the rank.

Every Laurent product and difference runs through one of two integer
kernels.  ``_mul_acc`` adds products into unreduced integer triples and
``_poly_of`` (``_coeffs_of`` for a bare coefficient dict) normalises each
finished coefficient once: ``f * g``, the entries of a matrix product,
the minor tables and the cofactors of ``inv``.  ``_mul_sub`` adds -q*b
into ``a`` on the same integer triples and normalises each touched
coefficient once: ``f - g`` (as f - 1*g), the remainder of
``poly_divmod`` (and so ``divexact``, ``poly_gcd`` and ``qi_roots``),
and through ``_col_sub`` the column operations of the lattice Hermite
form, its back substitution and the building's reduction engine.
Neither kernel builds a temporary LaurentPoly or a per-term GaussRat, so
they do not show in counts of GaussRat operator calls.  Sums ``f + g``
add coefficient by coefficient, and scaling by a monomial z^k
(``LMat.scale``) shifts exponents.

Values from outside reach a polynomial or a matrix through one coercion:
``_as_qi`` reads an int, a Fraction or a GaussRat as a GaussRat, and
``_as_poly`` reads a LaurentPoly or such a scalar as a LaurentPoly.
Finished rows of LaurentPoly become a matrix through ``LMat._of``.

There is no floating point anywhere and no rounding ever.

Text reaches the package through two regular expressions over one
rational pattern ``[0-9]+(/[0-9]+)?``: a scalar (``parse_scalar``) is a
sign and a rational or a parenthesised ``(a)``, ``(a+bi)`` or ``(bi)``,
and a polynomial (``parse_poly``) is a run of signed terms ``c*z^e``
with c a scalar less its sign.  ``poly_to_str`` and ``scalar_to_str``
write the same grammar back.

>>> parse_scalar("-(1/2-3/4i)"), parse_poly("1 - (2i)z^-1")
(GaussRat(Fraction(-1, 2), Fraction(3, 4)), <LaurentPoly (0-2i)*z^-1 + 1>)
>>> f = parse_poly("z^-1 + 2*z^2")
>>> str(f.z_ddz())
'-z^-1 + 4*z^2'
>>> f.val0(), f.val_inf()
(-1, -2)
"""

from __future__ import annotations

import math
import re
from fractions import Fraction

from .errors import DomainError, NotInvertibleError

__all__ = [
    "GaussRat",
    "QI_ZERO",
    "QI_ONE",
    "QI_I",
    "LaurentPoly",
    "LP_ZERO",
    "LP_ONE",
    "Z",
    "zpow",
    "const",
    "parse_scalar",
    "scalar_to_str",
    "parse_poly",
    "poly_to_str",
    "poly_divmod",
    "poly_gcd",
    "divexact",
    "LMat",
    "mat_to_json",
    "rref",
    "sparse_rank",
    "kernel_basis",
    "charpoly",
]

INF = math.inf


# ---------------------------------------------------------------------------
# Gaussian rationals
# ---------------------------------------------------------------------------


class GaussRat:
    """An element (a + b*i)/d of Q(i), stored as three Python ints.

    The triple is normalised: gcd(a, b, d) == 1 and d > 0, so equal
    values have equal triples.  ``re`` and ``im`` give the parts as
    ``Fraction``s; the arithmetic stays on the integers and takes a gcd
    only when the denominator is not 1.  The parts are ints or
    Fractions; any other type (a float, a str) raises TypeError.

    >>> x = GaussRat(Fraction(1, 2), Fraction(3, 4))
    >>> x.a, x.b, x.d
    (2, 3, 4)
    >>> x.re, x.im
    (Fraction(1, 2), Fraction(3, 4))
    >>> str(x * x.conj)
    '13/16'
    >>> str(GaussRat(0, 1) ** 2)
    '-1'
    """

    __slots__ = ("a", "b", "d")

    def __init__(self, re=0, im=0):
        if type(re) is int and type(im) is int:
            a, b, d = re, im, 1
        else:
            rational = (int, Fraction)
            if not (isinstance(re, rational) and isinstance(im, rational)):
                raise TypeError(f"GaussRat parts must be int or Fraction: {re!r}, {im!r}")
            rd, id_ = re.denominator, im.denominator
            # With d = lcm(rd, id), gcd(a, b, d) is already 1.
            d = math.lcm(rd, id_)
            a, b = re.numerator * (d // rd), im.numerator * (d // id_)
        _set_a(self, a)
        _set_b(self, b)
        _set_d(self, d)

    def __setattr__(self, name, value):  # pragma: no cover - immutability
        raise AttributeError("GaussRat is immutable")

    def __reduce__(self):
        return GaussRat, (self.re, self.im)

    @property
    def re(self) -> Fraction:
        return Fraction(self.a, self.d)

    @property
    def im(self) -> Fraction:
        return Fraction(self.b, self.d)

    def __add__(self, other):
        if type(other) is not GaussRat:
            other = _as_qi(other)
            if other is None:
                return NotImplemented
        d, e = self.d, other.d
        if d == e:
            return _qi(self.a + other.a, self.b + other.b, d)
        return _qi(self.a * e + other.a * d, self.b * e + other.b * d, d * e)

    __radd__ = __add__

    def __sub__(self, other):
        if type(other) is not GaussRat:
            other = _as_qi(other)
            if other is None:
                return NotImplemented
        d, e = self.d, other.d
        if d == e:
            return _qi(self.a - other.a, self.b - other.b, d)
        return _qi(self.a * e - other.a * d, self.b * e - other.b * d, d * e)

    def __rsub__(self, other):
        other = _as_qi(other)
        if other is None:
            return NotImplemented
        d, e = self.d, other.d
        if d == e:
            return _qi(other.a - self.a, other.b - self.b, d)
        return _qi(other.a * d - self.a * e, other.b * d - self.b * e, d * e)

    def __mul__(self, other):
        if type(other) is not GaussRat:
            other = _as_qi(other)
            if other is None:
                return NotImplemented
        a, b, c, e = self.a, self.b, other.a, other.b
        if not b:
            return _qi(a * c, a * e, self.d * other.d)
        if not e:
            return _qi(a * c, b * c, self.d * other.d)
        return _qi(a * c - b * e, a * e + b * c, self.d * other.d)

    __rmul__ = __mul__

    def inverse(self):
        a, b, d = self.a, self.b, self.d
        if not a and not b:
            raise ZeroDivisionError("division by zero in Q(i)")
        return _qi(a * d, -b * d, a * a + b * b)

    def __truediv__(self, other):
        if type(other) is not GaussRat:
            other = _as_qi(other)
            if other is None:
                return NotImplemented
        return _div(self, other)

    def __rtruediv__(self, other):
        other = _as_qi(other)
        if other is None:
            return NotImplemented
        return _div(other, self)

    def __pow__(self, k):
        if not isinstance(k, int) or k < 0:
            return NotImplemented
        a, b = 1, 0
        for _ in range(k):
            a, b = a * self.a - b * self.b, a * self.b + b * self.a
        return _qi(a, b, self.d**k)

    def __neg__(self):
        return _qi(-self.a, -self.b, self.d)

    def __bool__(self):
        return bool(self.a or self.b)

    def __eq__(self, other):
        if type(other) is GaussRat:
            return self.a == other.a and self.b == other.b and self.d == other.d
        if isinstance(other, int):
            return not self.b and self.d == 1 and self.a == other
        if isinstance(other, Fraction):
            return (
                not self.b
                and self.d == other.denominator
                and self.a == other.numerator
            )
        return NotImplemented

    def __hash__(self):
        # Equal to hash(int) / hash(Fraction) on real values, as == is.
        if self.b:
            return hash((self.a, self.b, self.d))
        if self.d == 1:
            return hash(self.a)
        return hash(Fraction(self.a, self.d))

    @property
    def conj(self):
        return _qi(self.a, -self.b, self.d)

    def is_real(self):
        return not self.b

    def __str__(self):
        return scalar_to_str(self)

    def __repr__(self):
        return f"GaussRat({self.re!r}, {self.im!r})"


# GaussRat.__setattr__ refuses assignment; the slot descriptors set the
# fields of a new instance directly.
_new = object.__new__
_set_a = GaussRat.a.__set__
_set_b = GaussRat.b.__set__
_set_d = GaussRat.d.__set__
_gcd = math.gcd


def _qi(a, b, d):
    """The GaussRat (a + b*i)/d, normalised; d must be nonzero."""
    if d != 1:
        g = _gcd(a, b, d)
        if d < 0:
            g = -g
        if g != 1:
            a //= g
            b //= g
            d //= g
    x = _new(GaussRat)
    _set_a(x, a)
    _set_b(x, b)
    _set_d(x, d)
    return x


def _as_qi(x):
    """A GaussRat, an int or a Fraction as a GaussRat; None for any other
    type."""
    if type(x) is GaussRat:
        return x
    if isinstance(x, int):
        return _qi(x, 0, 1)
    if isinstance(x, Fraction):
        return _qi(x.numerator, 0, x.denominator)
    return None


def _scalar(x):
    """x read by ``_as_qi``; any other type (a float, a str) raises
    TypeError naming the value."""
    q = _as_qi(x)
    if q is None:
        raise TypeError(f"bad scalar: {x!r}")
    return q


def _div(x, y):
    """x / y: multiply x by d*(a - b*i)/(a^2 + b^2) for y = (a + b*i)/d."""
    a, b, c, e = x.a, x.b, y.a, y.b
    if not e:
        if not c:
            raise ZeroDivisionError("division by zero in Q(i)")
        return _qi(a * y.d, b * y.d, x.d * c)
    return _qi(
        (a * c + b * e) * y.d, (b * c - a * e) * y.d, x.d * (c * c + e * e)
    )


QI_ZERO = GaussRat(0)
QI_ONE = GaussRat(1)
QI_I = GaussRat(0, 1)


def scalar_to_str(c: GaussRat) -> str:
    """Canonical text form: bare rational if real, else ``(a+bi)``.

    >>> scalar_to_str(GaussRat(Fraction(-3, 2)))
    '-3/2'
    >>> scalar_to_str(GaussRat(0, 1))
    '(0+1i)'
    >>> scalar_to_str(GaussRat(Fraction(1, 2), Fraction(-3, 4)))
    '(1/2-3/4i)'
    """
    if c.is_real():
        return str(c.re)
    sign = "-" if c.im < 0 else "+"
    return f"({c.re}{sign}{abs(c.im)}i)"


# The number grammar.  One rational pattern serves every rational: a
# plain scalar, a real or an imaginary part, a coefficient.  A coefficient
# is a rational or a parenthesised Gaussian rational: a real part, an
# imaginary part (its rational optional, ``i`` alone is 1i) or both, not
# neither; after a real part the imaginary part's sign is required.
_RAT = r"[0-9]+(?:/[0-9]+)?"
_COEF = rf"""(?:
    (?P<rat>{_RAT})
  | \( (?!\)) (?P<real>[+-]?{_RAT})?
    (?: (?P<isign>(?(real)[+-]|[+-]?)) (?P<imag>{_RAT})? i )? \)
)"""
_SCALAR_RE = re.compile(rf"(?P<sign>[+-]?) {_COEF}", re.X)


def _fraction(text: str) -> Fraction:
    """Fraction(text) of a matched rational, reporting a zero denominator
    as a ValueError."""
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in scalar {text!r}") from None


def _coef(m) -> GaussRat:
    """The unsigned coefficient that a scalar or term match holds."""
    real = m["rat"] or m["real"]
    a = _fraction(real) if real else 0
    if m["isign"] is None:
        return GaussRat(a)
    b = _fraction(m["imag"]) if m["imag"] else 1
    return GaussRat(a, -b if m["isign"] == "-" else b)


def parse_scalar(s: str) -> GaussRat:
    """Parse a scalar (whitespace-insensitive): an optional sign, then a
    rational ``p`` or ``p/q`` of decimal digits, or a parenthesised
    ``(a)``, ``(a+bi)``, ``(bi)`` or ``(i)`` over such rationals.  No
    decimal point, exponent or underscore.

    >>> parse_scalar("  -3/2 ") == GaussRat(Fraction(-3, 2))
    True
    >>> parse_scalar("(1/2 - 3/4 i)") == GaussRat(Fraction(1, 2), Fraction(-3, 4))
    True
    >>> parse_scalar("(2i)") == GaussRat(0, 2), parse_scalar("-(i)") == -QI_I
    (True, True)
    >>> parse_scalar("(0.5i)")
    Traceback (most recent call last):
    ...
    ValueError: bad scalar: '(0.5i)'
    """
    m = _SCALAR_RE.fullmatch("".join(s.split()))
    if m is None:
        raise ValueError(f"bad scalar: {s.strip()!r}")
    c = _coef(m)
    return -c if m["sign"] == "-" else c


# ---------------------------------------------------------------------------
# Sparse Laurent polynomials
# ---------------------------------------------------------------------------


class LaurentPoly:
    """A finite sum of c*z^e with exponents in Z, stored sparsely.

    Exponents are ints and coefficients Gaussian rationals; an int or
    Fraction coefficient is read as one (``_as_qi``), any other type of
    exponent or coefficient raises TypeError, and zero coefficients are
    never stored.  A constant equals its coefficient as a scalar
    (``LP_ZERO == 0``) and hashes as it.

    >>> str(Z + zpow(-1))
    'z^-1 + z'
    >>> (Z * Z).val0()
    2
    >>> LP_ZERO.val0()
    inf
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=None):
        d = {}
        if coeffs:
            for e, c in coeffs.items():
                if not isinstance(e, int):
                    raise TypeError(f"bad exponent: {e!r}")
                q = _as_qi(c)
                if q is None:
                    raise TypeError(f"bad coefficient: {c!r}")
                if q:
                    d[e] = q
        object.__setattr__(self, "coeffs", d)

    def __setattr__(self, name, value):  # pragma: no cover - immutability
        raise AttributeError("LaurentPoly is immutable")

    def __reduce__(self):
        return LaurentPoly, (self.coeffs,)

    def __add__(self, other):
        o = _as_poly(other)
        if o is None:
            return NotImplemented
        d = dict(self.coeffs)
        for e, c in o.coeffs.items():
            s = d.get(e)
            if s is None:
                d[e] = c
            else:
                s = s + c
                if s:
                    d[e] = s
                else:
                    del d[e]
        return _lp(d)

    __radd__ = __add__

    def __neg__(self):
        return _lp({e: -c for e, c in self.coeffs.items()})

    def __sub__(self, other):
        o = _as_poly(other)
        if o is None:
            return NotImplemented
        return _lp(_mul_sub(dict(self.coeffs), LP_ONE.coeffs, o.coeffs))

    def __rsub__(self, other):
        o = _as_poly(other)
        if o is None:
            return NotImplemented
        return _lp(_mul_sub(dict(o.coeffs), LP_ONE.coeffs, self.coeffs))

    def __mul__(self, other):
        o = _as_poly(other)
        if o is None:
            return NotImplemented
        return _poly_of(_mul_acc({}, self.coeffs, o.coeffs))

    __rmul__ = __mul__

    def __eq__(self, other):
        o = _as_poly(other)
        if o is None:
            return NotImplemented
        return self.coeffs == o.coeffs

    def __hash__(self):
        # A constant (0 included) equals its coefficient as a scalar, so
        # it hashes as that scalar.
        if self.is_constant():
            return hash(self.coeff(0))
        return hash(tuple(sorted(self.coeffs.items())))

    def __bool__(self):
        return bool(self.coeffs)

    def val0(self):
        """Valuation at z = 0: least exponent present; +inf for 0."""
        return min(self.coeffs) if self.coeffs else INF

    def val_inf(self):
        """Valuation at z = infinity: minus the greatest exponent; +inf for 0."""
        return -max(self.coeffs) if self.coeffs else INF

    def shift(self, d: int) -> "LaurentPoly":
        """Multiply by z^d."""
        return _lp({e + d: c for e, c in self.coeffs.items()})

    def subs_zinv(self) -> "LaurentPoly":
        """The substitution z -> 1/z (exponent negation)."""
        return _lp({-e: c for e, c in self.coeffs.items()})

    def z_ddz(self) -> "LaurentPoly":
        """The Euler operator: sum c_e z^e  ->  sum e*c_e z^e."""
        return LaurentPoly({e: e * c for e, c in self.coeffs.items()})

    def conj_coeffs(self) -> "LaurentPoly":
        """Coefficientwise complex conjugation (z untouched)."""
        return _lp({e: c.conj for e, c in self.coeffs.items()})

    def sharp(self) -> "LaurentPoly":
        """Conjugate coefficients and substitute z -> 1/z."""
        return _lp({-e: c.conj for e, c in self.coeffs.items()})

    def is_constant(self) -> bool:
        return all(e == 0 for e in self.coeffs)

    def coeff(self, e: int):
        return self.coeffs.get(e, QI_ZERO)

    def is_unit_monomial(self) -> bool:
        """True iff the polynomial is a single term c*z^k with c != 0."""
        return len(self.coeffs) == 1

    def __str__(self):
        return poly_to_str(self)

    def __repr__(self):
        return f"<LaurentPoly {poly_to_str(self)}>"


def _lp(coeffs) -> LaurentPoly:
    """The LaurentPoly of a coefficient dict with no zero coefficient,
    taken over without a copy."""
    out = _new(LaurentPoly)
    _set_coeffs(out, coeffs)
    return out


_set_coeffs = LaurentPoly.coeffs.__set__


def _as_poly(x):
    """A LaurentPoly, or a scalar that ``_as_qi`` reads as a constant
    LaurentPoly; None for any other type."""
    if isinstance(x, LaurentPoly):
        return x
    c = _as_qi(x)
    if c is None:
        return None
    return _lp({0: c}) if c else LP_ZERO


LP_ZERO = LaurentPoly()
LP_ONE = LaurentPoly({0: QI_ONE})
Z = LaurentPoly({1: QI_ONE})


def zpow(e: int, c=QI_ONE) -> LaurentPoly:
    """The monomial c*z^e (c defaults to 1)."""
    return LaurentPoly({e: c})


def const(c) -> LaurentPoly:
    """The constant polynomial with value c (int/Fraction/GaussRat); any
    other type raises TypeError."""
    return LaurentPoly({0: c})


def poly_to_str(f: LaurentPoly) -> str:
    """Canonical text form: terms by ascending exponent.

    >>> poly_to_str(zpow(2) - zpow(-1, GaussRat(Fraction(1, 2))))
    '-1/2*z^-1 + z^2'
    >>> poly_to_str(const(GaussRat(0, 1)) * Z + const(3))
    '3 + (0+1i)*z'
    >>> poly_to_str(LP_ZERO)
    '0'
    """
    if not f.coeffs:
        return "0"
    parts = []
    for e in sorted(f.coeffs):
        c = f.coeffs[e]
        cs = scalar_to_str(c)
        if e == 0:
            term = cs
        else:
            zs = "z" if e == 1 else f"z^{e}"
            if cs == "1":
                term = zs
            elif cs == "-1":
                term = "-" + zs
            else:
                term = f"{cs}*{zs}"
        parts.append(term)
    out = parts[0]
    for term in parts[1:]:
        if term.startswith("-"):
            out += " - " + term[1:]
        else:
            out += " + " + term
    return out


# A term: a sign (required after the first term), then a coefficient,
# ``z`` with an optional exponent, or both; ``*`` only after a coefficient.
_TERM_RE = re.compile(
    rf"""(?P<sign>[+-]?) (?P<coef>{_COEF})?
    (?: (?(coef)\*?) (?P<z>z) (?:\^(?P<exp>-?[0-9]+))? )?""",
    re.X,
)


def parse_poly(s: str) -> LaurentPoly:
    """Parse a Laurent polynomial (whitespace-insensitive): signed terms
    ``c``, ``z``, ``z^e``, ``c*z^e`` or ``cz^e``, with c a coefficient of
    the scalar grammar (``parse_scalar``) less its sign and e an integer.
    Terms of equal exponent add up.

    >>> parse_poly("3 + (0+1i) * z") == const(3) + const(QI_I) * Z
    True
    >>> parse_poly(poly_to_str(zpow(-3) - Z)) == zpow(-3) - Z
    True
    >>> parse_poly("2z^-1 - z^-1 + z - z")
    <LaurentPoly z^-1>
    >>> parse_poly("*z")
    Traceback (most recent call last):
    ...
    ValueError: bad term '*z' in polynomial '*z'
    """
    s = "".join(s.split())
    coeffs = {}
    pos = 0
    while True:
        m = _TERM_RE.match(s, pos)
        if (m["coef"] is None and m["z"] is None) or (pos and not m["sign"]):
            raise ValueError(f"bad term {s[pos:]!r} in polynomial {s!r}")
        c = QI_ONE if m["coef"] is None else _coef(m)
        e = 0 if m["z"] is None else int(m["exp"] or 1)
        coeffs[e] = coeffs.get(e, QI_ZERO) + (-c if m["sign"] == "-" else c)
        pos = m.end()
        if pos == len(s):
            return LaurentPoly(coeffs)


# ---------------------------------------------------------------------------
# Division helpers (lattice normal form, gcds and Sturm chains in t)
# ---------------------------------------------------------------------------


def poly_divmod(f: LaurentPoly, g: LaurentPoly):
    """Division with remainder in Q(i)[z]; both arguments need val0 >= 0.

    >>> q, r = poly_divmod(Z * Z + const(1), Z + const(1))
    >>> str(q), str(r)
    ('-1 + z', '2')
    """
    if not g:
        raise ZeroDivisionError("polynomial division by zero")
    if (f and f.val0() < 0) or g.val0() < 0:
        raise DomainError("poly_divmod needs polynomial (nonnegative) exponents")
    gc = g.coeffs
    dg = max(gc)
    lg = gc[dg]
    q = {}
    r = dict(f.coeffs)
    while r:
        dr = max(r)
        if dr < dg:
            break
        k = dr - dg
        q[k] = r[dr] / lg
        _mul_sub(r, {k: q[k]}, gc)
    return _lp(q), _lp(r)


def poly_gcd(f: LaurentPoly, g: LaurentPoly) -> LaurentPoly:
    """Monic gcd in Q(i)[z]."""
    a, b = f, g
    while b:
        a, b = b, poly_divmod(a, b)[1]
    if a:
        lead = a.coeffs[max(a.coeffs)]
        a = a * const(lead.inverse())
    return a


def divexact(f: LaurentPoly, g: LaurentPoly):
    """Exact Laurent division f/g, or None if g does not divide f."""
    if not g:
        raise ZeroDivisionError("division by zero")
    if not f:
        return LP_ZERO
    a, b = f.shift(-f.val0()), g.shift(-g.val0())
    q, r = poly_divmod(a, b)
    if r:
        return None
    return q.shift(f.val0() - g.val0())


# ---------------------------------------------------------------------------
# Laurent matrices
# ---------------------------------------------------------------------------


class LMat:
    """A rectangular matrix of LaurentPoly entries (usually square).

    >>> g = LMat.diag([Z, zpow(-1)])
    >>> str(g.det())
    '1'
    >>> g.sharp() == LMat.diag([zpow(-1), Z])
    True
    >>> (g @ g.sharp()) == LMat.identity(2)
    True
    """

    __slots__ = ("rows", "nrows", "ncols")

    def __init__(self, rows):
        rows = tuple(tuple(map(self._entry, row)) for row in rows)
        _check_shape(rows)
        self._store(rows)

    @classmethod
    def _of(cls, rows) -> "LMat":
        """A finished matrix: ``rows`` is a non-empty rectangular sequence
        of rows whose entries are already LaurentPoly, so nothing is
        coerced or checked.  Every constructor but ``LMat(...)`` ends
        here; ``diag`` and ``from_cols`` coerce and check the shape first."""
        m = object.__new__(cls)
        m._store(tuple(map(tuple, rows)))
        return m

    def _store(self, rows):
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "nrows", len(rows))
        object.__setattr__(self, "ncols", len(rows[0]))

    def __setattr__(self, name, value):  # pragma: no cover - immutability
        raise AttributeError("LMat is immutable")

    def __reduce__(self):
        return LMat, (self.rows,)

    @staticmethod
    def _entry(x):
        p = _as_poly(x)
        if p is None:
            raise TypeError(f"bad matrix entry: {x!r}")
        return p

    @staticmethod
    def identity(n: int) -> "LMat":
        return LMat.diag([LP_ONE] * n)

    @staticmethod
    def zeros(n: int, m: int | None = None) -> "LMat":
        rows = [[LP_ZERO] * (n if m is None else m) for _ in range(n)]
        _check_shape(rows)
        return LMat._of(rows)

    @staticmethod
    def diag(entries) -> "LMat":
        entries = [LMat._entry(x) for x in entries]
        n = len(entries)
        rows = [[entries[i] if i == j else LP_ZERO for j in range(n)] for i in range(n)]
        _check_shape(rows)
        return LMat._of(rows)

    @staticmethod
    def from_cols(cols) -> "LMat":
        cols = [tuple(map(LMat._entry, col)) for col in cols]
        _check_shape(cols)
        return LMat._of(zip(*cols))

    def cols(self):
        return list(zip(*self.rows))

    def __getitem__(self, ij):
        i, j = ij
        return self.rows[i][j]

    def __eq__(self, other):
        if not isinstance(other, LMat):
            return NotImplemented
        return self.rows == other.rows

    def __hash__(self):
        return hash(self.rows)

    def _entrywise(self, other, op):
        if not isinstance(other, LMat):
            return NotImplemented
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise ValueError("shape mismatch")
        return LMat._of(
            [list(map(op, ra, rb)) for ra, rb in zip(self.rows, other.rows)]
        )

    def __add__(self, other):
        return self._entrywise(other, LaurentPoly.__add__)

    def __sub__(self, other):
        return self._entrywise(other, LaurentPoly.__sub__)

    def __neg__(self):
        return LMat._of([[-a for a in row] for row in self.rows])

    def scale(self, c) -> "LMat":
        """Every entry times c; a monomial z^k shifts exponents instead."""
        c = self._entry(c)
        if len(c.coeffs) == 1:
            (k, u), = c.coeffs.items()
            if u == QI_ONE:
                return LMat._of([[a.shift(k) for a in row] for row in self.rows])
        return LMat._of([[c * a for a in row] for row in self.rows])

    def __matmul__(self, other):
        if not isinstance(other, LMat):
            return NotImplemented
        if self.ncols != other.nrows:
            raise ValueError("shape mismatch")
        ocolumns = [[b.coeffs for b in col] for col in zip(*other.rows)]
        out = []
        for row in self.rows:
            row = [a.coeffs for a in row]
            out_row = []
            for colv in ocolumns:
                acc = {}
                for f, g in zip(row, colv):
                    if f and g:
                        _mul_acc(acc, f, g)
                out_row.append(_poly_of(acc))
            out.append(out_row)
        return LMat._of(out)

    def iota(self) -> "LMat":
        """Coefficientwise complex conjugation, entry positions untouched."""
        return LMat._of([[a.conj_coeffs() for a in row] for row in self.rows])

    def sharp(self) -> "LMat":
        """Conjugate transpose composed with z -> 1/z."""
        return LMat._of(
            [
                [self.rows[j][i].sharp() for j in range(self.nrows)]
                for i in range(self.ncols)
            ]
        )

    def star(self) -> "LMat":
        """Conjugate transpose; defined for constant matrices only."""
        if not self.is_constant():
            raise DomainError("star is defined for constant matrices; use sharp")
        return self.sharp()

    def is_constant(self) -> bool:
        return all(a.is_constant() for row in self.rows for a in row)

    def z_ddz(self) -> "LMat":
        return LMat._of([[a.z_ddz() for a in row] for row in self.rows])

    def subs_zinv(self) -> "LMat":
        return LMat._of([[a.subs_zinv() for a in row] for row in self.rows])

    def trace(self) -> LaurentPoly:
        if self.nrows != self.ncols:
            raise ValueError("trace of a non-square matrix")
        t = LP_ZERO
        for i in range(self.nrows):
            t = t + self.rows[i][i]
        return t

    def det(self) -> LaurentPoly:
        """Exact determinant: the all-columns entry of the minor table of
        all rows (see ``_extend_minors``).

        >>> str(LMat([[Z, const(2)], [const(3), zpow(-1)]]).det())
        '-5'
        """
        if self.nrows != self.ncols:
            raise ValueError("determinant of a non-square matrix")
        return _chain_det(_top_minors(self.rows))

    def inv(self) -> "LMat":
        """Inverse of a matrix whose determinant is a unit c*z^k.

        The adjugate comes from the same minor tables as ``det``: cofactor
        (i, j) joins the minors of the rows above i with those of the rows
        below it (generalised Laplace expansion), so the only division is
        by the determinant.

        >>> m = LMat([[Z, const(1)], [LP_ZERO, zpow(-1)]])
        >>> print(m.inv())
        [z^-1, -1]
        [0, z]
        """
        if self.nrows != self.ncols:
            raise ValueError("inverse of a non-square matrix")
        return self._inv_from(_top_minors(self.rows))

    def _inv_from(self, top) -> "LMat":
        """``inv`` of a square matrix, given its top minor chain
        ``_top_minors(self.rows)``.  Cofactor rows 0 and n-1 sit beside the
        empty minor: they are minors in ``bottom[0]`` and ``top[n-1]``.
        Rows 1..n-2 join the two chains, their signs taken in the sums.
        Every finished cofactor then goes through ``_over_det``, so a
        determinant-one edge cofactor takes no product."""
        rows, n = self.rows, self.nrows
        full = (1 << n) - 1
        d = _chain_det(top)
        if not d.is_unit_monomial():
            raise NotInvertibleError(
                f"determinant {poly_to_str(d)} is not a unit c*z^k"
            )
        # bottom[i]: minors of rows i+1..n-1, built from the last row up and
        # so in reversed row order; (-1)^(m(m-1)/2), m = n-1-i, undoes that.
        bottom = _minor_chain(rows[:0:-1])[::-1]
        (e, c), = d.coeffs.items()
        dinv = None if d == LP_ONE else {-e: c.inverse()}
        out = [[LP_ZERO] * n for _ in range(n)]
        edges = ((0, bottom[0], (n - 1) * (n - 2) // 2), (n - 1, top[n - 1], n - 1))
        for i, table, flip in edges:
            for j in range(n):
                if (f := table.get(full ^ (1 << j))) is not None:
                    out[j][i] = _over_det(f, (flip + j) % 2, dinv)
        for i in range(1, n - 1):
            above, below = top[i], bottom[i]
            m = n - 1 - i
            flip = (i + m * (m - 1) // 2) % 2
            for j in range(n):
                rest = full ^ (1 << j)
                acc = {}
                for s_mask, a in above.items():
                    if s_mask & ~rest:
                        continue
                    t_mask = rest ^ s_mask
                    b = below.get(t_mask)
                    if b is not None:
                        odd = (flip + j + _shuffle_parity(s_mask, t_mask)) % 2
                        _mul_acc(acc, a, b, odd)
                if cof := _coeffs_of(acc):
                    out[j][i] = _over_det(cof, 0, dinv)
        return LMat._of(out)

    def __str__(self):
        return "\n".join(
            "[" + ", ".join(poly_to_str(a) for a in row) + "]" for row in self.rows
        )

    def __repr__(self):
        return f"<LMat {self.nrows}x{self.ncols}>"


def _check_shape(rows):
    """ValueError unless ``rows`` is a non-empty list of non-empty rows of
    one length."""
    if not rows or not rows[0] or any(len(r) != len(rows[0]) for r in rows):
        raise ValueError("ragged or empty matrix")


# Minors are memoised in tables: dicts from a column bitmask S to the
# coefficient dict of the nonzero minor on the rows added so far and the
# columns in S (a zero minor is not stored), the form ``_mul_acc`` reads;
# no table or dict is changed once built.  Only the determinant
# (``_chain_det``) and the finished cofactors of ``inv`` (``_over_det``)
# become LaurentPolys.  A chain starts at the empty minor 1 and the row
# table (the first row's nonzero entries by column), then takes one
# ``_extend_minors`` pass per further row, about n*2^(n-1) products each.
_ONE_TABLE = {0: LP_ONE.coeffs}


def _minor_chain(rows):
    """Entry i is the minor table of rows[:i]."""
    chain = [_ONE_TABLE]
    if rows:
        chain.append({1 << c: a.coeffs for c, a in enumerate(rows[0]) if a.coeffs})
        for row in rows[1:]:
            chain.append(_extend_minors(chain[-1], row))
    return chain


# The top chain of a square matrix (its last entry holds the determinant).
_top_minors = _minor_chain


def _chain_det(top) -> LaurentPoly:
    """The determinant read off a top minor chain."""
    return _lp(top[-1].get((1 << (len(top) - 1)) - 1, {}))


def _extend_minors(table, row):
    """The minor table after appending ``row`` below the rows of ``table``.

    Laplace expansion along the new last row: on columns S + {c}, the entry
    in column c carries the sign (-1)^(number of columns of S past c).  The
    sums are normalised as by ``_coeffs_of``, inline: a call per minor costs
    a measurable share of a dense determinant.
    """
    entries = [(c, 1 << c, a.coeffs) for c, a in enumerate(row) if a.coeffs]
    accs = {}
    for s_mask, minor in table.items():
        for c, bit, a in entries:
            if s_mask & bit:
                continue
            key = s_mask | bit
            acc = accs.get(key)
            if acc is None:
                acc = accs[key] = {}
            _mul_acc(acc, a, minor, (s_mask >> c).bit_count() & 1)
    return {
        key: p for key, acc in accs.items()
        if (p := {e: _qi(a, b, d) for e, (a, b, d) in acc.items() if a or b})
    }


def _mul_acc(acc, f, g, negate=False):
    """Add f*g (or -f*g) into ``acc`` and return ``acc``; f and g are
    coefficient dicts.

    ``acc`` maps an exponent to an unreduced triple [re, im, den] of
    Python ints, the value (re + im*i)/den.  A product is added on the
    running denominator when the two agree (always, for integer
    coefficients) and cross-multiplied when they differ; nothing is
    normalised until ``_poly_of`` reads the sums.
    """
    get = acc.get
    for e1, c1 in f.items():
        a1, b1, d1 = c1.a, c1.b, c1.d
        if negate:
            a1, b1 = -a1, -b1
        for e2, c2 in g.items():
            a2, b2, den = c2.a, c2.b, d1 * c2.d
            re_, im_ = a1 * a2 - b1 * b2, a1 * b2 + b1 * a2
            e = e1 + e2
            t = get(e)
            if t is None:
                acc[e] = [re_, im_, den]
            elif t[2] == den:
                t[0] += re_
                t[1] += im_
            else:
                d = t[2]
                t[0] = t[0] * den + re_ * d
                t[1] = t[1] * den + im_ * d
                t[2] = d * den
    return acc


def _mul_sub(a, q, b):
    """Subtract q*b from ``a`` in place and return ``a``; all three are
    coefficient dicts (exponent -> GaussRat).

    The products are summed by ``_mul_acc`` in unreduced triples, the
    coefficient of ``a`` at each touched exponent is added in on the
    integers, and ``_qi`` normalises each sum once; a coefficient that
    cancels is deleted.  No temporary LaurentPoly and no per-term
    GaussRat is built.
    """
    acc = {}
    _mul_acc(acc, q, b, True)
    get = a.get
    for e, (re_, im_, den) in acc.items():
        c = get(e)
        if c is not None:
            d = c.d
            if d == den:
                re_ += c.a
                im_ += c.b
            else:
                re_ = re_ * d + c.a * den
                im_ = im_ * d + c.b * den
                den *= d
        if re_ or im_:
            a[e] = _qi(re_, im_, den)
        elif c is not None:
            del a[e]
    return a


def _col_sub(col_a, q, col_b):
    """The column col_a - q*col_b of LaurentPolys, entry by entry through
    ``_mul_sub``; entries against a zero entry of col_b are kept as they
    are."""
    q = q.coeffs
    return [
        _lp(_mul_sub(dict(a.coeffs), q, b.coeffs)) if b.coeffs else a
        for a, b in zip(col_a, col_b)
    ]


def _coeffs_of(acc) -> dict:
    """The coefficient dict of an accumulator of ``_mul_acc``: each nonzero
    sum normalised once by ``_qi``, the sums that cancelled dropped."""
    return {e: _qi(a, b, d) for e, (a, b, d) in acc.items() if a or b}


def _poly_of(acc) -> LaurentPoly:
    """The LaurentPoly of an accumulator of ``_mul_acc`` (``_coeffs_of``)."""
    return _lp(_coeffs_of(acc))


def _over_det(f, odd, dinv) -> LaurentPoly:
    """The finished cofactor of coefficient dict f, negated when ``odd``,
    over the unit determinant: one ``_mul_acc`` by ``dinv``, the
    coefficients of 1/det, or, when the determinant is 1 (``dinv`` None),
    the sign alone, taken on the integer triples."""
    if dinv is not None:
        return _poly_of(_mul_acc({}, f, dinv, odd))
    if odd:
        return _lp({k: _qi(-q.a, -q.b, q.d) for k, q in f.items()})
    return _lp(f)


def _shuffle_parity(s_mask, t_mask) -> int:
    """Parity of the pairs s > t with s in S and t in T (disjoint masks)."""
    count = 0
    while t_mask:
        low = t_mask & -t_mask
        count += (s_mask & ~(2 * low - 1)).bit_count()
        t_mask ^= low
    return count % 2


def mat_to_json(m: LMat):
    """Matrix as a JSON value: array of rows of canonical term strings."""
    return [[poly_to_str(a) for a in row] for row in m.rows]


# ---------------------------------------------------------------------------
# Field elimination (lists of GaussRat rows), characteristic polynomials
# and their rational roots
# ---------------------------------------------------------------------------


def rref(rows):
    """Reduced row echelon form of GaussRat rows; returns (new_rows,
    pivot_columns)."""
    rows = [list(r) for r in rows]
    if not rows:
        return rows, []
    ncols = len(rows[0])
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = rows[r][c].inverse()
        rows[r] = [x * inv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return rows, pivots


def sparse_rank(rows) -> int:
    """The rank of sparse rows over Q(i): each row a dict from column (an
    int) to GaussRat, zero entries left out or dropped here.

    The columns are eliminated in ascending order, each on the shortest
    row still holding it, so a banded system keeps its band and the work
    follows the nonzero entries, not rows times columns.
    """
    rows = [{c: x for c, x in row.items() if x} for row in rows]
    holders = {}
    for k, row in enumerate(rows):
        for c in row:
            holders.setdefault(c, set()).add(k)
    rank = 0
    for c in sorted(holders):
        live = holders[c]
        if not live:
            continue
        p = min(live, key=lambda k: (len(rows[k]), k))
        pivot = rows[p]
        for col in pivot:
            holders[col].discard(p)
        inv = pivot.pop(c).inverse()
        pivot = [(col, x * inv) for col, x in pivot.items()]
        for k in tuple(live):
            row = rows[k]
            f = row.pop(c)
            for col, x in pivot:
                y = row.get(col)
                y = -f * x if y is None else y - f * x
                if y:
                    row[col] = y
                    holders[col].add(k)
                elif col in row:
                    del row[col]
                    holders[col].discard(k)
        live.clear()
        rank += 1
    return rank


def kernel_basis(rows):
    """Basis of the right kernel {v : A v = 0}; vectors as lists."""
    if not rows:
        return []
    ncols = len(rows[0])
    red, pivots = rref(rows)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        v = [QI_ZERO] * ncols
        v[fc] = QI_ONE
        for r, pc in enumerate(pivots):
            v[pc] = -red[r][fc]
        basis.append(v)
    return basis


def qi_roots(poly: LaurentPoly):
    """The roots of a polynomial in t that lie in Q, ascending, with
    multiplicity; ``poly`` is a LaurentPoly with exponents >= 0.

    Roots in Q(i) outside Q are not returned.  A rational root of
    f = g + i*h (g, h with rational coefficients) is a common root of g
    and h, so the real roots of the squarefree part p of gcd(g, h) are
    isolated with a Sturm sequence and each is bisected to width
    1/(2 L^2), L the leading coefficient of p's primitive integer form.
    A rational root of p has a denominator dividing L, and two such
    roots lie at least 1/L^2 apart, so the fraction of denominator <= L
    nearest the interval's midpoint is the only candidate.  It is the
    interval's root if it lies in the interval and p vanishes there; its
    multiplicity is the number of times t - root divides f.

    >>> p = charpoly([[GaussRat(1), GaussRat(1)], [QI_ZERO, GaussRat(2)]])
    >>> str(p)  # (t - 1)(t - 2), printed in the variable z
    '2 - 3*z + z^2'
    >>> [str(r) for r in qi_roots(p)]
    ['1', '2']
    """
    common = poly_gcd(
        LaurentPoly({e: GaussRat(c.re) for e, c in poly.coeffs.items()}),
        LaurentPoly({e: GaussRat(c.im) for e, c in poly.coeffs.items()}),
    )
    if _degree(common) < 1:
        return []
    sqf = poly_divmod(common, poly_gcd(common, _derivative(common)))[0]
    chain = [sqf, _derivative(sqf)]
    while _degree(chain[-1]) > 0:
        chain.append(-poly_divmod(chain[-2], chain[-1])[1])
    chain = [[q.coeff(e).re for e in range(_degree(q) + 1)] for q in chain]
    p = chain[0]

    def sign_changes(x):
        signs = [s for s in (_sign_at(q, x) for q in chain) if s]
        return sum(a != b for a, b in zip(signs, signs[1:]))

    den = math.lcm(*(c.denominator for c in p))
    lead = den // math.gcd(*(int(c * den) for c in p))
    width = Fraction(1, 2 * lead * lead)
    bound = 1 + max(abs(c) for c in p[:-1])  # p is monic
    out = []
    # Intervals (a, b] with their sign-change counts; a root of p at a
    # sample point belongs to the interval it closes.
    stack = [(-bound, bound, sign_changes(-bound), sign_changes(bound))]
    while stack:
        a, b, va, vb = stack.pop()
        if va - vb > 1:
            m = (a + b) / 2
            vm = sign_changes(m)
            stack += [(m, b, vm, vb), (a, m, va, vm)]
            continue
        if va == vb:
            continue
        sb = _sign_at(p, b)
        while sb and b - a > width:
            m = (a + b) / 2
            sm = _sign_at(p, m)
            if sm in (0, sb):
                b, sb = m, sm
            else:
                a = m
        r = (b if not sb else (a + b) / 2).limit_denominator(lead)
        if not a < r <= b or _sign_at(p, r):
            continue
        root = GaussRat(r)
        linear = LaurentPoly({0: -root, 1: QI_ONE})
        q, rem = poly_divmod(poly, linear)
        while not rem:
            out.append(root)
            q, rem = poly_divmod(q, linear)
    return out


def _degree(p: LaurentPoly) -> int:
    """Degree of a polynomial (exponents >= 0); -1 for zero."""
    return max(p.coeffs, default=-1)


def _derivative(p: LaurentPoly) -> LaurentPoly:
    return LaurentPoly({e - 1: e * c for e, c in p.coeffs.items() if e})


def _sign_at(coeffs, x: Fraction) -> int:
    """Sign of the rational polynomial with ascending coefficients at x."""
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * x + c
    return (acc > 0) - (acc < 0)


def charpoly(rows) -> LaurentPoly:
    """Characteristic polynomial det(t*1 - A) of the constant square
    matrix with these rows, as a LaurentPoly in t (written z) with
    exponents 0..n: the determinant of z*1 - A from the minor table, so
    no division."""
    return (LMat.diag([Z] * len(rows)) - LMat(rows)).det()
