"""Exact scalar arithmetic: value group elements a + b*sqrt(d) and algebraic
number towers over the rationals.

Two kinds of scalars live here and never mix:

* ``ValueScalar`` -- elements of the totally ordered value group Q + Q*sqrt(d)
  used for weights, orders and series exponents.  Comparisons are exact (sign
  analysis after squaring), never floating point.  With the ``INF`` singleton
  adjoined they form Gamma u {+oo}: ``<``, ``==``, ``min`` and ``+`` are its
  order, minimum and sum, with ``INF`` the maximum and absorbing ``+``.
  ``ValueScalar.of`` is the one coercion (int, Fraction or ValueScalar).
* ``AlgebraicNumber`` -- coefficients.  A ``NumberField`` is an append-only
  tower of simple extensions of Q.  Each element has one normal form: a
  polynomial in the generator of the lowest level that holds it, with
  Fraction or lower-level coefficients, and a rational value is a plain
  Fraction.  Equality compares these parts, and only the Fraction 0 is zero.
  ``as_field_element`` is the one coercion (int, Fraction or an element of
  the field).  No real or complex embedding is ever chosen: equality is
  algebraic, so the particular conjugate returned by ``adjoin_root`` is
  immaterial.

``term_str`` and ``sum_str`` are the one text form.  Every printer
(``ValueScalar.__str__``, ``scalar_str``, ``polyring.poly_str`` and
``series.series_str``) writes a term as a coefficient's text times a unit,
with 1 and -1 folded into the sign and a sum in brackets, and joins its
terms as a signed sum; ``parsing`` reads every such text back.

``factor_univariate`` is the one factoring entry point, and it sorts its
factors once.  ``squarefree_decomposition`` decides a quadratic by its
discriminant and runs Yun's algorithm on anything else.
``_factor_squarefree`` is the one place a quadratic is split: over a tower
whose levels are all quadratic, by a square root of its discriminant
(``_sqrt``: ``math.isqrt`` on numerator and denominator over Q, and on a
quadratic level a descent one level down by completing the square).  Any
other squarefree polynomial over a tower goes down Trager's norms to Q, each
norm the characteristic polynomial of a multiplication map one level down;
the rational leaf is factored over Z by Zassenhaus's method: factor modulo
the first odd prime that keeps the polynomial squarefree, Hensel-lift the
factors and recombine them by trial division.  ``roots_in_extension``
solves a linear polynomial by a division and factors any other; it adjoins
a root theta of one irreducible factor f at a time and divides f by
z - theta (``_pdivmod``, one descending pass), so only the cofactor is
factored over the extended field, never f itself.  Factoring a degree-n
polynomial over a tower of degree D is capped at n * D <= 8 (the degree of
the norm down to Q), whichever method is used, and the cap still applies to
f as a whole once theta is adjoined.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

from .errors import ExtensionUnsupportedError, InternalInvariantError, UsageError
from .linalg import primitive_row


# ---------------------------------------------------------------------------
# infinity marker


class _Infinity:
    """The single +oo element adjoined to the value group."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "inf"

    def __eq__(self, other):
        return other is self

    def __hash__(self):
        return hash("troplift-inf")

    def __lt__(self, other):
        return False

    def __le__(self, other):
        return other is self

    def __gt__(self, other):
        return other is not self

    def __ge__(self, other):
        return True

    def __add__(self, other):
        return self

    __radd__ = __add__

    def __neg__(self):
        raise UsageError("-inf is not an element of the value group")


INF = _Infinity()


# ---------------------------------------------------------------------------
# text form


def term_str(coeff, unit, products=False):
    """The term coeff*unit from the coefficient's text and a unit such as
    "x*y^2", "a2^3", "t^(3/2)" or "sqrt(2)"; the empty unit means 1.  A
    coefficient whose text is a sum (a + or - after its first character),
    or with products=True one that contains *, is bracketed; 1 and -1
    fold into the unit's sign."""
    if "+" in coeff[1:] or "-" in coeff[1:] or (products and "*" in coeff):
        coeff = f"({coeff})"
    if not unit:
        return coeff
    if coeff == "1":
        return unit
    if coeff == "-1":
        return "-" + unit
    return f"{coeff}*{unit}"


def sum_str(terms, spaced):
    """The signed sum of term texts, 0 when there are none: spaced as
    "a - b + c", or unspaced as "a-b+c"; a term's leading - is its sign."""
    if not terms:
        return "0"
    plus, minus = (" + ", " - ") if spaced else ("+", "-")
    out = terms[0]
    for t in terms[1:]:
        out += minus + t[1:] if t[0] == "-" else plus + t
    return out


# the largest d of sqrt(d) in a value scalar: the squarefree check is trial
# division, so this bounds it to 10^6 steps
_MAX_RADICAND = 10**12
_ZERO = Fraction(0)
_ONE = Fraction(1)
_new = object.__new__


def _square_part(n: int):
    """(r, d) with n = r^2 * d and d squarefree, for n > 0, by trial
    division."""
    r, d, q = 1, n, 2
    while q * q <= d:
        if d % (q * q):
            q += 1
        else:
            r, d = r * q, d // (q * q)
    return r, d


def _squarefree(n: int) -> bool:
    return n > 0 and _square_part(n)[0] == 1


class ValueScalar:
    """a + b*sqrt(d) with a, b rational and d a fixed squarefree integer.

    d = 1 collapses to the rationals (b is folded into a).  All comparisons
    are exact.  Mixing two irrational scalars with different d is rejected:
    a session works over a single quadratic value group, with d at most
    10^12.  The constructor validates its input; arithmetic results are
    built from operands already in normal form by ``_build``, without
    re-validation.
    """

    __slots__ = ("a", "b", "d")

    def __init__(self, a=0, b=0, d=1):
        a = Fraction(a)
        b = Fraction(b)
        d = int(d)
        if not (d <= _MAX_RADICAND and _squarefree(d)):
            raise UsageError(
                f"d must be a positive squarefree integer up to 10^12, got {d}"
            )
        self._build(a, b, d)

    def _build(self, a, b, d):
        """Store a + b*sqrt(d) in normal form (d = 1 when b is 0, b folded
        into a when d is 1) from Fraction parts and a valid d; returns self."""
        if not b:
            d = 1
        elif d == 1:
            a, b = a + b, _ZERO
        self.a = a
        self.b = b
        self.d = d
        return self

    # -- helpers

    @staticmethod
    def of(x) -> "ValueScalar":
        if isinstance(x, ValueScalar):
            return x
        if isinstance(x, (int, Fraction)):
            return _new(ValueScalar)._build(Fraction(x), _ZERO, 1)
        raise UsageError(f"cannot coerce {x!r} to a value scalar")

    def _common_d(self, other: "ValueScalar") -> int:
        if self.d == 1:
            return other.d
        if other.d == 1 or other.d == self.d:
            return self.d
        raise UsageError(
            f"mixed radicals sqrt({self.d}) and sqrt({other.d}) are unsupported"
        )

    @property
    def is_rational(self) -> bool:
        return not self.b

    def sign(self) -> int:
        """Exact sign of a + b*sqrt(d)."""
        a, b, d = self.a, self.b, self.d
        if b == 0:
            return (a > 0) - (a < 0)
        if a == 0:
            return (b > 0) - (b < 0)
        if a > 0 and b > 0:
            return 1
        if a < 0 and b < 0:
            return -1
        # opposite signs: compare a^2 with b^2*d on the correct side
        t = a * a - b * b * d
        if a > 0:  # b < 0: positive iff a^2 > b^2 d
            return (t > 0) - (t < 0)
        return (t < 0) - (t > 0)  # a < 0, b > 0

    # -- arithmetic: operands are in normal form, so results skip __init__

    def __add__(self, other):
        if other.__class__ is not ValueScalar:
            if other is INF:
                return INF
            other = ValueScalar.of(other)
        new = _new(ValueScalar)
        if self.d == 1 and other.d == 1:
            return new._build(self.a + other.a, _ZERO, 1)
        return new._build(self.a + other.a, self.b + other.b, self._common_d(other))

    __radd__ = __add__

    def __sub__(self, other):
        if other.__class__ is not ValueScalar:
            other = ValueScalar.of(other)
        new = _new(ValueScalar)
        if self.d == 1 and other.d == 1:
            return new._build(self.a - other.a, _ZERO, 1)
        return new._build(self.a - other.a, self.b - other.b, self._common_d(other))

    def __rsub__(self, other):
        return ValueScalar.of(other).__sub__(self)

    def __neg__(self):
        return _new(ValueScalar)._build(-self.a, -self.b, self.d)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return _new(ValueScalar)._build(self.a * other, self.b * other, self.d)
        other = ValueScalar.of(other)
        d = self._common_d(other)
        return _new(ValueScalar)._build(
            self.a * other.a + self.b * other.b * d,
            self.a * other.b + self.b * other.a,
            d,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            if other == 0:
                raise ZeroDivisionError("value scalar division by zero")
            return _new(ValueScalar)._build(self.a / other, self.b / other, self.d)
        other = ValueScalar.of(other)
        d = self._common_d(other)
        n = other.a * other.a - other.b * other.b * d
        if n == 0:
            raise ZeroDivisionError("value scalar division by zero")
        # multiply by the conjugate
        num = self * _new(ValueScalar)._build(other.a, -other.b, other.d)
        return _new(ValueScalar)._build(num.a / n, num.b / n, d)

    def __rtruediv__(self, other):
        return ValueScalar.of(other).__truediv__(self)

    # -- exact total order

    def _cmp(self, other) -> int:
        if other.__class__ is ValueScalar:
            if self.d == 1 and other.d == 1:  # both rational: b is folded into a
                a, b = self.a, other.a
                return 0 if a == b else 1 if a > b else -1
        elif other is INF:
            return -1
        elif self.d == 1 and isinstance(other, (int, Fraction)):
            return (self.a > other) - (self.a < other)
        else:
            other = ValueScalar.of(other)
        return (self - other).sign()

    def __eq__(self, other):
        if isinstance(other, (int, Fraction, ValueScalar)):
            return self._cmp(other) == 0
        return NotImplemented

    def __hash__(self):
        if not self.b:
            return hash(self.a)
        return hash((self.a, self.b, self.d))

    def __lt__(self, other):
        return self._cmp(other) < 0

    def __le__(self, other):
        return self._cmp(other) <= 0

    def __gt__(self, other):
        return self._cmp(other) > 0

    def __ge__(self, other):
        return self._cmp(other) >= 0

    def __bool__(self):
        return self.a != 0 or self.b != 0

    # -- text form: "a", "b*sqrt(d)" or "a+b*sqrt(d)"

    def __str__(self):
        terms = [str(self.a)] if self.a else []
        if self.b:
            terms.append(term_str(str(self.b), f"sqrt({self.d})"))
        return sum_str(terms, False)

    def __repr__(self):
        return f"ValueScalar({self})"


def as_value(x):
    """ValueScalar.of, with INF passing through; callers that need a
    finite value reject it themselves."""
    return x if x is INF else ValueScalar.of(x)


# ---------------------------------------------------------------------------
# number field towers
#
# Level 0 is Q, whose elements are plain Fractions.  Level k adjoins a root
# theta_k of a monic minimal polynomial, irreducible over level k-1, with
# coefficients of lower levels.  Every element has one normal form, built
# only by _make: a value of level k is sum c_i*theta_k^i (i < deg theta_k),
# each c_i a Fraction or a normal-form AlgebraicNumber of a lower level, with
# some c_i (i >= 1) nonzero; a value with no such c_i is just c_0.  As the
# minimal polynomials are irreducible, the form is unique and never zero:
# equality and hashing compare parts, and `not c` is the zero test.  In a
# mixed-level + or *, the lower operand is a constant coefficient of the
# higher one.  The generic polynomial helpers below work on coefficient lists
# (ascending powers) of such values.

_MAX_ADJOIN_DEGREE = 8


class _FieldLevel:
    __slots__ = ("name", "minpoly", "degree")

    def __init__(self, name, minpoly):
        self.name = name
        self.minpoly = tuple(minpoly)  # monic, ascending, coeffs of lower levels
        self.degree = len(minpoly) - 1


class NumberField:
    """Append-only tower of simple extensions of Q."""

    def __init__(self):
        self.levels: list[_FieldLevel] = []

    def height(self) -> int:
        return len(self.levels)

    def generator(self, level: int) -> "AlgebraicNumber":
        coeffs = [_ZERO] * self.levels[level - 1].degree
        coeffs[1] = _ONE
        return _make(self, level, coeffs)

    def generator_names(self) -> list[str]:
        return [lv.name for lv in self.levels]

    def adjoin(self, name, minpoly) -> "AlgebraicNumber":
        """Adjoin a root of minpoly (ascending coefficients in this field),
        which must be monic of degree at least 2 and irreducible over the
        field.  Irreducibility is not checked: the caller guarantees it, and
        the normal form relies on it."""
        if any(lv.name == name for lv in self.levels):
            raise UsageError(f"generator name {name!r} already in use")
        minpoly = [as_field_element(self, c) for c in minpoly]
        if len(minpoly) < 3 or minpoly[-1] != 1:
            raise UsageError(
                "a minimal polynomial must be monic of degree at least 2, got "
                f"[{', '.join(scalar_str(c) for c in minpoly)}]"
            )
        self.levels.append(_FieldLevel(name, minpoly))
        return self.generator(self.height())

    def __repr__(self):
        if not self.levels:
            return "NumberField(Q)"
        return "NumberField(Q(" + ",".join(self.generator_names()) + "))"


def _make(field, level, coeffs):
    """The normal form of sum coeffs[i]*theta_level^i, for deg theta_level
    normal-form coefficients of lower levels: an AlgebraicNumber when some
    coefficient past the first is nonzero, else the first coefficient."""
    for c in coeffs[1:]:
        if c:
            x = _new(AlgebraicNumber)
            x.field = field
            x.level = level
            x.coeffs = tuple(coeffs)
            return x
    return coeffs[0]


class AlgebraicNumber:
    """Element of a NumberField tower in normal form, written in the
    generator of its level; only _make builds one."""

    __slots__ = ("field", "level", "coeffs")

    def _level_of(self, other):
        """The level of a scalar of this field (0 for int and Fraction);
        None for anything else."""
        if other.__class__ is AlgebraicNumber:
            if other.field is not self.field:
                raise UsageError("cannot mix elements of different number fields")
            return other.level
        if isinstance(other, (int, Fraction)):
            return 0
        return None

    # -- ring structure

    def __add__(self, other):
        level = self._level_of(other)
        if level is None:
            return NotImplemented
        if level > self.level:
            return other + self
        cs = self.coeffs
        if level < self.level:
            return _make(self.field, self.level, (cs[0] + other,) + cs[1:])
        return _make(self.field, level, [a + b for a, b in zip(cs, other.coeffs)])

    __radd__ = __add__

    def __sub__(self, other):
        level = self._level_of(other)
        if level is None:
            return NotImplemented
        if level != self.level:
            return self + (-other)
        return _make(
            self.field, level, [a - b for a, b in zip(self.coeffs, other.coeffs)]
        )

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __neg__(self):
        return _make(self.field, self.level, [-c for c in self.coeffs])

    def __mul__(self, other):
        level = self._level_of(other)
        if level is None:
            return NotImplemented
        if level > self.level:
            return other * self
        if level < self.level:
            if not other:
                return _ZERO
            return _make(
                self.field, self.level, [c * other if c else c for c in self.coeffs]
            )
        prod = _pmul(self.coeffs, other.coeffs)
        return _make(self.field, level, _reduce_mod_minpoly(self.field, level, prod))

    __rmul__ = __mul__

    def inverse(self):
        lv = self.field.levels[self.level - 1]
        g, u, _ = _pgcd_ext(list(self.coeffs), list(lv.minpoly))
        if len(g) != 1:  # a nonzero constant when the minpoly is irreducible
            raise UsageError(f"the minimal polynomial of {lv.name} is reducible")
        unit = _ONE / g[0]
        inv = [c * unit for c in u]
        return _make(self.field, self.level, inv + [_ZERO] * (lv.degree - len(inv)))

    def __truediv__(self, other):
        if other.__class__ is AlgebraicNumber:
            return self * other.inverse()
        if isinstance(other, (int, Fraction)):
            return self * (_ONE / other)
        return NotImplemented

    def __rtruediv__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.inverse() * other
        return NotImplemented

    def __pow__(self, n):
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            return self.inverse() ** (-n)
        out = _ONE
        base = self
        while n:
            if n & 1:
                out = base * out
            base = base * base
            n >>= 1
        return out

    # -- identity: the normal form is unique and never zero

    def __eq__(self, other):
        if other.__class__ is AlgebraicNumber:
            return (
                other.field is self.field
                and other.level == self.level
                and other.coeffs == self.coeffs
            )
        if isinstance(other, (int, Fraction)):
            return False
        return NotImplemented

    def __hash__(self):
        return hash((self.level, self.coeffs))

    def __str__(self):
        return scalar_str(self)

    def __repr__(self):
        return f"AlgebraicNumber({scalar_str(self)})"


def scalar_str(x) -> str:
    """Canonical text form: polynomial in the tower generators."""
    if not isinstance(x, AlgebraicNumber):
        return str(x)
    name = x.field.levels[x.level - 1].name
    cs = x.coeffs
    terms = []
    for k in range(len(cs) - 1, -1, -1):
        if cs[k]:
            unit = f"{name}^{k}" if k > 1 else name if k else ""
            terms.append(term_str(scalar_str(cs[k]), unit))
    return sum_str(terms, False)


def as_field_element(field, x):
    """The one coercion into a field: an int becomes a Fraction, a Fraction
    or an element of the field passes, anything else is a UsageError."""
    if x.__class__ is Fraction:
        return x
    if x.__class__ is AlgebraicNumber:
        if x.field is not field:
            raise UsageError("element belongs to a different number field")
        return x
    if isinstance(x, (int, Fraction)):
        return Fraction(x)
    raise UsageError(f"cannot coerce {x!r} to a field element")


# ---------------------------------------------------------------------------
# generic univariate polynomial helpers (coefficient lists, ascending powers)


def _pnorm(cs):
    cs = list(cs)
    while cs and not cs[-1]:
        cs.pop()
    return cs

def _pdeg(cs):
    return len(cs) - 1

def _padd(a, b):
    n = max(len(a), len(b))
    out = []
    for i in range(n):
        x = a[i] if i < len(a) else Fraction(0)
        y = b[i] if i < len(b) else Fraction(0)
        out.append(x + y)
    return out

def _psub(a, b):
    return _padd(a, [-c for c in b])

def _pmul(a, b):
    if not a or not b:
        return []
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if not x:
            continue
        for j, y in enumerate(b):
            out[i + j] = out[i + j] + x * y
    return out

def _pscale(a, c):
    return [x * c for x in a]

def _pmonic(a):
    a = _pnorm(a)
    if not a:
        return a
    if a[-1] == 1:
        return a
    inv = _ONE / a[-1]
    return [x * inv for x in a]

def _pdivmod(a, b):
    """Division with remainder; the divisor's leading coefficient must be a
    unit (always true over a field).  One descending pass over the dividend,
    as in _zp_divmod: each coefficient from the top down to deg b gives a
    quotient coefficient, the terms of b below its leading one are
    subtracted, and the leading term, which cancels, is not; a monic b
    needs no inverse."""
    b = _pnorm(b)
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    db = len(b) - 1
    inv = None if b[-1] == 1 else _ONE / b[-1]
    r = list(a)
    q = [_ZERO] * max(len(r) - db, 0)
    for i in range(len(r) - 1, db - 1, -1):
        c = r[i]
        if c:
            if inv is not None:
                c = c * inv
            q[i - db] = c
            for j in range(db):
                if b[j]:
                    r[i - db + j] = r[i - db + j] - c * b[j]
    return _pnorm(q), _pnorm(r[:db])

def _pmod(a, b):
    return _pdivmod(a, b)[1]

def _pgcd(a, b):
    """The monic gcd; [1] as soon as a remainder is a nonzero constant.  A
    remainder not shorter than its divisor raises, as the loop would not
    end."""
    a = _pnorm(a)
    b = _pnorm(b)
    while b:
        if len(b) == 1:
            return [_ONE]
        r = _pmod(a, b)
        if len(r) >= len(b):
            raise InternalInvariantError("a remainder did not shrink")
        a, b = b, r
    return _pmonic(a)

def _pgcd_ext(a, b):
    """Extended Euclid: returns (g, u, v) with u*a + v*b = g.  A remainder
    not shorter than its divisor raises, as in _pgcd."""
    r0, r1 = _pnorm(a), _pnorm(b)
    u0, u1 = [Fraction(1)], []
    v0, v1 = [], [Fraction(1)]
    while r1:
        q, r = _pdivmod(r0, r1)
        if len(r) >= len(r1):
            raise InternalInvariantError("a remainder did not shrink")
        r0, r1 = r1, r
        u0, u1 = u1, _psub(u0, _pmul(q, u1))
        v0, v1 = v1, _psub(v0, _pmul(q, v1))
    return r0, _pnorm(u0), _pnorm(v0)

def _pderiv(a):
    return [a[i] * i for i in range(1, len(a))]

def _pshift(a, c):
    """a(z + c) by Horner."""
    out = []
    for coeff in reversed(_pnorm(a)):
        out = _padd(_pmul(out, [c, Fraction(1)]), [coeff])
    return out

def _reduce_mod_minpoly(field, level, cs):
    """The deg theta_level coefficients of cs mod the minimal polynomial."""
    mp = field.levels[level - 1].minpoly
    d = len(mp) - 1
    cs = list(cs)
    for i in range(len(cs) - 1, d - 1, -1):
        c = cs[i]
        if not c:
            continue
        for j in range(d):
            if mp[j]:
                cs[i - d + j] = cs[i - d + j] - c * mp[j]
    return cs[:d] + [_ZERO] * (d - len(cs))


# ---------------------------------------------------------------------------
# factorization over the tower: squarefree split + Trager norm descent


def _scalar_sort_key(x):
    # rational values sort before proper algebraic ones
    return (isinstance(x, AlgebraicNumber), scalar_str(x))

def _poly_sort_key(cs):
    return (len(cs), tuple(scalar_str(c) for c in cs))


# -- the rational leaf: Zassenhaus's method over Z (von zur Gathen and
# Gerhard, Modern Computer Algebra, ch. 14-15).  Polynomials mod m are
# lists of ints in [0, m), ascending, with no trailing zeros; m is a prime
# p or, while Hensel lifting, a power of p.

def _zp_trim(a):
    while a and not a[-1]:
        a.pop()
    return a

def _zp_add(a, b, m):
    if len(a) < len(b):
        a, b = b, a
    return _zp_trim([(x + y) % m for x, y in zip(a, b)] + [x % m for x in a[len(b):]])

def _zp_sub(a, b, m):
    return _zp_add(a, [-y for y in b], m)

def _zp_mul(a, b, m):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return _zp_trim([c % m for c in out])

def _zp_divmod(a, b, m):
    """Quotient and remainder mod m; b's leading coefficient is a unit."""
    inv = pow(b[-1], -1, m)
    db = len(b) - 1
    r = [c % m for c in a]
    q = [0] * max(len(r) - db, 0)
    for i in range(len(r) - 1, db - 1, -1):
        c = r[i] * inv % m
        if c:
            q[i - db] = c
            for j in range(db):
                r[i - db + j] = (r[i - db + j] - c * b[j]) % m
    return _zp_trim(q), _zp_trim(r[:db])

def _zp_monic(a, m):
    inv = pow(a[-1], -1, m)
    return [c * inv % m for c in a]

def _zp_gcd(a, b, p):
    while b:
        a, b = b, _zp_divmod(a, b, p)[1]
    return _zp_monic(a, p)

def _zp_gcdex(a, b, p):
    """(s, t) with s*a + t*b = 1 mod p, deg s < deg b and deg t < deg a,
    for coprime a and b."""
    r0, r1, s0, s1, t0, t1 = a, b, [1], [], [], [1]
    while r1:
        q, r = _zp_divmod(r0, r1, p)
        r0, r1 = r1, r
        s0, s1 = s1, _zp_sub(s0, _zp_mul(q, s1, p), p)
        t0, t1 = t1, _zp_sub(t0, _zp_mul(q, t1, p), p)
    inv = pow(r0[0], -1, p)
    return [c * inv % p for c in s0], [c * inv % p for c in t0]

def _zp_powmod(a, e, g, p):
    """a^e mod (g, p)."""
    out, a = [1], _zp_divmod(a, g, p)[1]
    while e:
        if e & 1:
            out = _zp_divmod(_zp_mul(out, a, p), g, p)[1]
        e >>= 1
        if e:
            a = _zp_divmod(_zp_mul(a, a, p), g, p)[1]
    return out


def _distinct_degree(g, p):
    """[(product of the degree-d factors, d)] of a monic squarefree g."""
    out, h, d = [], [0, 1], 0
    while len(g) - 1 >= 2 * (d + 1):
        d += 1
        h = _zp_powmod(h, p, g, p)
        u = _zp_gcd(g, _zp_sub(h, [0, 1], p), p)
        if len(u) > 1:
            out.append((u, d))
            g = _zp_divmod(g, u, p)[0]
            h = _zp_divmod(h, g, p)[1]
    if len(g) > 1:
        out.append((g, len(g) - 1))
    return out


def _equal_degree(g, d, p, rng):
    """Cantor-Zassenhaus: the monic degree-d factors of g, for p odd."""
    n = len(g) - 1
    if n == d:
        return [g]
    while True:
        a = _zp_trim([rng.randrange(p) for _ in range(n)])
        if len(a) < 2:
            continue
        u = _zp_gcd(g, a, p)
        if len(u) == 1:
            b = _zp_powmod(a, (p**d - 1) // 2, g, p)
            u = _zp_gcd(g, _zp_sub(b, [1], p), p)
        if 1 < len(u) < len(g):
            rest = _zp_divmod(g, u, p)[0]
            return _equal_degree(u, d, p, rng) + _equal_degree(rest, d, p, rng)


def _hensel_lift(f, factors, p, m_top):
    """Monic factors mod m_top = p^(2^l) of the monic f (mod m_top) that
    reduce to the given pairwise coprime monic factors mod p: each factor
    is split off the rest by quadratic Hensel steps (Algorithm 15.10)."""
    out = []
    for i, g in enumerate(factors[:-1]):
        h = [1]
        for u in factors[i + 1:]:
            h = _zp_mul(h, u, p)
        s, t = _zp_gcdex(g, h, p)
        m = p
        while m < m_top:
            m = m * m
            e = _zp_sub(f, _zp_mul(g, h, m), m)
            q, r = _zp_divmod(_zp_mul(s, e, m), h, m)
            g = _zp_add(g, _zp_add(_zp_mul(t, e, m), _zp_mul(q, g, m), m), m)
            h = _zp_add(h, r, m)
            b = _zp_sub(_zp_add(_zp_mul(s, g, m), _zp_mul(t, h, m), m), [1], m)
            c, d = _zp_divmod(_zp_mul(s, b, m), h, m)
            s = _zp_sub(s, d, m)
            t = _zp_sub(t, _zp_add(_zp_mul(t, b, m), _zp_mul(c, g, m), m), m)
        out.append(g)
        f = h
    out.append(f)
    return out


def _z_exact_quotient(a, b):
    """a / b in Z[z], or None when b does not divide a."""
    db = len(b) - 1
    a = list(a)
    q = [0] * (len(a) - db)
    for i in range(len(a) - 1, db - 1, -1):
        c, rem = divmod(a[i], b[-1])
        if rem:
            return None
        q[i - db] = c
        for j in range(db + 1):
            a[i - db + j] -= c * b[j]
    return None if any(a[:db]) else q


def _z_primitive(a):
    """The primitive int polynomial on the ray of the rational a, with a
    positive leading coefficient."""
    f = primitive_row(a)
    return f if f[-1] > 0 else tuple(-c for c in f)


def _factor_rational_squarefree(cs):
    """Irreducible factors of a squarefree polynomial over Q (monic and
    unsorted output), by Zassenhaus's method: factor mod a prime p,
    Hensel-lift the factors to p^k beyond the Landau-Mignotte bound and
    recombine them by trial division over Z."""
    f = _z_primitive(cs)
    n, lc = len(f) - 1, f[-1]
    # the first odd prime dividing neither lc nor the discriminant, which is
    # nonzero as f is squarefree
    p = 1
    while True:
        p += 2
        if lc % p and all(p % q for q in range(3, math.isqrt(p) + 1, 2)):
            fp = _zp_monic([c % p for c in f], p)
            dfp = _zp_trim([c * i % p for i, c in enumerate(fp) if i])
            if dfp and len(_zp_gcd(fp, dfp, p)) == 1:
                break
    rng = random.Random(0)
    modular = []
    for g, d in _distinct_degree(fp, p):
        modular += _equal_degree(g, d, p, rng)
    # p^k > 2*|lc|*B, B = sqrt(n + 1) * 2^n * max|f_i|
    bound = 2 * lc * (math.isqrt(n) + 1) * 2**n * max(abs(c) for c in f)
    m = p
    while m <= bound:
        m = m * m
    inv = pow(lc, -1, m)
    lifted = _hensel_lift([c * inv % m for c in f], modular, p, m)
    # recombine: subsets of increasing size, tried by division over Z
    factors, size = [], 1
    while 2 * size <= len(lifted):
        for mask in range(1 << len(lifted)):
            if bin(mask).count("1") != size:
                continue
            g = [f[-1]]
            for i, u in enumerate(lifted):
                if mask >> i & 1:
                    g = _zp_mul(g, u, m)
            g = _z_primitive([c - m if 2 * c > m else c for c in g])
            q = _z_exact_quotient(f, g)
            if q is not None:
                factors.append(g)
                f = q
                lifted = [u for i, u in enumerate(lifted) if not mask >> i & 1]
                break
        else:
            size += 1
    factors.append(f)
    return [_pmonic([Fraction(c) for c in g]) for g in factors]


def _bivariate_norm(field, level, f, s):
    """Trager's norm N(f(z - s*theta)) of a monic f over the given level,
    theta its generator, as a monic coefficient list over level-1.

    It is det(z - M), M the matrix over level-1 of multiplication by
    z + s*theta on level[z]/(f) in the basis theta^j*z^k: the eigenvalues of
    M are alpha + s*theta' over the conjugates theta' of theta and the roots
    alpha of the matching conjugate of f.
    """
    dm = field.levels[level - 1].degree
    n = _pdeg(f)
    theta = field.generator(level)
    powers = [theta**j for j in range(dm + 1)]
    cols = []  # column k*dm + j is the image of theta^j*z^k
    for k in range(n):
        for j in range(dm):
            if k + 1 < n:
                image = [_ZERO] * n
                image[k + 1] = powers[j]
            else:  # z^n = -(f_0 + ... + f_(n-1) z^(n-1))
                image = [-powers[j] * c for c in f[:n]]
            image[k] = image[k] + s * powers[j + 1]
            col = []
            for c in image:
                if c.__class__ is AlgebraicNumber and c.level == level:
                    col += c.coeffs
                else:
                    col += [c] + [_ZERO] * (dm - 1)
            cols.append(col)
    return _charpoly([list(row) for row in zip(*cols)])


def _charpoly(m):
    """det(z - m), ascending, of a square matrix over a field (Cohen, A
    Course in Computational Algebraic Number Theory, Alg. 2.2.9): similarity
    transforms bring m to upper Hessenberg form in place, and the
    characteristic polynomials of its leading blocks follow by recurrence."""
    n = len(m)
    for c in range(n - 2):
        r = c + 1
        while r < n and not m[r][c]:
            r += 1
        if r == n:  # column c is already zero below the subdiagonal
            continue
        if r > c + 1:  # swap rows and columns r and c + 1
            m[r], m[c + 1] = m[c + 1], m[r]
            for row in m:
                row[r], row[c + 1] = row[c + 1], row[r]
        pivot = m[c + 1][c]
        for i in range(c + 2, n):
            u = m[i][c] / pivot
            if u:  # row i -= u * row c+1, then column c+1 += u * column i
                m[i] = [a - u * b for a, b in zip(m[i], m[c + 1])]
                for row in m:
                    row[c + 1] = row[c + 1] + u * row[i]
    p = [[_ONE]]  # p[k] = det(z - the leading k x k block)
    for k in range(n):
        q = _psub([_ZERO] + p[k], _pscale(p[k], m[k][k]))
        t = _ONE
        for i in range(k - 1, -1, -1):
            t = t * m[i + 1][i]
            if not t:
                break
            q = _psub(q, _pscale(p[i], m[i][k] * t))
        p.append(q)
    return p[n]


def _check_degree_cap(field, level, n):
    """Raise ExtensionUnsupportedError when factoring a degree-n polynomial
    over the given level needs a norm beyond the cap.  The norm one level
    down has degree n * deg(level), and so on down to Q: fail at the first
    one beyond the cap, before building any."""
    degree = 1
    for d in [n] + [lv.degree for lv in reversed(field.levels[:level])]:
        degree *= d
        if degree > _MAX_ADJOIN_DEGREE:
            raise ExtensionUnsupportedError(
                f"extension unsupported: irreducibility testing beyond degree "
                f"{_MAX_ADJOIN_DEGREE} (got degree {degree})"
            )


def _all_quadratic(field, level):
    return all(lv.degree == 2 for lv in field.levels[:level])


def _sqrt(field, level, x):
    """A square root of x in the tower up to the given level, all of whose
    levels are quadratic, or None when x is not a square there.

    Over Q, x is a square iff its numerator and denominator are.  On level
    k with minimal polynomial z^2 + m1*z + m0, u = theta + m1/2 squares to
    D = m1^2/4 - m0 in the field F one level down; write x = a + b*u with
    a, b in F.  For b = 0, x is a square iff a is a square in F, or a/D is,
    and then sqrt(a/D)*u is a root.  For b != 0, (c + e*u)^2 = x gives
    (c^2 - e^2*D)^2 = a^2 - b^2*D and c^2 = (a + n)/2 for one root n of
    a^2 - b^2*D, so x is a square iff that has a root n in F and
    (a + n)/2 or (a - n)/2 is a nonzero square c^2 in F; then e = b/(2c).
    """
    if level == 0:
        if x < 0:
            return None
        num, den = math.isqrt(x.numerator), math.isqrt(x.denominator)
        if num * num != x.numerator or den * den != x.denominator:
            return None
        return Fraction(num, den)
    m0, m1 = field.levels[level - 1].minpoly[:2]
    half = m1 / 2
    u = field.generator(level) + half
    D = half * half - m0
    if x.__class__ is not AlgebraicNumber or x.level < level:
        root = _sqrt(field, level - 1, x)
        if root is None:
            root = _sqrt(field, level - 1, x / D)
            if root is not None:
                root = root * u
        return root
    a, b = x.coeffs[0] - x.coeffs[1] * half, x.coeffs[1]
    n = _sqrt(field, level - 1, a * a - b * b * D)
    if n is None:
        return None
    for c2 in (a + n, a - n):
        c = _sqrt(field, level - 1, c2 / 2)
        if c:
            return c + b / (2 * c) * u
    return None


def _factor_squarefree(field, level, f):
    """Irreducible monic factors of a squarefree monic polynomial, unsorted
    (factor_univariate sorts them).  A quadratic over a tower of quadratic
    levels splits iff its discriminant has a square root (_sqrt); anything
    else goes down Trager's norms to Zassenhaus's method over Q."""
    f = _pmonic(f)
    if _pdeg(f) <= 1:
        return [f]
    _check_degree_cap(field, level, _pdeg(f))
    if _pdeg(f) == 2 and _all_quadratic(field, level):
        s = _sqrt(field, level, f[1] * f[1] - 4 * f[0])
        if s is None:
            return [f]
        return [[(f[1] + s) / 2, _ONE], [(f[1] - s) / 2, _ONE]]
    if level == 0:
        return _factor_rational_squarefree(f)
    theta = field.generator(level)
    for s in [0, 1, -1, 2, -2, 3, -3, 4, -4, 5, -5]:
        norm = _bivariate_norm(field, level, f, s)
        if _pdeg(_pgcd(norm, _pderiv(norm))) == 0:
            break
    else:
        raise ExtensionUnsupportedError(
            "extension unsupported: no squarefree norm found during descent"
        )
    # the norm is squarefree: each factor of it gives one factor of f (Trager)
    out = []
    rest = f
    for h in _factor_squarefree(field, level - 1, norm):
        g = _pgcd(rest, _pshift(h, theta * s) if s else h)
        out.append(g)
        rest, r = _pdivmod(rest, g)
        if r:
            raise InternalInvariantError("a factor of f does not divide it")
    return out


def squarefree_decomposition(f):
    """[(monic squarefree factor, multiplicity)] of f.  A quadratic
    z^2 + p*z + q is decided by its discriminant: (z + p/2)^2 when it is
    zero, else squarefree, with no gcd over the tower.  Anything else goes
    through Yun's algorithm (von zur Gathen and Gerhard, Modern Computer
    Algebra, 14.6)."""
    f = _pmonic(f)
    if len(f) == 3:
        if f[1] * f[1] == 4 * f[0]:
            return [([f[1] / 2, _ONE], 2)]
        return [(f, 1)]
    df = _pderiv(f)
    a = _pgcd(f, df)
    b, _ = _pdivmod(f, a)
    c, _ = _pdivmod(df, a)
    d = _psub(c, _pderiv(b))
    out = []
    i = 1
    while _pdeg(b) >= 1:
        a = _pgcd(b, d)
        if _pdeg(a) >= 1:
            out.append((a, i))
        b, _ = _pdivmod(b, a)
        c, _ = _pdivmod(d, a)
        d = _psub(c, _pderiv(b))
        i += 1
    return out


def factor_univariate(field, coeffs):
    """Factor a univariate polynomial over the tower.

    Input and output coefficient lists are ascending; returns
    (leading_coefficient, [(monic irreducible factor, multiplicity)]) in a
    deterministic order.
    """
    cs = _pnorm([as_field_element(field, c) for c in coeffs])
    if not cs:
        raise UsageError("cannot factor the zero polynomial")
    lc = cs[-1]
    if _pdeg(cs) == 0:
        return lc, []
    level = field.height()
    out = []
    for sf, mult in squarefree_decomposition(cs):
        for irr in _factor_squarefree(field, level, sf):
            out.append((irr, mult))
    out.sort(key=lambda t: _poly_sort_key(t[0]))
    return lc, out


def adjoin_root(field, coeffs):
    """Return (field, root) for a root of the given univariate polynomial.

    If the polynomial already has a root in the field, the field is returned
    unchanged with the canonically first such root.  Otherwise the canonically
    first irreducible factor is adjoined as a new tower level.  A factor
    beyond the degree cap raises ExtensionUnsupportedError.
    """
    cs = _pnorm([as_field_element(field, c) for c in coeffs])
    if _pdeg(cs) < 1:
        raise UsageError("adjoin_root needs a nonconstant polynomial")
    _, factors = factor_univariate(field, cs)
    linear = [f for f, _ in factors if len(f) == 2]
    if linear:
        roots = sorted((-f[0] for f in linear), key=_scalar_sort_key)
        return field, roots[0]
    return field, _adjoin_factor(field, factors[0][0])


def _adjoin_factor(field, fac):
    """A root of the monic irreducible factor fac, adjoined as the next
    tower level, named a<level>; factor_univariate, which gave fac, has
    checked its degree, and with it the height: levels have degree >= 2."""
    return field.adjoin(f"a{field.height() + 1}", fac)


def roots_in_extension(field, coeffs):
    """All roots of the polynomial, adjoining as needed.

    Returns (field, [(root, multiplicity)]) with the list in deterministic
    order and total multiplicity equal to the degree.  A linear polynomial
    is solved by a division.  Any other polynomial is factored over the
    current field by factor_univariate, which splits a quadratic by a square
    root of its discriminant; the canonically first nonlinear factor f is
    adjoined as theta, which is a root with f's multiplicity, and f is
    deflated to f / (z - theta), so no adjoined factor is factored again.
    The degree cap applies to every factored polynomial, and to f as a
    whole over the extended field, where it fails when the cofactor comes
    up, before the cofactor is solved or factored.
    """
    cs = _pnorm([as_field_element(field, c) for c in coeffs])
    if _pdeg(cs) < 1:
        raise UsageError("roots_in_extension needs a nonconstant polynomial")
    out = []
    # (polynomial, multiplicity, degree of the adjoined factor it is the
    # cofactor of, or None); each pass lowers the degree queued
    pending = [(cs, 1, None)]
    while pending:
        poly, mult, adjoined = pending.pop(0)
        if adjoined is not None:
            _check_degree_cap(field, field.height(), adjoined)
        if len(poly) == 2:  # solved, not factored
            out.append((-poly[0] / poly[1], mult))
            continue
        _, factors = factor_univariate(field, poly)
        nonlinear = [(f, mult * m) for f, m in factors if len(f) > 2]
        for f, m in factors:
            if len(f) == 2:
                out.append((-f[0], mult * m))
        if nonlinear:
            f, m = nonlinear[0]
            theta = _adjoin_factor(field, f)
            cofactor, rest = _pdivmod(f, [-theta, _ONE])
            if rest:
                raise InternalInvariantError("an adjoined root does not divide its factor")
            out.append((theta, m))
            pending.append((cofactor, m, _pdeg(f)))
            pending.extend((g, k, None) for g, k in nonlinear[1:])
    merged = {}
    for r, m in out:
        merged[r] = merged.get(r, 0) + m
    return field, sorted(merged.items(), key=lambda t: _scalar_sort_key(t[0]))
