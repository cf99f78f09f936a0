"""Exact scalar arithmetic: value group elements a + b*sqrt(d) and algebraic
number towers over the rationals.

Two kinds of scalars live here and never mix:

* ``ValueScalar`` -- elements of the totally ordered value group Q + Q*sqrt(d)
  used for weights, orders and series exponents.  Comparisons are exact (sign
  analysis after squaring), never floating point.
* ``AlgebraicNumber`` -- coefficients.  A ``NumberField`` is an append-only
  tower of simple extensions of Q; elements are polynomials in the top
  generator with coefficients one level down.  No real or complex embedding is
  ever chosen: equality is algebraic, so the particular conjugate returned by
  ``adjoin_root`` is immaterial.

Univariate factorization over a tower is done by norm/resultant descent to Q
(Trager's method); the rational leaf is delegated to sympy.
"""

from __future__ import annotations

from fractions import Fraction

import sympy

from .errors import ExtensionUnsupportedError, UsageError


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


def _squarefree(n: int) -> bool:
    if n <= 0:
        return False
    p = 2
    while p * p <= n:
        if n % (p * p) == 0:
            return False
        while n % p == 0:
            n //= p
        p += 1
    return True


class ValueScalar:
    """a + b*sqrt(d) with a, b rational and d a fixed squarefree integer.

    d = 1 collapses to the rationals (b is folded into a).  All comparisons
    are exact.  Mixing two irrational scalars with different d is rejected:
    a session works over a single quadratic value group.
    """

    __slots__ = ("a", "b", "d")

    def __init__(self, a=0, b=0, d=1):
        a = Fraction(a)
        b = Fraction(b)
        d = int(d)
        if not _squarefree(d):
            raise UsageError(f"d must be a positive squarefree integer, got {d}")
        if d == 1:
            a, b = a + b, Fraction(0)
        if b == 0:
            d = 1
        self.a = a
        self.b = b
        self.d = d

    # -- helpers

    @staticmethod
    def of(x, d=1) -> "ValueScalar":
        if isinstance(x, ValueScalar):
            return x
        if isinstance(x, (int, Fraction)):
            return ValueScalar(x, 0, 1)
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
        return self.b == 0

    def to_fraction(self) -> Fraction:
        if self.b != 0:
            raise UsageError(f"{self} is irrational")
        return self.a

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

    # -- arithmetic

    def __add__(self, other):
        if other is INF:
            return INF
        other = ValueScalar.of(other)
        d = self._common_d(other)
        return ValueScalar(self.a + other.a, self.b + other.b, d)

    __radd__ = __add__

    def __sub__(self, other):
        other = ValueScalar.of(other)
        d = self._common_d(other)
        return ValueScalar(self.a - other.a, self.b - other.b, d)

    def __rsub__(self, other):
        return ValueScalar.of(other).__sub__(self)

    def __neg__(self):
        return ValueScalar(-self.a, -self.b, self.d)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return ValueScalar(self.a * other, self.b * other, self.d)
        other = ValueScalar.of(other)
        d = self._common_d(other)
        return ValueScalar(
            self.a * other.a + self.b * other.b * d,
            self.a * other.b + self.b * other.a,
            d,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            if other == 0:
                raise ZeroDivisionError("value scalar division by zero")
            return ValueScalar(self.a / other, self.b / other, self.d)
        other = ValueScalar.of(other)
        d = self._common_d(other)
        n = other.a * other.a - other.b * other.b * d
        if n == 0:
            raise ZeroDivisionError("value scalar division by zero")
        # multiply by the conjugate
        num = self * ValueScalar(other.a, -other.b, other.d)
        return ValueScalar(num.a / n, num.b / n, d)

    def __rtruediv__(self, other):
        return ValueScalar.of(other).__truediv__(self)

    # -- exact total order

    def _cmp(self, other) -> int:
        if other is INF:
            return -1
        return (self - ValueScalar.of(other)).sign()

    def __eq__(self, other):
        if other is INF:
            return False
        if isinstance(other, (int, Fraction, ValueScalar)):
            return self._cmp(other) == 0
        return NotImplemented

    def __hash__(self):
        if self.b == 0:
            return hash(self.a)
        return hash((self.a, self.b, self.d))

    def __lt__(self, other):
        return self._cmp(other) < 0

    def __le__(self, other):
        return self._cmp(other) <= 0

    def __gt__(self, other):
        if other is INF:
            return False
        return self._cmp(other) > 0

    def __ge__(self, other):
        if other is INF:
            return False
        return self._cmp(other) >= 0

    def __bool__(self):
        return self.a != 0 or self.b != 0

    # -- text form: "a", "b*sqrt(d)" or "a+b*sqrt(d)"

    def __str__(self):
        if self.b == 0:
            return str(self.a)
        root = f"sqrt({self.d})"
        if self.b == 1:
            bpart = root
        elif self.b == -1:
            bpart = "-" + root
        else:
            bpart = f"{self.b}*{root}"
        if self.a == 0:
            return bpart
        sep = "+" if not bpart.startswith("-") else ""
        return f"{self.a}{sep}{bpart}"

    def __repr__(self):
        return f"ValueScalar({self})"


def as_value(x):
    """Coerce a weight, exponent or bound to a ValueScalar; INF passes
    through, callers that need a finite value reject it themselves."""
    if isinstance(x, (ValueScalar, _Infinity)):
        return x
    return ValueScalar(Fraction(x))


def cmp_value(x, y) -> int:
    """Exact three-way comparison of value group elements (incl. +oo)."""
    if x is INF:
        return 0 if y is INF else 1
    if y is INF:
        return -1
    return ValueScalar.of(x)._cmp(y)


# ---------------------------------------------------------------------------
# number field towers
#
# Elements at "level 0" are plain Fractions.  A level-k AlgebraicNumber holds a
# coefficient vector over level k-1 of length deg(minpoly at level k).  All
# generic polynomial helpers below work on coefficient lists (ascending
# powers) whose entries are Fractions or AlgebraicNumbers; the duck-typed
# arithmetic promotes as needed.

_MAX_ADJOIN_DEGREE = 8
_MAX_TOWER_HEIGHT = 3


class _FieldLevel:
    __slots__ = ("name", "minpoly", "degree")

    def __init__(self, name, minpoly):
        self.name = name
        self.minpoly = tuple(minpoly)  # monic, ascending, coeffs one level down
        self.degree = len(minpoly) - 1


class NumberField:
    """Append-only tower of simple extensions of Q."""

    def __init__(self):
        self.levels: list[_FieldLevel] = []

    def height(self) -> int:
        return len(self.levels)

    def generator(self, level: int) -> "AlgebraicNumber":
        lv = self.levels[level - 1]
        coeffs = [_lift_to(self, level - 1, Fraction(0))] * lv.degree
        coeffs[1] = _lift_to(self, level - 1, Fraction(1))
        return AlgebraicNumber(self, level, tuple(coeffs))

    def generators(self) -> list["AlgebraicNumber"]:
        return [self.generator(k) for k in range(1, self.height() + 1)]

    def generator_names(self) -> list[str]:
        return [lv.name for lv in self.levels]

    def adjoin(self, name, minpoly) -> "AlgebraicNumber":
        if any(lv.name == name for lv in self.levels):
            raise UsageError(f"generator name {name!r} already in use")
        self.levels.append(_FieldLevel(name, minpoly))
        return self.generator(self.height())

    def __repr__(self):
        if not self.levels:
            return "NumberField(Q)"
        return "NumberField(Q(" + ",".join(self.generator_names()) + "))"


def _lift_to(field, level, x):
    """Lift a scalar to an explicit representation at the given level."""
    if isinstance(x, AlgebraicNumber):
        if x.field is not field:
            raise UsageError("cannot mix elements of different number fields")
        cur = x.level
        if cur > level:
            raise UsageError("cannot lower an algebraic number level")
        y = x
        while cur < level:
            cur += 1
            deg = field.levels[cur - 1].degree
            coeffs = [_lift_to(field, cur - 1, Fraction(0))] * deg
            coeffs[0] = y
            y = AlgebraicNumber(field, cur, tuple(coeffs))
        return y
    x = Fraction(x)
    if level == 0:
        return x
    deg = field.levels[level - 1].degree
    coeffs = [_lift_to(field, level - 1, Fraction(0))] * deg
    coeffs[0] = _lift_to(field, level - 1, x)
    return AlgebraicNumber(field, level, tuple(coeffs))


def _demote(x):
    """Shrink a representation back down when the value is lower level."""
    while isinstance(x, AlgebraicNumber):
        tail = x.coeffs[1:]
        if all(_scalar_is_zero(c) for c in tail):
            x = x.coeffs[0]
        else:
            return x
    return x


def _scalar_is_zero(x) -> bool:
    if isinstance(x, AlgebraicNumber):
        return all(_scalar_is_zero(c) for c in x.coeffs)
    return x == 0


class AlgebraicNumber:
    """Element of a NumberField tower, written in the top generator."""

    __slots__ = ("field", "level", "coeffs")

    def __init__(self, field, level, coeffs):
        self.field = field
        self.level = level
        self.coeffs = coeffs

    # -- ring structure

    def _pair(self, other):
        if isinstance(other, AlgebraicNumber):
            if other.field is not self.field:
                raise UsageError("cannot mix elements of different number fields")
            lvl = max(self.level, other.level)
        elif isinstance(other, (int, Fraction)):
            lvl = self.level
        else:
            return None
        a = _lift_to(self.field, lvl, self)
        b = _lift_to(self.field, lvl, other)
        return lvl, a, b

    def __add__(self, other):
        p = self._pair(other)
        if p is None:
            return NotImplemented
        lvl, a, b = p
        return _demote(
            AlgebraicNumber(
                self.field, lvl, tuple(x + y for x, y in zip(a.coeffs, b.coeffs))
            )
        )

    __radd__ = __add__

    def __sub__(self, other):
        p = self._pair(other)
        if p is None:
            return NotImplemented
        lvl, a, b = p
        return _demote(
            AlgebraicNumber(
                self.field, lvl, tuple(x - y for x, y in zip(a.coeffs, b.coeffs))
            )
        )

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __neg__(self):
        return AlgebraicNumber(self.field, self.level, tuple(-c for c in self.coeffs))

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return _demote(
                AlgebraicNumber(
                    self.field, self.level, tuple(c * other for c in self.coeffs)
                )
            )
        p = self._pair(other)
        if p is None:
            return NotImplemented
        lvl, a, b = p
        prod = _pmul(list(a.coeffs), list(b.coeffs))
        red = _reduce_mod_minpoly(self.field, lvl, prod)
        return _demote(AlgebraicNumber(self.field, lvl, tuple(red)))

    __rmul__ = __mul__

    def inverse(self):
        if _scalar_is_zero(self):
            raise ZeroDivisionError("inverse of zero algebraic number")
        lvl = self.level
        mp = list(self.field.levels[lvl - 1].minpoly)
        g, u, _ = _pgcd_ext(list(self.coeffs), mp)
        # minpoly irreducible => gcd is a nonzero constant
        if len(g) != 1:
            raise ZeroDivisionError("non-invertible element (reducible minpoly?)")
        inv = [_scalar_div(c, g[0]) for c in u]
        inv = inv + [Fraction(0)] * (len(mp) - 1 - len(inv))
        lifted = tuple(_lift_to(self.field, lvl - 1, c) for c in inv[: len(mp) - 1])
        return _demote(AlgebraicNumber(self.field, lvl, lifted))

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            return self * (Fraction(1) / Fraction(other))
        if isinstance(other, AlgebraicNumber):
            return self * other.inverse()
        return NotImplemented

    def __rtruediv__(self, other):
        return self.inverse() * other

    def __pow__(self, n):
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            return self.inverse() ** (-n)
        out = Fraction(1)
        base = self
        while n:
            if n & 1:
                out = base * out
            base = base * base
            n >>= 1
        return out

    # -- identity

    def __bool__(self):
        return not _scalar_is_zero(self)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            return _scalar_is_zero(self - other)
        if isinstance(other, AlgebraicNumber):
            if other.field is not self.field:
                return False
            return _scalar_is_zero(self - other)
        return NotImplemented

    def __hash__(self):
        r = _demote(self)
        if isinstance(r, Fraction):
            return hash(r)
        return hash((r.level, tuple(hash(c) for c in r.coeffs)))

    def __str__(self):
        return scalar_str(self)

    def __repr__(self):
        return f"AlgebraicNumber({scalar_str(self)})"


def _scalar_div(a, b):
    """a / b in the coefficient field; exact Fractions for int input."""
    if isinstance(b, AlgebraicNumber):
        return b.inverse() * a
    if isinstance(a, int):
        a = Fraction(a)
    return a / b


def scalar_str(x) -> str:
    """Canonical text form: polynomial in the tower generators."""
    if isinstance(x, (ValueScalar, _Infinity)):
        return str(x)
    x = _demote(x) if isinstance(x, AlgebraicNumber) else x
    if isinstance(x, int):
        x = Fraction(x)
    if isinstance(x, Fraction):
        return str(x)
    name = x.field.levels[x.level - 1].name
    parts = []
    for k in range(len(x.coeffs) - 1, -1, -1):
        c = _demote(x.coeffs[k])
        if _scalar_is_zero(c):
            continue
        cs = scalar_str(c)
        composite = ("+" in cs[1:]) or ("-" in cs[1:])
        if k == 0:
            term = f"({cs})" if composite else cs
        else:
            var = name if k == 1 else f"{name}^{k}"
            if composite:
                term = f"({cs})*{var}"
            elif cs == "1":
                term = var
            elif cs == "-1":
                term = f"-{var}"
            else:
                term = f"{cs}*{var}"
        if parts and not term.startswith("-"):
            parts.append("+" + term)
        else:
            parts.append(term)
    return "".join(parts) if parts else "0"


def as_field_element(field, x):
    """Coerce int/Fraction/AlgebraicNumber into the given field."""
    if isinstance(x, AlgebraicNumber):
        if x.field is not field:
            raise UsageError("element belongs to a different number field")
        return x
    return Fraction(x)


# ---------------------------------------------------------------------------
# generic univariate polynomial helpers (coefficient lists, ascending powers)


def _pnorm(cs):
    cs = list(cs)
    while cs and _scalar_is_zero(cs[-1]):
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
        if _scalar_is_zero(x):
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
    lc = a[-1]
    if isinstance(lc, Fraction) and lc == 1:
        return a
    return [_scalar_div(x, lc) for x in a]

def _pdivmod(a, b):
    """Division with remainder; the divisor's leading coefficient must be a
    unit (always true over a field)."""
    a = _pnorm(a)
    b = _pnorm(b)
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    inv_lc = _scalar_div(Fraction(1), b[-1])
    q = [Fraction(0)] * max(0, len(a) - len(b) + 1)
    r = list(a)
    while len(r) >= len(b) and _pnorm(r):
        r = _pnorm(r)
        if len(r) < len(b):
            break
        shift = len(r) - len(b)
        c = r[-1] * inv_lc
        q[shift] = q[shift] + c
        for i in range(len(b)):
            r[shift + i] = r[shift + i] - c * b[i]
        r.pop()
    return _pnorm(q), _pnorm(r)

def _pmod(a, b):
    return _pdivmod(a, b)[1]

def _pgcd(a, b):
    a = _pnorm(a)
    b = _pnorm(b)
    while b:
        a, b = b, _pmod(a, b)
    return _pmonic(a)

def _pgcd_ext(a, b):
    """Extended Euclid: returns (g, u, v) with u*a + v*b = g."""
    r0, r1 = _pnorm(a), _pnorm(b)
    u0, u1 = [Fraction(1)], []
    v0, v1 = [], [Fraction(1)]
    while r1:
        q, r = _pdivmod(r0, r1)
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

def _presultant(a, b):
    """Resultant of two univariate polynomials over a field, by Euclid."""
    a = _pnorm(a)
    b = _pnorm(b)
    if not a or not b:
        return Fraction(0)
    res = Fraction(1)
    sign = 1
    while True:
        da, db = _pdeg(a), _pdeg(b)
        if db == 0:
            return res * (b[0] ** da) * sign
        r = _pmod(a, b)
        if not r:
            return Fraction(0)
        dr = _pdeg(r)
        if (da * db) % 2 == 1:
            sign = -sign
        res = res * (b[-1] ** (da - dr))
        a, b = b, r


def _reduce_mod_minpoly(field, level, cs):
    mp = field.levels[level - 1].minpoly
    d = len(mp) - 1
    cs = list(cs)
    for i in range(len(cs) - 1, d - 1, -1):
        c = cs[i]
        if _scalar_is_zero(c):
            continue
        cs[i] = Fraction(0)
        for j in range(d):
            cs[i - d + j] = cs[i - d + j] - c * mp[j]
    out = cs[:d] + [Fraction(0)] * max(0, d - len(cs))
    return [_lift_to(field, level - 1, c) for c in out[:d]]


# ---------------------------------------------------------------------------
# factorization over the tower: squarefree split + Trager norm descent


def _scalar_sort_key(x):
    # rational values sort before proper algebraic ones
    x = _demote(x) if isinstance(x, AlgebraicNumber) else x
    return (isinstance(x, AlgebraicNumber), scalar_str(x))

def _poly_sort_key(cs):
    return (len(cs), tuple(scalar_str(c) for c in cs))


_SYMPY_Z = sympy.Symbol("z")


def _factor_rational_squarefree(cs):
    """Irreducible factors of a squarefree polynomial over Q (monic output)."""
    sy = [sympy.Rational(c.numerator, c.denominator) for c in reversed(cs)]
    poly = sympy.Poly(sy, _SYMPY_Z, domain="QQ")
    out = []
    for fac, mult in poly.factor_list()[1]:
        assert mult == 1
        coeffs = [Fraction(c.p, c.q) for c in reversed(fac.all_coeffs())]
        out.append(_pmonic(coeffs))
    out.sort(key=_poly_sort_key)
    return out


def _bivariate_norm(field, level, f, s):
    """Res_x(minpoly(x), f(z - s*x) with the top generator replaced by x).

    Returns the norm as a coefficient list over level-1.  Computed by exact
    expansion in (x, z) followed by evaluation/interpolation in z.
    """
    mp = list(field.levels[level - 1].minpoly)
    dm = len(mp) - 1
    n = _pdeg(f)
    # coefficient vectors of f over level-1 (polynomials in x)
    vecs = []
    for c in f:
        c = _lift_to(field, level, c)
        vecs.append(_pnorm(list(c.coeffs)))
    # F(x, z) = sum_i vec_i(x) * (z - s*x)^i as polynomial in z over (level-1)[x]
    zsx = [[Fraction(0), Fraction(-s)], [Fraction(1)]]  # (z - s*x): z-coeffs in x
    power = [[Fraction(1)]]
    F = []  # list over z-power of x-coefficient lists
    for i, vec in enumerate(vecs):
        if i > 0:
            # power = power * (z - s*x)
            new = [[] for _ in range(len(power) + 1)]
            for zi, xs in enumerate(power):
                for zj, xs2 in enumerate(zsx):
                    new[zi + zj] = _padd(new[zi + zj], _pmul(xs, xs2))
            power = new
        if vec:
            while len(F) < len(power):
                F.append([])
            for zi, xs in enumerate(power):
                F[zi] = _padd(F[zi], _pmul(xs, vec))
    F = [_pnorm(xs) for xs in F]
    degx = max((len(xs) - 1 for xs in F if xs), default=0)
    target = dm * n
    samples = []
    q = 0
    while len(samples) < target + 1:
        fq = []
        for zi in range(len(F)):
            fq = _padd(fq, _pscale(F[zi], Fraction(q) ** zi))
        fq = _pnorm(fq)
        if _pdeg(fq) == degx or degx == 0:
            samples.append((Fraction(q), _presultant(mp, fq) if fq else Fraction(0)))
        q = -q if q > 0 else -q + 1
    return _interpolate(samples)


def _interpolate(samples):
    """Lagrange interpolation: sum yi * prod_j (z - xj)/(xi - xj)."""
    out = []
    for i, (xi, yi) in enumerate(samples):
        num = [Fraction(1)]
        den = Fraction(1)
        for j, (xj, _) in enumerate(samples):
            if j == i:
                continue
            num = _pmul(num, [-xj, Fraction(1)])
            den *= xi - xj
        out = _padd(out, [c * (Fraction(1) / den) * yi for c in num])
    return _pnorm(out)


def _factor_squarefree(field, level, f):
    """Irreducible monic factors of a squarefree monic polynomial."""
    f = _pmonic(f)
    if _pdeg(f) > _MAX_ADJOIN_DEGREE:
        raise ExtensionUnsupportedError(
            f"extension unsupported: irreducibility testing beyond degree "
            f"{_MAX_ADJOIN_DEGREE} (got degree {_pdeg(f)})"
        )
    if _pdeg(f) <= 1:
        return [f]
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
    sub_factors = _factor_squarefree(field, level - 1, norm)
    out = []
    rest = [_lift_to(field, level, c) for c in f]
    for h in sorted(sub_factors, key=_poly_sort_key):
        if _pdeg(rest) <= 0:
            break
        h_up = [_lift_to(field, level, c) for c in h]
        shifted = _pshift(h_up, theta * s) if s else h_up
        g = _pgcd(rest, shifted)
        if _pdeg(g) >= 1:
            out.append([_demote(c) for c in _pmonic(g)])
            rest, r = _pdivmod(rest, g)
            assert not r
    out.sort(key=_poly_sort_key)
    return out


def squarefree_decomposition(f):
    """Yun's algorithm; returns [(squarefree factor, multiplicity)]."""
    f = _pmonic(f)
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
    cs = [_lift_to(field, level, c) for c in cs] if level else cs
    out = []
    for sf, mult in squarefree_decomposition(cs):
        for irr in _factor_squarefree(field, level, sf):
            out.append(([_demote(c) for c in irr], mult))
    out.sort(key=lambda t: _poly_sort_key(t[0]))
    return _demote(lc) if isinstance(lc, AlgebraicNumber) else lc, out


def adjoin_root(field, coeffs, name=None):
    """Return (field, root) for a root of the given univariate polynomial.

    If the polynomial already has a root in the field, the field is returned
    unchanged with the canonically first such root.  Otherwise the canonically
    first irreducible factor is adjoined as a new tower level.  Degree and
    height beyond the implemented bounds raise ExtensionUnsupportedError.
    """
    cs = _pnorm([as_field_element(field, c) for c in coeffs])
    if _pdeg(cs) < 1:
        raise UsageError("adjoin_root needs a nonconstant polynomial")
    if _pdeg(cs) > _MAX_ADJOIN_DEGREE:
        raise ExtensionUnsupportedError(
            f"extension unsupported: degree {_pdeg(cs)} exceeds "
            f"{_MAX_ADJOIN_DEGREE} for polynomial with coefficients "
            f"[{', '.join(scalar_str(c) for c in cs)}]"
        )
    _, factors = factor_univariate(field, cs)
    linear = [f for f, _ in factors if len(f) == 2]
    if linear:
        roots = sorted((_demote0(-f[0]) for f in linear), key=_scalar_sort_key)
        return field, roots[0]
    if field.height() >= _MAX_TOWER_HEIGHT:
        raise ExtensionUnsupportedError(
            f"extension unsupported: tower height {_MAX_TOWER_HEIGHT} reached; "
            f"cannot adjoin a root of degree {_pdeg(factors[0][0])} factor"
        )
    fac = factors[0][0]
    if name is None:
        name = f"a{field.height() + 1}"
    root = field.adjoin(name, fac)
    return field, root


def _demote0(x):
    return _demote(x) if isinstance(x, AlgebraicNumber) else x


def roots_in_extension(field, coeffs):
    """All roots of the polynomial, adjoining as needed.

    Returns (field, [(root, multiplicity)]) with the list in deterministic
    order and total multiplicity equal to the degree.
    """
    cs = _pnorm([as_field_element(field, c) for c in coeffs])
    if _pdeg(cs) < 1:
        raise UsageError("roots_in_extension needs a nonconstant polynomial")
    out = []
    pending = [(cs, 1)]
    guard = 0
    while pending:
        guard += 1
        if guard > 64:
            raise ExtensionUnsupportedError(
                "extension unsupported: root enumeration did not stabilize"
            )
        poly, mult = pending.pop(0)
        _, factors = factor_univariate(field, poly)
        nonlinear = [(f, m) for f, m in factors if len(f) > 2]
        for f, m in factors:
            if len(f) == 2:
                out.append((_demote0(-f[0]), mult * m))
        if nonlinear:
            field, _ = adjoin_root(field, nonlinear[0][0])
            for f, m in nonlinear:
                pending.append((f, mult * m))
    merged: list[list] = []
    for r, m in out:
        for entry in merged:
            if entry[0] == r:
                entry[1] += m
                break
        else:
            merged.append([r, m])
    merged.sort(key=lambda t: _scalar_sort_key(t[0]))
    return field, [(r, m) for r, m in merged]
