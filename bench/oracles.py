"""Answers the benchmark knows without asking troplift.

Every check the benchmark makes on the program's output rests on code in
this file, which imports nothing from troplift:

* tropical membership in closed form (principal ideals, linear ideals by
  circuits, the monomial curve (t, t^2, t^3));
* exact series arithmetic over Q or over a tower of simple extensions, used
  to substitute lifted points back into their ideal;
* the binomial series and known factors as references for Newton-Puiseux;
* small parsers for the series and polynomial text the CLI prints.

Exponents live in Q + Q*sqrt(d) (class Value); coefficients are Fractions,
or nested tuples when a point lives over an algebraic extension (class
Tower).  Program objects are read only through their plain data fields.
"""

from __future__ import annotations

import itertools
import math
import re
from fractions import Fraction


# -- exponents a + b*sqrt(d) --------------------------------------------------


class Value:
    """An element a + b*sqrt(d) of the value group, compared exactly."""

    __slots__ = ("a", "b", "d")

    def __init__(self, a, b=0, d=1):
        a, b = Fraction(a), Fraction(b)
        if d == 1:
            a, b = a + b, Fraction(0)
        if b == 0:
            d = 1
        self.a, self.b, self.d = a, b, d

    def _d(self, other):
        if self.d != 1 and other.d != 1 and self.d != other.d:
            raise ValueError("values over different square roots")
        return self.d if self.d != 1 else other.d

    def __add__(self, other):
        if not isinstance(other, Value):
            other = Value(other)
        return Value(self.a + other.a, self.b + other.b, self._d(other))

    def __mul__(self, k):
        k = Fraction(k)
        return Value(self.a * k, self.b * k, self.d)

    def sign(self):
        sa = (self.a > 0) - (self.a < 0)
        sb = (self.b > 0) - (self.b < 0)
        if sb == 0:
            return sa
        if sa == 0 or sa == sb:
            return sb
        # opposite signs: the larger of a^2 and b^2 * d wins
        return sa if self.a * self.a > self.b * self.b * self.d else sb

    def cmp(self, other):
        if not isinstance(other, Value):
            other = Value(other)
        return Value(self.a - other.a, self.b - other.b, self._d(other)).sign()

    def __eq__(self, other):
        if not isinstance(other, Value):
            other = Value(other)
        return self.a == other.a and self.b == other.b

    def __lt__(self, other):
        return self.cmp(other) < 0

    def __le__(self, other):
        return self.cmp(other) <= 0

    def __hash__(self):
        return hash((self.a, self.b))

    def __repr__(self):
        return "Value(%s, %s, %d)" % (self.a, self.b, self.d)


def value_of(x):
    """A Value from a program ValueScalar (fields a, b, d) or a rational."""
    if hasattr(x, "a") and hasattr(x, "d"):
        return Value(x.a, x.b, x.d)
    return Value(Fraction(x))


# -- coefficients in a tower of simple extensions of Q -----------------------


class Tower:
    """Exact arithmetic in Q(a1)(a2)...: level-L elements are tuples of
    level-(L-1) elements, reduced modulo that level's monic minimal
    polynomial.  Built from the minimal polynomials a program field holds."""

    def __init__(self, minpolys=()):
        self.minpolys = []
        for level, mp in enumerate(minpolys, start=1):
            self.minpolys.append(tuple(self.embed(c, level - 1) for c in mp))

    @classmethod
    def of_field(cls, field):
        """Read the minimal polynomials of a troplift NumberField."""
        return cls([lv.minpoly for lv in field.levels])

    @property
    def height(self):
        return len(self.minpolys)

    def zero(self, level=None):
        level = self.height if level is None else level
        if level == 0:
            return Fraction(0)
        return (self.zero(level - 1),) * (len(self.minpolys[level - 1]) - 1)

    def embed(self, x, level=None):
        """Fraction, or a program AlgebraicNumber (fields level, coeffs), at
        the given level (default: the top)."""
        level = self.height if level is None else level
        if hasattr(x, "coeffs") and hasattr(x, "level"):
            own = x.level
            inner = tuple(self.embed(c, own - 1) for c in x.coeffs)
            deg = len(self.minpolys[own - 1]) - 1
            inner = inner + (self.zero(own - 1),) * (deg - len(inner))
        else:
            own, inner = 0, Fraction(x)
        if own > level:
            raise ValueError("element above the requested level")
        while own < level:
            own += 1
            deg = len(self.minpolys[own - 1]) - 1
            inner = (inner,) + (self.zero(own - 1),) * (deg - 1)
        return inner

    def add(self, x, y):
        if isinstance(x, Fraction):
            return x + y
        return tuple(self.add(a, b) for a, b in zip(x, y))

    def neg(self, x):
        if isinstance(x, Fraction):
            return -x
        return tuple(self.neg(a) for a in x)

    def scale(self, x, q):
        if isinstance(x, Fraction):
            return x * q
        return tuple(self.scale(a, q) for a in x)

    def is_zero(self, x):
        if isinstance(x, Fraction):
            return x == 0
        return all(self.is_zero(a) for a in x)

    def mul(self, x, y, level=None):
        level = self.height if level is None else level
        if level == 0:
            return x * y
        below = level - 1
        prod = [self.zero(below)] * (len(x) + len(y) - 1)
        for i, a in enumerate(x):
            for j, b in enumerate(y):
                prod[i + j] = self.add(prod[i + j], self.mul(a, b, below))
        mp = self.minpolys[level - 1]
        deg = len(mp) - 1
        for k in range(len(prod) - 1, deg - 1, -1):
            c = prod[k]
            if self.is_zero(c):
                continue
            for i in range(deg + 1):
                term = self.mul(c, mp[i], below)
                prod[k - deg + i] = self.add(prod[k - deg + i], self.neg(term))
        return tuple(prod[:deg])


# -- truncated series ----------------------------------------------------------


class Series:
    """sum c_e t^e known below trunc (None: exact), coefficients in a Tower."""

    def __init__(self, tower, terms, trunc=None):
        self.tower = tower
        self.trunc = trunc
        kept = {}
        for e, c in terms:
            if trunc is not None and not e < trunc:
                continue
            kept[e] = self.tower.add(kept[e], c) if e in kept else c
        self.terms = {e: c for e, c in kept.items() if not tower.is_zero(c)}

    @classmethod
    def of_program(cls, tower, s):
        """Read a troplift ValuedSeries through its terms and truncation."""
        trunc = value_of(s.truncation) if hasattr(s.truncation, "a") else None
        return cls(tower, [(value_of(e), tower.embed(c)) for e, c in s.terms], trunc)

    @classmethod
    def rational(cls, tower, pairs, trunc=None):
        return cls(tower, [(Value(e), tower.embed(Fraction(c))) for e, c in pairs], trunc)

    def valuation(self):
        """The lowest known exponent, or None when no term is known."""
        return min(self.terms) if self.terms else None

    def __add__(self, other):
        return Series(self.tower, list(self.terms.items()) + list(other.terms.items()),
                      _min_trunc(self.trunc, other.trunc))

    def __neg__(self):
        return Series(self.tower, [(e, self.tower.neg(c)) for e, c in self.terms.items()],
                      self.trunc)

    def __mul__(self, other):
        # None stands for +infinity: an exact series or the exact zero
        va = self.valuation() if self.terms else self.trunc
        vb = other.valuation() if other.terms else other.trunc
        trunc = _min_trunc(_plus(self.trunc, vb), _plus(other.trunc, va))
        items = [
            (ea + eb, self.tower.mul(ca, cb))
            for ea, ca in self.terms.items()
            for eb, cb in other.terms.items()
        ]
        return Series(self.tower, items, trunc)

    def power(self, k):
        out = Series(self.tower, [(Value(0), self.tower.embed(Fraction(1)))])
        for _ in range(k):
            out = out * self
        return out

    def below(self, bound):
        """The terms with exponent below bound, sorted."""
        return sorted((e, c) for e, c in self.terms.items() if e < bound)

    def known_to(self, bound):
        """True when every term below bound is determined."""
        return self.trunc is None or not self.trunc < bound


def _plus(a, b):
    return None if a is None or b is None else a + b


def _min_trunc(a, b):
    if a is None:
        return b
    if b is None:
        return a
    return a if a <= b else b


def substitute(tower, poly, point):
    """poly ({exponent tuple: Fraction}) evaluated at Series coordinates."""
    total = Series(tower, [])
    powers = {}
    for mono, c in poly.items():
        term = Series(tower, [(Value(0), tower.embed(Fraction(c)))])
        for i, e in enumerate(mono):
            if e:
                if (i, e) not in powers:
                    powers[(i, e)] = point[i].power(e)
                term = term * powers[(i, e)]
        total = total + term
    return total


def residual_at_least(tower, poly, point, N):
    """Whether poly(point) vanishes below t^N, as far as it is known."""
    r = substitute(tower, poly, point)
    return not r.below(Value(N)) and r.known_to(Value(N))


# -- polynomials as data -----------------------------------------------------


def poly_text(poly, names):
    """Render {exponent tuple: Fraction} in the program's input grammar."""
    parts = []
    for mono, c in sorted(poly.items(), reverse=True):
        factors = [n if e == 1 else "%s^%d" % (n, e) for n, e in zip(names, mono) if e]
        c = Fraction(c)
        mag = abs(c)
        body = "*".join(([str(mag)] if mag != 1 or not factors else []) + factors)
        parts.append(("-" if c < 0 else "+") + " " + body)
    text = " ".join(parts)
    return text[2:] if text.startswith("+ ") else "-" + text[2:]


# -- tropical membership in closed form --------------------------------------


def principal_member(poly, w):
    """w (entries rational or None for +infinity) lies in the local tropical
    hypersurface of poly: after dropping the monomials that contain an
    infinite variable, the minimum of <w, m> is attained at least twice
    (or nothing is left)."""
    vals = []
    for mono in poly:
        if any(e and w[i] is None for i, e in enumerate(mono)):
            continue
        vals.append(sum(Fraction(w[i]) * e for i, e in enumerate(mono) if e))
    if not vals:
        return True
    low = min(vals)
    return vals.count(low) >= 2


def rank(rows):
    """Rank of a rational matrix given as a list of rows."""
    rows = [[Fraction(x) for x in r] for r in rows]
    found = 0
    ncols = len(rows[0]) if rows else 0
    for col in range(ncols):
        piv = next((i for i in range(found, len(rows)) if rows[i][col] != 0), None)
        if piv is None:
            continue
        rows[found], rows[piv] = rows[piv], rows[found]
        for i in range(len(rows)):
            if i != found and rows[i][col] != 0:
                f = rows[i][col] / rows[found][col]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[found])]
        found += 1
    return found


def linear_member(forms, w):
    """w in the tropicalization of the linear ideal spanned by forms (rows of
    coefficients), by the circuit rule: on the support of every circuit of
    the span, restricted to the finite coordinates, the minimum of w is
    attained at least twice."""
    fin = [i for i, x in enumerate(w) if x is not None]
    rows = [[r[i] for i in fin] for r in forms]
    if not fin:
        return True
    total = rank(rows)
    supports = []
    for size in range(1, len(fin) + 1):
        for S in itertools.combinations(range(len(fin)), size):
            if any(set(c) <= set(S) for c in supports):
                continue
            rest = [j for j in range(len(fin)) if j not in S]
            if total > (rank([[r[j] for j in rest] for r in rows]) if rest else 0):
                supports.append(S)
    for S in supports:
        vals = [Fraction(w[fin[j]]) for j in S]
        if vals.count(min(vals)) < 2:
            return False
    return True


def curve_member(exps, w):
    """w in the local tropicalization of the monomial curve t -> (t^k)_k:
    all entries infinite, or all finite and proportional to exps."""
    if all(x is None for x in w):
        return True
    if any(x is None for x in w):
        return False
    base = Fraction(w[0]) / exps[0]
    return all(Fraction(x) == base * k for x, k in zip(w, exps))


def cone_contains(eq, ineq, w):
    """w in the closed cone {<e, w> = 0, <h, w> >= 0} of integer rows."""
    dot = lambda row: sum(Fraction(a) * Fraction(b) for a, b in zip(row, w))
    return all(dot(r) == 0 for r in eq) and all(dot(r) >= 0 for r in ineq)


# -- reference series --------------------------------------------------------


def binomial_half(k):
    """Coefficient of s^k in (1 + s)^(1/2)."""
    num = Fraction(1)
    for i in range(k):
        num *= Fraction(1, 2) - i
    return num / math.factorial(k)


def node_branch(a, count):
    """The terms of t^a * (1 + t^a)^(1/2) below t^(a*(count+1))."""
    return [(Value(a * (k + 1)), binomial_half(k)) for k in range(count)]


# -- text the CLI prints ------------------------------------------------------

_SERIES_TERM = re.compile(
    r"^(?:(?P<c>\d+(?:/\d+)?)\*)?t\^\((?P<e>-?\d+(?:/\d+)?)\)$"
)


def parse_series_text(text):
    """Rational series text 'c*t^(e) + ... + O(t^(T))' as (terms, trunc)."""
    terms, trunc = [], None
    for sign, body in _signed_parts(text):
        if body.startswith("O(t^(") and body.endswith("))"):
            trunc = Fraction(body[5:-2])
            continue
        m = _SERIES_TERM.match(body)
        if m is None:
            raise ValueError("unexpected series term %r" % body)
        c = Fraction(m.group("c") or 1)
        terms.append((Fraction(m.group("e")), sign * c))
    return terms, trunc


_POLY_FACTOR = re.compile(r"^(?P<v>[A-Za-z_][A-Za-z0-9_]*)(?:\^(?P<e>\d+))?$")


def parse_poly_text(text, names):
    """Polynomial text 'c*x^a*y^b - ...' as {exponent tuple: Fraction}."""
    out = {}
    for sign, body in _signed_parts(text):
        coeff = Fraction(sign)
        expo = [0] * len(names)
        for factor in body.split("*"):
            m = _POLY_FACTOR.match(factor)
            if m is None:
                coeff *= Fraction(factor)
            else:
                expo[names.index(m.group("v"))] += int(m.group("e") or 1)
        out[tuple(expo)] = out.get(tuple(expo), 0) + coeff
    return {m: c for m, c in out.items() if c}


def _signed_parts(text):
    text = text.strip()
    sign = 1
    if text.startswith("-"):
        sign, text = -1, text[1:].lstrip()
    pieces = re.split(r" ([+-]) ", text)
    yield sign, pieces[0]
    for op, body in zip(pieces[1::2], pieces[2::2]):
        yield (-1 if op == "-" else 1), body


def same_up_to_scalar(f, g):
    """f and g have the same support and proportional coefficients."""
    if set(f) != set(g) or not f:
        return False
    m0 = next(iter(f))
    ratio = Fraction(f[m0]) / Fraction(g[m0])
    return all(Fraction(f[m]) == ratio * Fraction(g[m]) for m in f)
