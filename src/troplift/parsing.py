"""Text forms shared by the command line and the test fixtures.

One grammar, one parser.  An expression is a sum of signed products:
"+" and "-" bind loosest, then "*" and "/", then a unary sign; atoms are
integers, "sqrt(n)" for a positive integer n, names, and parenthesized
expressions.  Division is by nonzero constants only.  What the atoms mean
depends on the text form:

- weights, queries and exponents are scalars a + b*sqrt(d), such as
  "1/2+1/2*sqrt(2)" or "(1+sqrt(2))/2"; they take no names, and weight and
  query lists are comma separated with "inf" for +infinity in queries;
- polynomials, such as "y^2 - x^3" or "2/3*x*y - z^2", read names as ring
  variables, then as tower generators of the coefficient field, each with
  an optional "^n" for an integer n >= 0; sqrt(n) adjoins a square root to
  the field when it has none; here alone a product may omit its "*", as
  in "2x" or "x y";
- series, such as "a1*t^(1/2) - sqrt(3)*t + O(t^(4))", read "t" as the
  parameter, "t^(e)" as its power with e a scalar expression, other names
  as tower generators, and an "O(t^(T))" tail that must come last.

Every printer in the package is inverted by the matching parser bit for
bit.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .errors import UsageError
from .polyring import INF, PolyRing
from .scalars import (
    NumberField,
    ValueScalar,
    _MAX_RADICAND,
    adjoin_root,
    as_field_element,
    scalar_str,
)
from .series import ValuedSeries
from .tropical import TropQuery

# -- the grammar ------------------------------------------------------------

_TOKEN = re.compile(r"\d+|[A-Za-z_][A-Za-z0-9_]*|\S")


class _Tokens:
    """A peekable token stream over a single input string."""

    def __init__(self, text):
        self.text = text
        self.items = _TOKEN.findall(text) + [None]
        self.at = 0

    def peek(self):
        return self.items[self.at]

    def next(self):
        tok = self.peek()
        if tok is None:
            raise UsageError("unexpected end of input in %r" % self.text)
        self.at += 1
        return tok

    def expect(self, want):
        tok = self.next()
        if tok != want:
            raise UsageError("expected %r but found %r in %r" % (want, tok, self.text))


class _Parser:
    """Recursive descent over a token stream; the domain makes the values."""

    def __init__(self, toks, domain):
        self.toks = toks
        self.domain = domain
        self.depth = 0

    def sum(self):
        """Terms joined by + and -, added at once so long sums stay linear."""
        terms = [self.product()]
        while self.toks.peek() in ("+", "-"):
            op = self.toks.next()
            term = self.product()
            terms.append(-term if op == "-" else term)
        return terms[0] if len(terms) == 1 else self.domain.total(terms)

    def product(self):
        toks = self.toks
        value = self.unary()
        while True:
            op = toks.peek()
            if op in ("*", "/"):
                toks.next()
                if op == "*" and toks.peek() is None:
                    raise UsageError("dangling * at end of input")
            elif not self.domain.implicit or op is None or not (
                op == "(" or op.isidentifier() or op.isdigit()
            ):
                return value
            start = toks.peek()
            rhs = self.unary()
            if op == "/":
                value = self.domain.divide(value, rhs, start)
            else:
                value = value * rhs

    def unary(self):
        tok = self.toks.peek()
        if tok in ("+", "-"):
            self.toks.next()
            value = self.unary()
            return -value if tok == "-" else value
        return self.atom()

    def atom(self):
        toks, domain = self.toks, self.domain
        tok = toks.peek()
        if tok == "(":
            toks.next()
            self.depth += 1
            value = self.sum()
            self.depth -= 1
            toks.expect(")")
            return value
        if tok is not None and tok.isdigit():
            toks.next()
            return domain.number(int(tok))
        if tok == "sqrt":
            toks.next()
            toks.expect("(")
            value = domain.sqrt(toks.next())
            toks.expect(")")
            return value
        if tok is not None and tok.isidentifier():
            toks.next()
            return domain.name(tok, toks)
        if tok is None and (domain.noun is None or self.depth):
            toks.next()  # input that ends in a scalar or inside parentheses
        if domain.noun is None:
            raise UsageError("unexpected token %r" % tok)
        raise UsageError("expected %s but found %r" % (domain.noun, tok))


def _parse(text, domain):
    toks = _Tokens(text.strip())
    value = _Parser(toks, domain).sum()
    if toks.peek() is not None:
        raise UsageError("expected + or - but found %r" % toks.peek())
    return value


# -- domains: the values of numbers, sqrt(n), names, sums and quotients ----


class _Scalars:
    """Weights, queries and exponents: ValueScalars, with no names."""

    noun = None
    implicit = False

    def __init__(self, d):
        if d is not None and d > _MAX_RADICAND:
            raise UsageError("d=%d is above the bound 10^12" % d)
        self.d = d

    def number(self, n):
        return ValueScalar(n)

    def sqrt(self, arg):
        if not arg.isdigit() or int(arg) == 0:
            raise UsageError("sqrt needs a positive integer, got %r" % arg)
        n = int(arg)
        if n > _MAX_RADICAND:  # the square part is found by trial division
            raise UsageError("sqrt(%d) is above the bound 10^12" % n)
        r, d, q = 1, n, 2  # sqrt(n) = r*sqrt(d) with d squarefree
        while q * q <= d:
            if d % (q * q):
                q += 1
            else:
                r, d = r * q, d // (q * q)
        if d > 1 and self.d is not None and d != self.d:
            raise UsageError(
                "sqrt(%d) conflicts with the session constant d=%d" % (n, self.d)
            )
        # d is squarefree by construction: skip the constructor's check
        return object.__new__(ValueScalar)._build(Fraction(0), Fraction(r), d)

    def name(self, tok, toks):
        raise UsageError("unexpected token %r" % tok)

    def total(self, terms):
        return sum(terms[1:], terms[0])

    def divide(self, a, b, start):
        try:
            return a / b
        except ZeroDivisionError:
            raise UsageError("division by zero") from None


def _field_sqrt(field, d):
    """The square root of d as a field element, adjoining if needed; of
    the two roots, the one whose text has no leading minus."""
    target = as_field_element(field, Fraction(d))
    for level in range(1, field.height() + 1):
        gen = field.generator(level)
        if gen * gen == target:
            return gen
    _, root = adjoin_root(field, [Fraction(-d), Fraction(0), Fraction(1)])
    return -root if scalar_str(root).startswith("-") else root


class _FieldValues:
    """Coefficients in a number field; subclasses wrap them as constants."""

    implicit = False

    def number(self, n):
        return self.constant(Fraction(n))

    def sqrt(self, arg):
        if not arg.isdigit():
            raise UsageError("sqrt needs a positive integer")
        return self.constant(_field_sqrt(self.field, int(arg)))

    def power(self, toks):
        """The n of a "^n" after a name; 1 when there is none."""
        if toks.peek() != "^":
            return 1
        toks.next()
        power = toks.next()
        if not power.isdigit():
            raise UsageError("exponent must be a nonnegative integer")
        return int(power)

    def generator(self, tok):
        names = self.field.generator_names()
        if tok not in names:
            raise UsageError("unknown symbol %r" % tok)
        return self.field.generator(names.index(tok) + 1)

    def divide(self, a, b, start):
        c = self.constant_value(b)
        if not c:
            raise UsageError("bad denominator %r" % start)
        return a * self.constant(1 / c)


class _Polys(_FieldValues):
    """Polynomials over a ring; a product may omit its "*"."""

    noun = "a term"
    implicit = True

    def __init__(self, ring):
        self.field, self.ring = ring.field, ring

    def constant(self, c):
        return self.ring.constant(c)

    def total(self, terms):
        return self.ring.from_terms(t for f in terms for t in f.coeffs.items())

    def constant_value(self, f):
        if not any(any(m) for m in f.coeffs):
            return f.constant_term()
        return None

    def name(self, tok, toks):
        e = self.power(toks)
        i = self.ring.index.get(tok)
        if i is None:
            return self.constant(self.generator(tok) ** e)
        expo = [0] * self.ring.nvars()
        expo[i] = e
        return self.ring.monomial(expo)


class _Series(_FieldValues):
    """Truncated series in t: "t^(e)" powers and a last "O(t^(T))" tail."""

    noun = "a series term"

    def __init__(self, field, mode, d):
        self.field, self.mode, self.d = field, mode, d

    def constant(self, c):
        return ValuedSeries.constant(self.field, c, self.mode)

    def total(self, terms):
        items = [t for s in terms for t in s.terms]
        trunc = min(s.truncation for s in terms)
        return ValuedSeries(self.field, items, trunc, self.mode)

    def constant_value(self, s):
        if s.truncation is INF and all(e == 0 for e, _ in s.terms):
            return s.coefficient(0)
        return None

    def name(self, tok, toks):
        if tok not in ("t", "O"):
            return self.constant(self.generator(tok) ** self.power(toks))
        if tok == "O":
            toks.expect("(")
            toks.expect("t")
        e = ValueScalar(1)
        if toks.peek() == "^":
            toks.next()
            toks.expect("(")
            e = _Parser(toks, _Scalars(self.d)).sum()
            toks.expect(")")
        if tok == "t":
            return ValuedSeries.monomial(self.field, e, 1, self.mode)
        toks.expect(")")
        if toks.peek() is not None:
            raise UsageError("the O-term must come last")
        return ValuedSeries.zero(self.field, e, self.mode)


# -- weights and queries ----------------------------------------------------


def parse_scalar(text, d=None):
    """A ValueScalar from expression text; "inf" gives +infinity."""
    if text.strip() in ("inf", "+inf", "Inf", "INF"):
        return INF
    return _parse(text, _Scalars(d))


def parse_weights(text, d=None):
    """A comma separated list of positive scalars (no infinities)."""
    entries = _scalar_list(text, d, "empty weight list")
    if any(v is INF for v in entries):
        raise UsageError("infinite entries are only allowed in queries")
    return entries


def parse_query(text, d=None):
    """A tropical membership query; entries may be "inf"."""
    return TropQuery(_scalar_list(text, d, "empty query"))


def _scalar_list(text, d, empty):
    parts = _split(text, ",")
    if parts == [""]:
        raise UsageError(empty)
    return tuple(parse_scalar(part, d=d) for part in parts)


def _split(text, sep):
    """Split on sep once the parentheses are known to balance."""
    depth = 0
    for ch in text:
        depth += (ch == "(") - (ch == ")")
        if depth < 0:
            break
    if depth != 0:
        raise UsageError("unbalanced parentheses in %r" % text)
    return [part.strip() for part in text.split(sep)]


# -- polynomials and ideal fixture files ------------------------------------


def parse_poly(text, ring):
    """A polynomial over ring."""
    if not isinstance(ring, PolyRing):
        raise UsageError("expected a polynomial ring")
    if not text.strip():
        raise UsageError("empty polynomial text")
    return _parse(text, _Polys(ring))


def parse_generators(text, ring):
    """Semicolon separated polynomials; the zero ideal is spelled "0"."""
    gens = [parse_poly(part, ring) for part in _split(text, ";") if part]
    if not gens:
        raise UsageError("no generators given")
    return gens


def parse_vars(text):
    """Variable names from a comma separated list."""
    names = tuple(v.strip() for v in text.split(",") if v.strip())
    if not names:
        raise UsageError("empty variable list")
    for name in names:
        if name == "sqrt" or not re.fullmatch(r"[A-Za-z_]\w*", name, re.ASCII):
            raise UsageError("bad variable name %r" % name)
    if len(set(names)) != len(names):
        raise UsageError("repeated variable name")
    return names


def parse_ideal_text(text, field=None, d=None):
    """An ideal fixture: vars header, optional order and w, generators.

    Returns (ring, generators, mode, weights); mode defaults to local
    and weights to None when the fixture does not pin them.
    """
    if field is None:
        field = NumberField()
    ring = None
    mode = None
    weights = None
    gens = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        lower = line.lower()
        if lower.startswith("vars:"):
            if ring is not None:
                raise UsageError("duplicate vars header")
            ring = PolyRing(field, parse_vars(line[5:]))
            continue
        if lower.startswith("order:"):
            value = line[6:].strip().lower()
            if value not in ("local", "global"):
                raise UsageError("order must be local or global")
            mode = value
            continue
        if lower.startswith("w:"):
            weights = parse_weights(line[2:], d=d)
            continue
        if ring is None:
            raise UsageError("fixture must declare vars before generators")
        gens.append(parse_poly(line, ring))
    if ring is None:
        raise UsageError("fixture has no vars header")
    return ring, gens, (mode or "local"), weights


# -- series -----------------------------------------------------------------


def parse_series(text, field, mode="puiseux", d=None):
    """A truncated series from the canonical printed form."""
    return _parse(text, _Series(field, mode, d))


def parse_point(text, field, mode="puiseux", d=None):
    """Semicolon separated series, one per coordinate."""
    parts = _split(text, ";")
    if parts == [""]:
        raise UsageError("empty point")
    return tuple(parse_series(part, field, mode, d) for part in parts)
