"""Text forms shared by the command line and the test fixtures.

One grammar, one parser: rationals are "p/q"; scalar expressions add
sqrt(d) and parentheses, e.g. "1/2+1/2*sqrt(2)" or "(1+sqrt(2))/2";
weight and query lists are comma separated with "inf" for +infinity;
polynomials are terms joined by + and -, each term an optional
coefficient times a product of powered variables, e.g. "y^2 - x^3" or
"2/3*x*y - z^2"; series are terms "c*t^(e)" by increasing exponent with
an optional "O(t^(T))" tail.  Every printer in the package is inverted
by the matching parser bit for bit.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .errors import UsageError
from .polyring import INF, PolyRing
from .scalars import NumberField, ValueScalar, adjoin_root, as_field_element
from .series import ValuedSeries
from .tropical import TropQuery

_TOKEN = re.compile(r"\s*(\d+|[A-Za-z_][A-Za-z0-9_]*|[-+*/^(),;]|\S)")


class _Tokens:
    """A peekable token stream over a single input string."""

    def __init__(self, text):
        self.text = text
        self.items = []
        pos = 0
        while pos < len(text):
            m = _TOKEN.match(text, pos)
            if m is None:
                break
            tok = m.group(1)
            self.items.append(tok)
            pos = m.end()
        if text[pos:].strip():
            raise UsageError("cannot tokenize %r" % text[pos:].strip())
        self.at = 0

    def peek(self):
        if self.at < len(self.items):
            return self.items[self.at]
        return None

    def next(self):
        tok = self.peek()
        if tok is None:
            raise UsageError("unexpected end of input in %r" % self.text)
        self.at += 1
        return tok

    def expect(self, want):
        tok = self.next()
        if tok != want:
            raise UsageError(
                "expected %r but found %r in %r" % (want, tok, self.text)
            )
        return tok

    def done(self):
        return self.at >= len(self.items)


def parse_rational(text):
    """Strict "p/q" or integer form, no floats."""
    text = text.strip()
    if not re.fullmatch(r"[-+]?\d+(/\d+)?", text):
        raise UsageError("not a rational number: %r" % text)
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise UsageError("zero denominator in %r" % text) from None


def _field_sqrt(field, d):
    """The square root of d as a field element, adjoining if needed."""
    target = as_field_element(field, Fraction(d))
    for level in range(1, field.height() + 1):
        if field.levels[level - 1].degree == 2:
            gen = field.generator(level)
            if gen * gen == target:
                return gen
    _, root = adjoin_root(field, [Fraction(-d), Fraction(0), Fraction(1)])
    return root


class _ScalarExpr:
    """Recursive descent over +, -, *, /, sqrt(), parentheses.

    Two value domains share the grammar: weight entries become
    ValueScalar, polynomial and series coefficients become elements of
    a number field (identifiers then name tower generators).
    """

    def __init__(self, toks, field=None, d=None):
        self.toks = toks
        self.field = field
        self.d = d

    def expr(self):
        value = self.term()
        while self.toks.peek() in ("+", "-"):
            op = self.toks.next()
            rhs = self.term()
            value = value + rhs if op == "+" else value - rhs
        return value

    def term(self):
        value = self.factor()
        while self.toks.peek() in ("*", "/"):
            op = self.toks.next()
            rhs = self.factor()
            if op == "*":
                value = value * rhs
            else:
                try:
                    value = value / rhs
                except ZeroDivisionError:
                    raise UsageError("division by zero") from None
        return value

    def factor(self):
        tok = self.toks.peek()
        if tok in ("+", "-"):
            self.toks.next()
            inner = self.factor()
            return inner if tok == "+" else -inner
        return self.atom()

    def atom(self):
        tok = self.toks.next()
        if tok == "(":
            value = self.expr()
            self.toks.expect(")")
            return value
        if tok.isdigit():
            return self._number(Fraction(int(tok)))
        if tok == "sqrt":
            self.toks.expect("(")
            inner = self.toks.next()
            if not inner.isdigit():
                raise UsageError("sqrt needs a positive integer, got %r" % inner)
            self.toks.expect(")")
            return self._sqrt(int(inner))
        if tok.isidentifier() and self.field is not None:
            names = self.field.generator_names()
            if tok in names:
                return self.field.generator(names.index(tok) + 1)
        raise UsageError("unexpected token %r" % tok)

    def _number(self, q):
        if self.field is None:
            return ValueScalar(q)
        return as_field_element(self.field, q)

    def _sqrt(self, d):
        if d <= 0:
            raise UsageError("sqrt needs a positive integer")
        if self.field is None:
            if self.d is not None and d != self.d:
                raise UsageError(
                    "sqrt(%d) conflicts with the session constant d=%d"
                    % (d, self.d)
                )
            return ValueScalar(0, 1, d)
        return _field_sqrt(self.field, d)


def parse_scalar(text, d=None):
    """A ValueScalar from expression text; "inf" gives +infinity."""
    stripped = text.strip()
    if stripped in ("inf", "+inf", "Inf", "INF"):
        return INF
    toks = _Tokens(stripped)
    value = _ScalarExpr(toks, field=None, d=d).expr()
    if not toks.done():
        raise UsageError("trailing input %r in %r" % (toks.peek(), text))
    return value


def parse_weights(text, d=None):
    """A comma separated list of positive scalars (no infinities)."""
    entries = _split_top(text, ",")
    if not entries or entries == [""]:
        raise UsageError("empty weight list")
    out = []
    for part in entries:
        value = parse_scalar(part, d=d)
        if value is INF:
            raise UsageError("infinite entries are only allowed in queries")
        out.append(value)
    return tuple(out)


def parse_query(text, d=None):
    """A tropical membership query; entries may be "inf"."""
    entries = _split_top(text, ",")
    if not entries or entries == [""]:
        raise UsageError("empty query")
    return TropQuery(tuple(parse_scalar(part, d=d) for part in entries))


def _split_top(text, sep):
    """Split on sep outside parentheses."""
    parts = []
    depth = 0
    current = []
    for ch in text:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth < 0:
                raise UsageError("unbalanced parentheses in %r" % text)
        if ch == sep and depth == 0:
            parts.append("".join(current).strip())
            current = []
        else:
            current.append(ch)
    if depth != 0:
        raise UsageError("unbalanced parentheses in %r" % text)
    parts.append("".join(current).strip())
    return parts


# -- polynomials ------------------------------------------------------------


def parse_poly(text, ring):
    """A polynomial over ring from the term grammar."""
    if not isinstance(ring, PolyRing):
        raise UsageError("expected a polynomial ring")
    toks = _Tokens(text.strip())
    if toks.done():
        raise UsageError("empty polynomial text")
    terms = []
    sign = 1
    tok = toks.peek()
    if tok in ("+", "-"):
        toks.next()
        sign = -1 if tok == "-" else 1
    while True:
        coeff, expo = _parse_term(toks, ring)
        terms.append((expo, coeff * sign))
        if toks.done():
            break
        op = toks.next()
        if op == "+":
            sign = 1
        elif op == "-":
            sign = -1
        else:
            raise UsageError("expected + or - but found %r" % op)
    return ring.from_terms(terms)


def _parse_term(toks, ring):
    """One product of coefficient atoms and powered variables."""
    names = list(ring.vars)
    coeff = as_field_element(ring.field, Fraction(1))
    expo = [0] * len(names)
    saw_atom = False
    while True:
        tok = toks.peek()
        if tok is None:
            break
        if tok == "(":
            toks.next()
            inner = _ScalarExpr(toks, field=ring.field).expr()
            toks.expect(")")
            coeff = coeff * inner
        elif tok.isdigit():
            toks.next()
            value = Fraction(int(tok))
            while toks.peek() == "/":
                toks.next()
                den = toks.next()
                if not den.isdigit() or int(den) == 0:
                    raise UsageError("bad denominator %r" % den)
                value = value / int(den)
            coeff = coeff * as_field_element(ring.field, value)
        elif tok == "sqrt":
            toks.next()
            toks.expect("(")
            inner = toks.next()
            if not inner.isdigit():
                raise UsageError("sqrt needs a positive integer")
            toks.expect(")")
            coeff = coeff * _field_sqrt(ring.field, int(inner))
        elif tok.isidentifier():
            toks.next()
            e = 1
            if toks.peek() == "^":
                toks.next()
                power = toks.next()
                if not power.isdigit():
                    raise UsageError("exponent must be a nonnegative integer")
                e = int(power)
            if tok in names:
                expo[names.index(tok)] += e
            else:
                gens = ring.field.generator_names()
                if tok in gens:
                    g = ring.field.generator(gens.index(tok) + 1)
                    coeff = coeff * g**e
                else:
                    raise UsageError("unknown symbol %r" % tok)
        else:
            break
        saw_atom = True
        while toks.peek() == "/":
            toks.next()
            den = toks.next()
            if den is None or not den.isdigit() or int(den) == 0:
                raise UsageError("bad denominator %r" % den)
            coeff = coeff * as_field_element(ring.field, Fraction(1, int(den)))
        if toks.peek() == "*":
            toks.next()
            if toks.peek() is None:
                raise UsageError("dangling * at end of input")
            continue
        if toks.peek() in ("+", "-", None):
            break
    if not saw_atom:
        raise UsageError("expected a term but found %r" % toks.peek())
    return coeff, tuple(expo)


def parse_generators(text, ring):
    """Semicolon separated polynomials; the zero ideal is spelled "0"."""
    gens = [parse_poly(part, ring) for part in _split_top(text, ";") if part]
    if not gens:
        raise UsageError("no generators given")
    return gens


# -- ideal fixture files ----------------------------------------------------


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
            names = [v.strip() for v in line[5:].split(",") if v.strip()]
            if not names:
                raise UsageError("empty variable list")
            if len(set(names)) != len(names):
                raise UsageError("repeated variable name")
            for name in names:
                if not name.isidentifier():
                    raise UsageError("bad variable name %r" % name)
            ring = PolyRing(field, tuple(names))
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
    stripped = text.strip()
    if stripped == "0":
        return ValuedSeries.zero(field, INF, mode)
    toks = _Tokens(stripped)
    terms = []
    truncation = INF
    sign = 1
    tok = toks.peek()
    if tok in ("+", "-"):
        toks.next()
        sign = -1 if tok == "-" else 1
    while True:
        if toks.peek() == "O":
            toks.next()
            toks.expect("(")
            exp = _parse_t_power(toks, d)
            toks.expect(")")
            truncation = exp
            if not toks.done():
                raise UsageError("the O-term must come last")
            break
        exp, coeff = _parse_series_term(toks, field, d)
        terms.append((exp, -coeff if sign < 0 else coeff))
        if toks.done():
            break
        op = toks.next()
        if op == "+":
            sign = 1
        elif op == "-":
            sign = -1
        else:
            raise UsageError("expected + or - but found %r" % op)
    return ValuedSeries(field, terms, truncation, mode)


def _parse_t_power(toks, d):
    """The exponent of one "t^(expr)" group; bare "t" means 1."""
    toks.expect("t")
    if toks.peek() == "^":
        toks.next()
        toks.expect("(")
        value = _ScalarExpr(toks, field=None, d=d).expr()
        toks.expect(")")
        return value
    return ValueScalar(1)


def _parse_series_term(toks, field, d):
    """One series term: [coefficient *] t^(e), or a bare constant."""
    tok = toks.peek()
    coeff = None
    if tok == "t":
        exp = _parse_t_power(toks, d)
        return exp, as_field_element(field, Fraction(1))
    if tok == "(":
        toks.next()
        coeff = _ScalarExpr(toks, field=field).expr()
        toks.expect(")")
    elif tok is not None and tok.isdigit():
        toks.next()
        value = Fraction(int(tok))
        while toks.peek() == "/":
            toks.next()
            den = toks.next()
            if not den.isdigit() or int(den) == 0:
                raise UsageError("bad denominator %r" % den)
            value = value / int(den)
        coeff = as_field_element(field, value)
    elif tok is not None and tok.isidentifier() and tok not in ("t", "O"):
        names = field.generator_names()
        if tok not in names:
            raise UsageError("unknown symbol %r" % tok)
        toks.next()
        coeff = field.generator(names.index(tok) + 1)
    else:
        raise UsageError("expected a series term but found %r" % tok)
    if toks.peek() == "*":
        toks.next()
        exp = _parse_t_power(toks, d)
        return exp, coeff
    return ValueScalar(0), coeff


def parse_point(text, field, mode="puiseux", d=None):
    """Semicolon separated series, one per coordinate."""
    parts = _split_top(text, ";")
    if not parts or parts == [""]:
        raise UsageError("empty point")
    return tuple(parse_series(part, field, mode, d) for part in parts)
