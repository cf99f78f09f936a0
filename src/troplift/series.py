"""Truncated series in one parameter with scalar exponents.

A series is a finite list of (exponent, coefficient) terms below a
truncation bound: it stands for any series agreeing with those terms up
to the bound.  Exponents are exact scalars, rational in puiseux mode and
possibly quadratic-irrational in hahn mode.  Arithmetic tracks how far
the result is still trustworthy, so downstream checks can tell an exact
zero from one that merely vanished below the noise floor.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InsufficientTruncationError, UsageError
from .polyring import Polynomial
from .scalars import (
    INF,
    ValueScalar,
    as_field_element,
    as_value,
    scalar_str,
    sum_str,
    term_str,
)

_MODES = ("puiseux", "hahn")


@dataclass(frozen=True)
class AtLeast:
    """Valuation lower bound: the support is empty below this point."""

    bound: ValueScalar

    def __str__(self):
        return ">= %s" % self.bound


def valuation_at_least(v, x):
    """Whether a valuation answer (scalar, AtLeast, or INF) is surely >= x."""
    if isinstance(v, AtLeast):
        v = v.bound
    return v >= x


class ValuedSeries:
    """Truncated series with sorted support."""

    __slots__ = ("field", "terms", "truncation", "mode")

    def __init__(self, field, terms, truncation=INF, mode="puiseux"):
        if mode not in _MODES:
            raise UsageError("mode must be one of %s" % (_MODES,))
        truncation = as_value(truncation)
        merged = {}
        for exp, coeff in terms:
            exp = as_value(exp)
            if exp is INF:
                raise UsageError("series exponents must be finite")
            coeff = as_field_element(field, coeff)
            if exp in merged:
                merged[exp] = merged[exp] + coeff
            else:
                merged[exp] = coeff
        kept = []
        for exp in sorted(merged):
            if truncation is not INF and exp >= truncation:
                continue
            coeff = merged[exp]
            if not coeff:
                continue
            if mode == "puiseux" and not exp.is_rational:
                raise UsageError(
                    "puiseux mode requires rational exponents, got %s" % exp
                )
            kept.append((exp, coeff))
        self._build(field, kept, truncation, mode)

    def _build(self, field, terms, truncation, mode):
        """Store sorted terms with distinct exponents and nonzero field
        element coefficients below the truncation, in a valid mode; nothing
        is re-validated.  Returns self."""
        self.field = field
        self.terms = tuple(terms)
        self.truncation = truncation
        self.mode = mode
        return self

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls, field, truncation=INF, mode="puiseux"):
        return cls(field, [], truncation, mode)

    @classmethod
    def constant(cls, field, c, mode="puiseux"):
        return cls(field, [(ValueScalar(0), c)], INF, mode)

    @classmethod
    def monomial(cls, field, exp, coeff=1, mode="puiseux", truncation=INF):
        return cls(field, [(exp, coeff)], truncation, mode)

    # -- inspection ---------------------------------------------------------

    @property
    def is_exact_zero(self):
        return not self.terms and self.truncation is INF

    def valuation(self):
        """Exact valuation, an AtLeast bound, or INF for the exact zero."""
        if self.terms:
            return self.terms[0][0]
        if self.truncation is INF:
            return INF
        return AtLeast(self.truncation)

    def coefficient(self, exp):
        exp = as_value(exp)
        if exp is INF:
            raise UsageError("series exponents must be finite")
        for e, c in self.terms:
            if e == exp:
                return c
        return None

    # -- arithmetic ---------------------------------------------------------

    def _check(self, other):
        if not isinstance(other, ValuedSeries):
            raise UsageError("expected a series")
        if self.mode != other.mode:
            raise UsageError("cannot mix puiseux and hahn series")
        if self.field is not other.field:
            raise UsageError("series live over different fields")

    def __add__(self, other):
        if not isinstance(other, ValuedSeries):
            return NotImplemented
        self._check(other)
        trunc = min(self.truncation, other.truncation)
        return ValuedSeries(
            self.field, list(self.terms) + list(other.terms), trunc, self.mode
        )

    def __neg__(self):
        return ValuedSeries(
            self.field,
            [(e, -c) for e, c in self.terms],
            self.truncation,
            self.mode,
        )

    def __sub__(self, other):
        if not isinstance(other, ValuedSeries):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if not isinstance(other, ValuedSeries):
            return NotImplemented
        self._check(other)
        va = self.terms[0][0] if self.terms else self.truncation
        vb = other.terms[0][0] if other.terms else other.truncation
        trunc = min(self.truncation + vb, other.truncation + va)
        items = []
        for ea, ca in self.terms:
            for eb, cb in other.terms:
                items.append((ea + eb, ca * cb))
        return ValuedSeries(self.field, items, trunc, self.mode)

    # -- comparisons and text ----------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, ValuedSeries):
            return NotImplemented
        return (
            self.mode == other.mode
            and self.truncation == other.truncation
            and len(self.terms) == len(other.terms)
            and all(
                ea == eb and ca == cb
                for (ea, ca), (eb, cb) in zip(self.terms, other.terms)
            )
        )

    def __hash__(self):
        return hash((self.mode, self.truncation, self.terms))

    def __str__(self):
        return series_str(self)

    def __repr__(self):
        return "ValuedSeries(%s)" % series_str(self)


def series_str(a):
    """Canonical text: terms by increasing exponent, then the O-bound."""
    terms = [
        term_str(scalar_str(c), "t^(%s)" % e if e.sign() else "", products=True)
        for e, c in a.terms
    ]
    if a.truncation is not INF:
        terms.append("O(t^(%s))" % a.truncation)
    return sum_str(terms, True)


def _cached_power(powers, assignment, i, e):
    """assignment[i] ** e, kept in powers with the powers below it: s^1 is
    s and s^k is s^(k-1) * s, the last product of ValuedSeries.power."""
    s = assignment[i]
    powers.setdefault((i, 1), s)
    k = e
    while (i, k) not in powers:
        k -= 1
    for k in range(k + 1, e + 1):
        powers[i, k] = powers[i, k - 1] * s
    return powers[i, e]


def substitute(f, assignment):
    """Evaluate a polynomial at series arguments.

    assignment is either a sequence of ValuedSeries, one per ring
    variable, or a mapping from variable index to ValuedSeries; every
    variable appearing in f must be assigned.  Raises when the tracked
    precision of the result collapses to or below zero.
    """
    if not isinstance(f, Polynomial):
        raise UsageError("expected a polynomial")
    if not isinstance(assignment, dict):
        assignment = {i: s for i, s in enumerate(assignment)}
    series_list = list(assignment.values())
    if not series_list:
        raise UsageError("empty substitution")
    mode = series_list[0].mode
    field = series_list[0].field
    for s in series_list:
        if s.mode != mode:
            raise UsageError("cannot mix puiseux and hahn series")
        if s.field is not field:
            raise UsageError("series live over different fields")
    used = set()
    for mono in f.coeffs:
        for i, e in enumerate(mono):
            if e:
                used.add(i)
    missing = used - set(assignment)
    if missing:
        raise UsageError(
            "no series assigned to variable index %s" % sorted(missing)[0]
        )
    total = _evaluate(field, mode, sorted(f.coeffs.items()), assignment, {})
    if total.truncation is not INF and total.truncation.sign() <= 0:
        raise InsufficientTruncationError(
            "substitution result is only known up to t^(%s)" % total.truncation
        )
    return total


def poly_to_series_coeffs(f, var_index, assignment):
    """Coefficients of f as a polynomial in one variable over series.

    Every variable of f except var_index must be assigned a series; the
    result is the list c_0..c_d with f = sum c_k * x^k after
    substitution, each c_k a ValuedSeries.
    """
    if not isinstance(f, Polynomial):
        raise UsageError("expected a polynomial")
    series_list = list(assignment.values())
    if not series_list:
        raise UsageError("empty substitution")
    mode = series_list[0].mode
    field = series_list[0].field
    degree = 0
    for mono in f.coeffs:
        degree = max(degree, mono[var_index])
    buckets = [[] for _ in range(degree + 1)]
    for mono, coeff in sorted(f.coeffs.items()):
        rest = tuple(0 if i == var_index else e for i, e in enumerate(mono))
        buckets[mono[var_index]].append((rest, coeff))
    powers = {}
    return [_evaluate(field, mode, bucket, assignment, powers) for bucket in buckets]


def _evaluate(field, mode, items, assignment, powers):
    """The sum of coeff * prod assignment[i]^e over the (exponents, coeff)
    items: one series from the terms of all the products, cut at their
    least truncation.  Raises on an unassigned variable."""
    terms, trunc = [], INF
    for mono, coeff in items:
        term = ValuedSeries.constant(field, coeff, mode)
        for i, e in enumerate(mono):
            if e:
                if i not in assignment:
                    raise UsageError("no series assigned to variable index %d" % i)
                term = term * _cached_power(powers, assignment, i, e)
        terms.extend(term.terms)
        trunc = min(trunc, term.truncation)
    return ValuedSeries(field, terms, trunc, mode)
