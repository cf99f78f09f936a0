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
from math import gcd

from .errors import InsufficientTruncationError, UsageError
from .scalars import (
    INF,
    ValueScalar,
    _scalar_is_zero,
    as_field_element,
    as_value,
    cmp_value,
    scalar_str,
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
    if v is INF:
        return True
    if isinstance(v, AtLeast):
        return not cmp_value(v.bound, x) < 0
    return not cmp_value(v, x) < 0


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
            if truncation is not INF and not cmp_value(exp, truncation) < 0:
                continue
            coeff = merged[exp]
            if _scalar_is_zero(coeff):
                continue
            if mode == "puiseux" and not exp.is_rational:
                raise UsageError(
                    "puiseux mode requires rational exponents, got %s" % exp
                )
            kept.append((exp, coeff))
        self.field = field
        self.terms = tuple(kept)
        self.truncation = truncation
        self.mode = mode

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

    def lead(self):
        """Lowest term as (exponent, coefficient), or None."""
        return self.terms[0] if self.terms else None

    def valuation(self):
        """Exact valuation, an AtLeast bound, or INF for the exact zero."""
        if self.terms:
            return self.terms[0][0]
        if self.truncation is INF:
            return INF
        return AtLeast(self.truncation)

    def ramification(self):
        """Common denominator of the rational exponents (1 when none)."""
        denom = 1
        for exp, _ in self.terms:
            if exp.is_rational:
                q = exp.to_fraction().denominator
                denom = denom * q // gcd(denom, q)
        return denom

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
        trunc = _min_value(self.truncation, other.truncation)
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
        trunc = _min_value(_add_value(self.truncation, vb), _add_value(other.truncation, va))
        items = []
        for ea, ca in self.terms:
            for eb, cb in other.terms:
                items.append((ea + eb, ca * cb))
        return ValuedSeries(self.field, items, trunc, self.mode)

    def scale(self, c):
        """Multiply by an exact scalar coefficient."""
        c = as_field_element(self.field, c)
        if _scalar_is_zero(c):
            return ValuedSeries.zero(self.field, self.truncation, self.mode)
        return ValuedSeries(
            self.field,
            [(e, cc * c) for e, cc in self.terms],
            self.truncation,
            self.mode,
        )

    def shift(self, exp):
        """Multiply by the parameter raised to an exact exponent."""
        exp = as_value(exp)
        if exp is INF:
            raise UsageError("series exponents must be finite")
        trunc = self.truncation if self.truncation is INF else self.truncation + exp
        return ValuedSeries(
            self.field,
            [(e + exp, c) for e, c in self.terms],
            trunc,
            self.mode,
        )

    def power(self, k):
        if not isinstance(k, int) or k < 0:
            raise UsageError("series powers need a nonnegative integer exponent")
        result = ValuedSeries.constant(self.field, 1, self.mode)
        for _ in range(k):
            result = result * self
        return result

    def truncate(self, bound):
        """Forget everything at or above the bound."""
        bound = as_value(bound)
        trunc = _min_value(self.truncation, bound)
        return ValuedSeries(self.field, list(self.terms), trunc, self.mode)

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


def _min_value(a, b):
    if a is INF:
        return b
    if b is INF:
        return a
    return a if cmp_value(a, b) <= 0 else b


def _add_value(a, b):
    if a is INF or b is INF:
        return INF
    return a + b


def valuation(a):
    return a.valuation()


def _coeff_text(c):
    text = scalar_str(c)
    if any(op in text[1:] for op in ("+", "-")) or "*" in text:
        return "(%s)" % text
    return text


def series_str(a):
    """Canonical text: terms by increasing exponent, then the O-bound."""
    parts = []
    for exp, coeff in a.terms:
        ctext = _coeff_text(coeff)
        if exp.sign() == 0:
            parts.append(ctext)
            continue
        etext = "t^(%s)" % exp
        if ctext == "1":
            parts.append(etext)
        elif ctext == "-1":
            parts.append("-%s" % etext)
        else:
            parts.append("%s*%s" % (ctext, etext))
    if a.truncation is not INF:
        parts.append("O(t^(%s))" % a.truncation)
    if not parts:
        return "0"
    out = parts[0]
    for part in parts[1:]:
        if part.startswith("-"):
            out += " - " + part[1:]
        else:
            out += " + " + part
    return out


def _cached_power(powers, assignment, i, e):
    """assignment[i] ** e, computed once per (i, e) and kept in powers."""
    key = (i, e)
    if key not in powers:
        powers[key] = assignment[i].power(e)
    return powers[key]


def substitute(f, assignment):
    """Evaluate a polynomial at series arguments.

    assignment is either a sequence of ValuedSeries, one per ring
    variable, or a mapping from variable index to ValuedSeries; every
    variable appearing in f must be assigned.  Raises when the tracked
    precision of the result collapses to or below zero.
    """
    from .polyring import Polynomial

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
    powers = {}
    total = ValuedSeries.zero(field, INF, mode)
    for mono, coeff in sorted(f.coeffs.items()):
        term = ValuedSeries.constant(field, coeff, mode)
        for i, e in enumerate(mono):
            if e:
                term = term * _cached_power(powers, assignment, i, e)
        total = total + term
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
    from .polyring import Polynomial

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
        k = mono[var_index]
        rest = tuple(
            0 if i == var_index else e for i, e in enumerate(mono)
        )
        buckets[k].append((rest, coeff))
    powers = {}
    out = []
    for bucket in buckets:
        total = ValuedSeries.zero(field, INF, mode)
        for rest, coeff in bucket:
            term = ValuedSeries.constant(field, coeff, mode)
            for i, e in enumerate(rest):
                if e:
                    if i not in assignment:
                        raise UsageError(
                            "no series assigned to variable index %d" % i
                        )
                    term = term * _cached_power(powers, assignment, i, e)
            total = total + term
        out.append(total)
    return out
