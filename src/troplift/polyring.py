"""Sparse multivariate polynomials over a number field, with weight orders.

Exponents are plain int tuples.  A term order is a weight vector of exact
value scalars refined by a fixed (anti-)graded reverse lexicographic
tie-break: in global mode the largest weight leads, in local mode the
smallest weight leads (so the leading part of a polynomial is its initial
form).  Initial forms always follow the min convention: the terms whose
weight is minimal.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import UsageError
from .scalars import (
    INF,
    AlgebraicNumber,
    ValueScalar,
    _scalar_is_zero,
    as_field_element,
    scalar_str,
)

# -- exponent helpers -------------------------------------------------------

def expo_add(m1, m2):
    return tuple(a + b for a, b in zip(m1, m2))

def expo_sub(m1, m2):
    return tuple(a - b for a, b in zip(m1, m2))

def expo_divides(m1, m2):
    """True when the monomial x^m1 divides x^m2."""
    return all(a <= b for a, b in zip(m1, m2))

def expo_lcm(m1, m2):
    return tuple(max(a, b) for a, b in zip(m1, m2))

def expo_deg(m):
    return sum(m)


def wdot(weights, m):
    """<w, m> as an exact value scalar."""
    out = ValueScalar(0)
    for w, e in zip(weights, m):
        if e:
            out = out + w * e
    return out


class PolyRing:
    """Variable names plus the coefficient field; rings compare by content."""

    __slots__ = ("field", "vars", "index")

    def __init__(self, field, names):
        names = tuple(names)
        if len(set(names)) != len(names):
            raise UsageError(f"duplicate variable names in {names}")
        if not names:
            raise UsageError("a polynomial ring needs at least one variable")
        self.field = field
        self.vars = names
        self.index = {n: i for i, n in enumerate(names)}

    def nvars(self):
        return len(self.vars)

    def same(self, other):
        return self.field is other.field and self.vars == other.vars

    def zero(self):
        return Polynomial(self, {})

    def one(self):
        return self.constant(1)

    def constant(self, c):
        c = as_field_element(self.field, c)
        if _scalar_is_zero(c):
            return Polynomial(self, {})
        return Polynomial(self, {(0,) * len(self.vars): c})

    def monomial(self, expo, coeff=1):
        coeff = as_field_element(self.field, coeff)
        if _scalar_is_zero(coeff):
            return Polynomial(self, {})
        return Polynomial(self, {tuple(expo): coeff})

    def var(self, i):
        e = [0] * len(self.vars)
        e[i] = 1
        return self.monomial(e)

    def from_terms(self, items):
        coeffs = {}
        for m, c in items:
            c = as_field_element(self.field, c)
            m = tuple(m)
            c0 = coeffs.get(m)
            c = c if c0 is None else c0 + c
            if _scalar_is_zero(c):
                coeffs.pop(m, None)
            else:
                coeffs[m] = c
        return Polynomial(self, coeffs)

    def __repr__(self):
        return f"PolyRing({','.join(self.vars)})"


class Polynomial:
    """Immutable sparse polynomial: dict from exponent tuple to coefficient."""

    __slots__ = ("ring", "coeffs")

    def __init__(self, ring, coeffs):
        self.ring = ring
        self.coeffs = coeffs

    @property
    def is_zero(self):
        return not self.coeffs

    def support(self):
        return sorted(self.coeffs, key=lambda m: (expo_deg(m), m), reverse=True)

    def terms(self):
        """Canonically ordered (exponent, coefficient) pairs."""
        return [(m, self.coeffs[m]) for m in self.support()]

    def total_degree(self):
        return max((expo_deg(m) for m in self.coeffs), default=0)

    def constant_term(self):
        zero = (0,) * self.ring.nvars()
        return self.coeffs.get(zero, Fraction(0))

    def coefficient(self, m):
        return self.coeffs.get(tuple(m), Fraction(0))

    # -- arithmetic

    def _check(self, other):
        if not isinstance(other, Polynomial):
            other = self.ring.constant(other)
        elif not self.ring.same(other.ring):
            raise UsageError("polynomials from different rings")
        return other

    def __add__(self, other):
        other = self._check(other)
        out = dict(self.coeffs)
        for m, c in other.coeffs.items():
            c0 = out.get(m)
            c = c if c0 is None else c0 + c
            if _scalar_is_zero(c):
                out.pop(m, None)
            else:
                out[m] = c
        return Polynomial(self.ring, out)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._check(other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        return Polynomial(self.ring, {m: -c for m, c in self.coeffs.items()})

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, AlgebraicNumber)):
            if _scalar_is_zero(as_field_element(self.ring.field, other)):
                return self.ring.zero()
            return Polynomial(
                self.ring, {m: c * other for m, c in self.coeffs.items()}
            )
        other = self._check(other)
        out = {}
        for m1, c1 in self.coeffs.items():
            for m2, c2 in other.coeffs.items():
                m = expo_add(m1, m2)
                c = c1 * c2
                c0 = out.get(m)
                c = c if c0 is None else c0 + c
                if _scalar_is_zero(c):
                    out.pop(m, None)
                else:
                    out[m] = c
        return Polynomial(self.ring, out)

    __rmul__ = __mul__

    def __pow__(self, n):
        if not isinstance(n, int) or n < 0:
            raise UsageError("polynomial powers must be nonnegative integers")
        out = self.ring.one()
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def mul_term(self, m, c):
        """Multiply by the single term c * x^m."""
        m = tuple(m)
        return Polynomial(
            self.ring, {expo_add(m0, m): c0 * c for m0, c0 in self.coeffs.items()}
        )

    # -- identity

    def __eq__(self, other):
        if isinstance(other, (int, Fraction, AlgebraicNumber)):
            other = self.ring.constant(other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.ring.same(other.ring) and (self - other).is_zero

    def __hash__(self):
        items = tuple(sorted((m, hash(c)) for m, c in self.coeffs.items()))
        return hash((self.ring.vars, items))

    def __str__(self):
        return poly_str(self)

    def __repr__(self):
        return f"Polynomial({poly_str(self)})"


def poly_str(f: Polynomial) -> str:
    if f.is_zero:
        return "0"
    parts = []
    for m, c in f.terms():
        mono = "*".join(
            n if e == 1 else f"{n}^{e}"
            for n, e in zip(f.ring.vars, m)
            if e
        )
        cs = scalar_str(c)
        composite = ("+" in cs[1:]) or ("-" in cs[1:])
        if not mono:
            term = f"({cs})" if composite else cs
        elif composite:
            term = f"({cs})*{mono}"
        elif cs == "1":
            term = mono
        elif cs == "-1":
            term = "-" + mono
        else:
            term = f"{cs}*{mono}"
        if parts:
            if term.startswith("-"):
                parts.append(" - " + term[1:])
            else:
                parts.append(" + " + term)
        else:
            parts.append(term)
    return "".join(parts)


# -- term orders ------------------------------------------------------------


class OrderDescriptor:
    """Weight vector plus mode; the tie-break is fixed reverse lexicographic
    (graded for global mode, anti-graded for local mode).

    The leading monomial of a polynomial is the maximum under ``key``.  In
    local mode that is the monomial of smallest weight, so leading parts
    coincide with min-convention initial forms.
    """

    __slots__ = ("weights", "mode")

    def __init__(self, weights, mode):
        if mode not in ("local", "global"):
            raise UsageError(f"order mode must be local or global, got {mode!r}")
        ws = tuple(ValueScalar.of(w) for w in weights)
        if mode == "local" and any(w.sign() <= 0 for w in ws):
            raise UsageError("local orders need strictly positive weights")
        if mode == "global" and any(w.sign() < 0 for w in ws):
            raise UsageError("global orders need nonnegative weights")
        self.weights = ws
        self.mode = mode

    def key(self, m):
        w = wdot(self.weights, m)
        if self.mode == "local":
            return (-w, -expo_deg(m), tuple(-e for e in reversed(m)))
        return (w, expo_deg(m), tuple(-e for e in reversed(m)))

    def cmp(self, m1, m2) -> int:
        if m1 == m2:
            return 0
        k1, k2 = self.key(m1), self.key(m2)
        if k1 == k2:
            return 0
        return 1 if k1 > k2 else -1

    def describe(self) -> str:
        w = ",".join(str(x) for x in self.weights)
        tie = "antigraded-revlex" if self.mode == "local" else "graded-revlex"
        return f"{self.mode} w=({w}) tie={tie}"

    def __repr__(self):
        return f"OrderDescriptor({self.describe()})"


def compare_monomials(m1, m2, order: OrderDescriptor) -> int:
    """-1 when m1 precedes (leads) m2, +1 when m2 leads, 0 when equal.

    In local mode the smaller weight level leads; in global mode the
    larger level leads; ties fall to the fixed revlex tie-break.
    """
    m1, m2 = tuple(m1), tuple(m2)
    if len(m1) != len(m2) or len(m1) != len(order.weights):
        raise UsageError("exponent length does not match the order")
    return -order.cmp(m1, m2)


def leading_term(f: Polynomial, order: OrderDescriptor):
    """(exponent, coefficient) of the order-leading term."""
    if f.is_zero:
        raise UsageError("the zero polynomial has no leading term")
    m = max(f.coeffs, key=order.key)
    return m, f.coeffs[m]


def w_order(f: Polynomial, weights) -> ValueScalar:
    """min <w, M> over the support; +oo for the zero polynomial."""
    ws = tuple(ValueScalar.of(w) for w in weights)
    if len(ws) != f.ring.nvars():
        raise UsageError("weight length does not match the ring")
    if f.is_zero:
        return INF
    return min(wdot(ws, m) for m in f.coeffs)


def w_order_max(f: Polynomial, weights):
    if f.is_zero:
        return INF
    ws = tuple(ValueScalar.of(w) for w in weights)
    return max(wdot(ws, m) for m in f.coeffs)


def initial_form(f: Polynomial, weights) -> Polynomial:
    """Sum of the terms attaining the minimal weight (min convention)."""
    ws = tuple(ValueScalar.of(w) for w in weights)
    if len(ws) != f.ring.nvars():
        raise UsageError("weight length does not match the ring")
    if f.is_zero:
        return f
    vals = {m: wdot(ws, m) for m in f.coeffs}
    v0 = min(vals.values())
    return Polynomial(
        f.ring, {m: c for m, c in f.coeffs.items() if vals[m] == v0}
    )


def homogenize_w(f: Polynomial, w_prime, homogenizers=None) -> Polynomial:
    """Multiply every term up to the common top w'-level using the designated
    homogenizing variables.

    ``w_prime`` must be strictly positive integers.  Each term of weight
    below the maximum is multiplied by a monomial in the homogenizing
    variables making up the difference; the deterministic choice puts as much
    weight as possible on the earliest homogenizer.  Substituting 1 for the
    homogenizers recovers the input.
    """
    if f.is_zero:
        return f
    wp = []
    for w in w_prime:
        w = ValueScalar.of(w)
        if not w.is_rational or w.to_fraction().denominator != 1 or w.sign() <= 0:
            raise UsageError("homogenization weights must be positive integers")
        wp.append(int(w.to_fraction()))
    if len(wp) != f.ring.nvars():
        raise UsageError("weight length does not match the ring")
    homog = list(homogenizers or [])
    levels = {m: sum(w * e for w, e in zip(wp, m)) for m in f.coeffs}
    top = max(levels.values())
    out = {}
    for m, c in f.coeffs.items():
        gap = top - levels[m]
        if gap == 0:
            out[tuple(m)] = c
            continue
        combo = _balance_gap(gap, [wp[i] for i in homog])
        if combo is None:
            raise UsageError(
                f"cannot balance weight gap {gap} with homogenizers "
                f"{[f.ring.vars[i] for i in homog]}"
            )
        m2 = list(m)
        for i, e in zip(homog, combo):
            m2[i] += e
        out[tuple(m2)] = c
    return Polynomial(f.ring, out)


def _balance_gap(gap, weights):
    """Nonnegative integer combo of weights summing to gap, greedy-first."""
    if gap == 0:
        return [0] * len(weights)
    if not weights:
        return None
    w0 = weights[0]
    for e in range(gap // w0, -1, -1):
        rest = _balance_gap(gap - e * w0, weights[1:])
        if rest is not None:
            return [e] + rest
    return None


# -- ring maps --------------------------------------------------------------


def inject(f: Polynomial, big: PolyRing, var_map) -> Polynomial:
    """Reinterpret f in a larger ring; var_map[i] is the new index of old
    variable i."""
    out = {}
    n = big.nvars()
    for m, c in f.coeffs.items():
        e = [0] * n
        for i, ei in enumerate(m):
            if ei:
                e[var_map[i]] = ei
        out[tuple(e)] = c
    return Polynomial(big, out)


def project(f: Polynomial, small: PolyRing, var_map) -> Polynomial:
    """Move f into a subring; var_map[i] is the new index of old variable i
    or None for dropped variables (which must not occur in f)."""
    out = {}
    n = small.nvars()
    for m, c in f.coeffs.items():
        e = [0] * n
        for i, ei in enumerate(m):
            if not ei:
                continue
            if var_map[i] is None:
                raise UsageError(
                    f"variable {f.ring.vars[i]} still occurs; cannot project"
                )
            e[var_map[i]] = ei
        key = tuple(e)
        c0 = out.get(key)
        out[key] = c if c0 is None else c0 + c
    return Polynomial(small, {m: c for m, c in out.items() if not _scalar_is_zero(c)})


def substitute_scalars(f: Polynomial, values: dict) -> Polynomial:
    """Substitute field scalars for some variables (indices -> scalar)."""
    ring = f.ring
    out = ring.zero()
    for m, c in f.coeffs.items():
        coeff = c
        e = list(m)
        for i, val in values.items():
            if e[i]:
                coeff = coeff * (_as_scalar_pow(ring, val, e[i]))
                e[i] = 0
        out = out + Polynomial(ring, {tuple(e): coeff}) if not _scalar_is_zero(coeff) else out
    return out


def _as_scalar_pow(ring, val, e):
    val = as_field_element(ring.field, val)
    out = Fraction(1)
    for _ in range(e):
        out = out * val
    return out
