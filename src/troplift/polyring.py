"""Sparse multivariate polynomials over a number field, with weight orders.

Exponents are plain int tuples.  A term order is a weight vector of exact
value scalars refined by a fixed (anti-)graded reverse lexicographic
tie-break: in global mode the largest weight leads, in local mode the
smallest weight leads (so the leading part of a polynomial is its initial
form).  Initial forms always follow the min convention: the terms whose
weight is minimal.  Weight levels of rational weights are int dot products
with their primitive integer row.  Each ring holds one order object per
(weights, mode), so the presentations of one ring share its key memo.

Every change of ring lives here: ``move`` renumbers variables, ``extend``
adds a fresh variable and ``restrict`` substitutes scalars for some
variables and drops them.
"""

from __future__ import annotations

import operator
from fractions import Fraction

from .errors import UsageError
from .linalg import primitive_row
from .scalars import (
    INF,
    AlgebraicNumber,
    ValueScalar,
    as_field_element,
    scalar_str,
    sum_str,
    term_str,
)

# -- exponent helpers -------------------------------------------------------

def expo_add(m1, m2):
    return tuple(a + b for a, b in zip(m1, m2))

def expo_sub(m1, m2):
    return tuple(a - b for a, b in zip(m1, m2))

def expo_divides(m1, m2):
    """True when the monomial x^m1 divides x^m2."""
    return all(map(operator.le, m1, m2))

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


def _leveller(ws):
    """m -> a level that compares, and differs, as <w, m> does: an int dot
    product with the primitive integer row of rational weights (a positive
    multiple of w), else wdot itself."""
    if any(w.b for w in ws):
        return lambda m: wdot(ws, m)
    row = primitive_row([w.a for w in ws])
    return lambda m: sum([w * e for w, e in zip(row, m)])


class PolyRing:
    """Variable names plus the coefficient field; rings compare by content."""

    __slots__ = ("field", "vars", "index", "_orders")

    def __init__(self, field, names):
        names = tuple(names)
        if len(set(names)) != len(names):
            raise UsageError(f"duplicate variable names in {names}")
        if not names:
            raise UsageError("a polynomial ring needs at least one variable")
        self.field = field
        self.vars = names
        self.index = {n: i for i, n in enumerate(names)}
        self._orders = {}

    def order(self, weights, mode):
        """The ring's one OrderDescriptor for (weights, mode), built on first
        use; keys depend on the order alone, so sharing it only shares its
        key memo."""
        key = (tuple(weights), mode)
        order = self._orders.get(key)
        if order is None:
            order = self._orders[key] = OrderDescriptor(weights, mode)
        return order

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
        if not c:
            return Polynomial(self, {})
        return Polynomial(self, {(0,) * len(self.vars): c})

    def monomial(self, expo, coeff=1):
        coeff = as_field_element(self.field, coeff)
        if not coeff:
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
            if not c:
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
            if not c:
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
            other = as_field_element(self.ring.field, other)
            if not other:
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
                if not c:
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

    def mul_monomial(self, m):
        """Multiply by the monomial x^m."""
        return Polynomial(
            self.ring, {expo_add(m0, m): c for m0, c in self.coeffs.items()}
        )

    # -- identity

    def __eq__(self, other):
        if isinstance(other, (int, Fraction, AlgebraicNumber)):
            other = self.ring.constant(other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.ring.same(other.ring) and self.coeffs == other.coeffs

    def __hash__(self):
        items = tuple(sorted((m, hash(c)) for m, c in self.coeffs.items()))
        return hash((self.ring.vars, items))

    def __str__(self):
        return poly_str(self)

    def __repr__(self):
        return f"Polynomial({poly_str(self)})"


def poly_str(f: Polynomial) -> str:
    names = f.ring.vars
    terms = []
    for m, c in f.terms():
        unit = "*".join(n if e == 1 else f"{n}^{e}" for n, e in zip(names, m) if e)
        terms.append(term_str(scalar_str(c), unit))
    return sum_str(terms, True)


# -- term orders ------------------------------------------------------------


class OrderDescriptor:
    """Weight vector plus mode; the tie-break is fixed reverse lexicographic
    (graded for global mode, anti-graded for local mode).

    The leading monomial of a polynomial is the maximum under ``key``.  In
    local mode that is the monomial of smallest weight, so leading parts
    coincide with min-convention initial forms.  ``heap_key`` is the
    heap-ready form, under which the leading monomial is the smallest, so
    ``divide`` pushes it onto its heap as is.  Both keys are memoized per
    order object and depend on the order alone; ``PolyRing.order`` gives
    each ring one object per (weights, mode), so its presentations share the
    memos.
    """

    __slots__ = ("weights", "mode", "_level", "_keys", "_heap_keys")

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
        self._level = _leveller(ws)
        self._keys = {}
        self._heap_keys = {}

    def key(self, m):
        """Sort key of the exponent tuple m, memoized per order; the leading
        monomial is the maximum."""
        k = self._keys.get(m)
        if k is None:
            k = self._keys[m] = self._key(m)
        return k

    def _key(self, m):
        lvl = self._level(m)
        rev = tuple([-e for e in reversed(m)])
        if self.mode == "local":
            return -lvl, -expo_deg(m), rev
        return lvl, expo_deg(m), rev

    def heap_key(self, m):
        """The entries of key(m) negated, then m itself, memoized per order:
        a min-heap of these pops the leading monomial first, and m is its
        last entry."""
        hk = self._heap_keys.get(m)
        if hk is None:
            k0, k1, rev = self.key(m)
            hk = self._heap_keys[m] = (-k0, -k1, tuple([-e for e in rev]), m)
        return hk

    def describe(self) -> str:
        w = ",".join(str(x) for x in self.weights)
        tie = "antigraded-revlex" if self.mode == "local" else "graded-revlex"
        return f"{self.mode} w=({w}) tie={tie}"

    def __repr__(self):
        return f"OrderDescriptor({self.describe()})"


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
    return wdot(ws, min(f.coeffs, key=_leveller(ws)))


def initial_form(f: Polynomial, weights) -> Polynomial:
    """Sum of the terms attaining the minimal weight (min convention)."""
    ws = tuple(ValueScalar.of(w) for w in weights)
    if len(ws) != f.ring.nvars():
        raise UsageError("weight length does not match the ring")
    if f.is_zero:
        return f
    level = _leveller(ws)
    vals = {m: level(m) for m in f.coeffs}
    v0 = min(vals.values())
    return Polynomial(
        f.ring, {m: c for m, c in f.coeffs.items() if vals[m] == v0}
    )


# -- ring maps --------------------------------------------------------------


def move(f: Polynomial, ring: PolyRing, var_map) -> Polynomial:
    """f in another ring: variable i becomes variable var_map[i] there.  A
    variable mapped to None must not occur in f, and the map must be
    injective on the variables that occur, so no two terms merge."""
    n = ring.nvars()
    out = {}
    for m, c in f.coeffs.items():
        e = [0] * n
        for i, ei in enumerate(m):
            if ei:
                j = var_map[i]
                if j is None:
                    raise UsageError(
                        f"variable {f.ring.vars[i]} still occurs; cannot project"
                    )
                e[j] = ei
        out[tuple(e)] = c
    return Polynomial(ring, out)


def extend(ring: PolyRing, base) -> PolyRing:
    """The ring with one fresh last variable: base, with underscores put in
    front until no variable of the ring has that name."""
    name = base
    while name in ring.index:
        name = "_" + name
    return PolyRing(ring.field, ring.vars + (name,))


def restrict(polys, ring: PolyRing, values):
    """Substitute the scalars values (index -> scalar) in polys, then move
    the results to the ring of the other variables.  Returns (that ring,
    the images, var_map), where var_map[i] is the new index of variable i
    or None when it was substituted."""
    free = [i for i in range(ring.nvars()) if i not in values]
    small = PolyRing(ring.field, tuple(ring.vars[i] for i in free))
    var_map = [None] * ring.nvars()
    for pos, i in enumerate(free):
        var_map[i] = pos
    images = [move(substitute_scalars(g, values), small, var_map) for g in polys]
    return small, images, var_map


def substitute_scalars(f: Polynomial, values: dict) -> Polynomial:
    """Substitute field scalars for some variables (indices -> scalar)."""
    ring = f.ring
    items = []
    for m, c in f.coeffs.items():
        e = list(m)
        for i, val in values.items():
            if e[i]:
                c = c * as_field_element(ring.field, val) ** e[i]
                e[i] = 0
        items.append((e, c))
    return ring.from_terms(items)
