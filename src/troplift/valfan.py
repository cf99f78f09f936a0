"""Initial ideals, coset valuations, and weight cones.

All weights here are strictly positive, so monomial orders are local and
initial forms pick out the terms of smallest weighted degree.  The three
main consumers are tropical membership tests (is the initial ideal free
of monomials), the valuation induced on cosets of an ideal, and the cone
of weights sharing a given initial ideal.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import InternalInvariantError, UsageError
from .ideals import (
    IdealPresentation,
    contains_monomial,
    divide,
    ideal_quotient,
    ideals_equal,
    lead_records,
    normal_form,
    presentation,
)
from .linalg import find_strict_point
from .polyring import (
    INF,
    OrderDescriptor,
    Polynomial,
    initial_form,
    inject,
    w_order,
)
from .scalars import ValueScalar, cmp_value


@dataclass(frozen=True)
class InitialData:
    """Initial ideal of a presentation at a fixed positive weight."""

    weights: tuple
    basis: tuple
    generators: tuple

    def presentation(self):
        """The initial ideal as a local presentation at the same weight."""
        ring = self.generators[0].ring if self.generators else self.basis[0].ring
        return presentation(ring, list(self.generators), "local", self.weights)

    def polynomial_presentation(self):
        """The initial ideal viewed in the polynomial ring (global order)."""
        ring = self.generators[0].ring if self.generators else self.basis[0].ring
        return presentation(ring, list(self.generators), "global")

    def is_monomial_free(self):
        flag, _ = contains_monomial(self.polynomial_presentation())
        return not flag


def initial_ideal(I, w):
    """Initial data of I at the positive weight vector w.

    A standard basis of I under the weight-first local order is computed;
    the initial forms of its elements generate the initial ideal.
    """
    if not isinstance(I, IdealPresentation):
        raise UsageError("expected an ideal presentation")
    order = OrderDescriptor(tuple(w), "local")
    if len(order.weights) != len(I.ring.vars):
        raise UsageError("weight length does not match the ring")
    local = IdealPresentation(I.ring, I.generators, order)
    basis = local.standard_basis()
    inits = []
    seen = set()
    for g in basis:
        form = initial_form(g, order.weights)
        key = tuple(sorted(form.coeffs))
        if key not in seen:
            seen.add(key)
            inits.append(form)
    if not inits:
        inits = [I.ring.zero()]
        basis = (I.ring.zero(),)
    return InitialData(order.weights, tuple(basis), tuple(inits))


class CosetValuationHandle:
    """Evaluator for the weight valuation induced on cosets modulo an ideal.

    The value of g is the supremum of weighted orders over the coset
    g + I.  it is computed by repeatedly rewriting the initial form of
    the running representative inside the initial ideal; the order
    strictly increases each round, and the first representative whose
    initial form survives outside the initial ideal realizes the value.
    """

    def __init__(self, I, w, max_rounds=64):
        self.data = initial_ideal(I, w)
        self.order = OrderDescriptor(self.data.weights, "local")
        self.basis = self.data.basis
        self.init_forms = [initial_form(b, self.order.weights) for b in self.basis]
        self._init_records = lead_records(self.init_forms, self.order)
        self.max_rounds = max_rounds
        self.monomial_free = self.data.is_monomial_free()
        self.ring = self.basis[0].ring

    def value(self, g):
        if not self.monomial_free:
            raise UsageError("not a valuation: initial ideal contains a monomial")
        if not isinstance(g, Polynomial):
            raise UsageError("expected a polynomial")
        if g.ring is not self.ring and not g.ring.same(self.ring):
            raise UsageError("polynomial lives in a different ring")
        if g.is_zero:
            return INF
        if normal_form(g, list(self.basis), self.order).is_zero:
            return INF
        h = g
        last = None
        for _ in range(self.max_rounds):
            current = w_order(h, self.order.weights)
            if last is not None and not cmp_value(last, current) < 0:
                raise InternalInvariantError("coset rewriting failed to climb")
            last = current
            phi = initial_form(h, self.order.weights)
            quotients, remainder = divide(phi, self._init_records, self.order)
            if not remainder.is_zero:
                return current
            for q, b in zip(quotients, self.basis):
                h = h - q * b
            if h.is_zero:
                raise InternalInvariantError(
                    "representative vanished although the normal form did not"
                )
        raise InternalInvariantError("coset valuation exceeded the round budget")


def coset_valuation(g, handle):
    """Value of the induced coset valuation at g; +infinity on members.

    The handle carries the ideal, the weight, and the precomputed standard
    basis, so repeated queries against the same pair are cheap.
    """
    if not isinstance(handle, CosetValuationHandle):
        raise UsageError("expected a coset valuation handle")
    return handle.value(g)


def _primitive(row):
    from math import gcd

    g = 0
    for v in row:
        g = gcd(g, abs(v))
    if g > 1:
        row = tuple(v // g for v in row)
    return tuple(row)


def _sign_normalize(row):
    for v in row:
        if v != 0:
            if v < 0:
                return tuple(-x for x in row)
            return row
    return row


@dataclass(frozen=True)
class GroebnerCone:
    """Weight cone described by integer equalities and inequalities.

    Points of the cone are weight vectors u with <e, u> = 0 for every
    equality row and <h, u> >= 0 for every inequality row; the relative
    interior additionally makes the non-degenerate inequalities strict.
    """

    eq: tuple
    ineq: tuple

    def to_json_dict(self):
        return {
            "eq": [list(r) for r in self.eq],
            "ineq": [list(r) for r in self.ineq],
        }

    def ncols(self):
        for row in self.eq + self.ineq:
            return len(row)
        return 0

    def contains(self, u):
        """Closure membership for a vector of scalars."""
        for row in self.eq:
            total = sum((ValueScalar(c) * x for c, x in zip(row, u)), ValueScalar(0))
            if total.sign() != 0:
                return False
        for row in self.ineq:
            total = sum((ValueScalar(c) * x for c, x in zip(row, u)), ValueScalar(0))
            if total.sign() < 0:
                return False
        return True

    def interior_point(self):
        """A rational point in the relative interior, or None if empty."""
        return find_strict_point(self.eq, self.ineq, self.ncols(), drop_degenerate=True)

    def dim(self):
        from .linalg import mat_rank

        n = self.ncols()
        if self.interior_point() is None:
            return -1
        return n - mat_rank(self.eq, n)


def _cone_rows(basis, weights):
    """Equality and inequality rows cut out by a standard basis at weights."""
    eq_rows = set()
    ineq_rows = set()
    n = len(weights)
    for g in basis:
        if g.is_zero:
            continue
        form = initial_form(g, weights)
        support = form.support()
        anchor = support[0]
        for mono in support[1:]:
            row = tuple(a - b for a, b in zip(anchor, mono))
            row = _sign_normalize(_primitive(row))
            if any(v != 0 for v in row):
                eq_rows.add(row)
        for mono in g.support():
            if mono in form.coeffs:
                continue
            row = tuple(b - a for a, b in zip(anchor, mono))
            row = _primitive(row)
            if any(v != 0 for v in row):
                ineq_rows.add(row)
    for i in range(n):
        ineq_rows.add(tuple(1 if j == i else 0 for j in range(n)))
    return tuple(sorted(eq_rows)), tuple(sorted(ineq_rows))


def groebner_cone(I, w):
    """Cone of positive weights sharing the initial ideal of I at w.

    The equalities tie together the monomials appearing in each initial
    form of the standard basis; the inequalities keep every trailing
    monomial at least as heavy, and keep all coordinates nonnegative.
    """
    data = initial_ideal(I, w)
    eq_rows, ineq_rows = _cone_rows(data.basis, data.weights)
    return GroebnerCone(eq_rows, ineq_rows)


@dataclass(frozen=True)
class TensorCertificate:
    """Checked facts about an ideal built from two disjoint blocks."""

    initial_match: bool
    left_monomial_free: bool
    right_monomial_free: bool
    combined_monomial_free: bool

    def ok(self):
        if not self.initial_match:
            return False
        if self.left_monomial_free and self.right_monomial_free:
            return self.combined_monomial_free
        return True


def tensor_combine(I, J, w1, w2):
    """Combined presentation of two ideals in disjoint variables.

    Returns (combined, certificate).  The certificate records that the
    initial ideal of the combination at the concatenated weight is
    generated by the two blockwise initial ideals, and that freeness
    from monomials passes from the blocks to the combination.
    """
    ring1, ring2 = I.ring, J.ring
    shared = set(ring1.vars) & set(ring2.vars)
    if shared:
        raise UsageError(
            "variable names overlap: %s" % ", ".join(sorted(shared))
        )
    if ring1.field is not ring2.field and (
        ring1.field.height() > 0 or ring2.field.height() > 0
    ):
        raise UsageError("blocks must share a coefficient field")
    from .polyring import PolyRing

    big = PolyRing(ring1.field, ring1.vars + ring2.vars)
    map1 = {i: i for i in range(len(ring1.vars))}
    off = len(ring1.vars)
    map2 = {i: off + i for i in range(len(ring2.vars))}
    gens = [inject(g, big, map1) for g in I.generators]
    gens += [inject(g, big, map2) for g in J.generators]
    w = tuple(w1) + tuple(w2)
    combined = presentation(big, gens, "local", w)

    left = initial_ideal(I, w1)
    right = initial_ideal(J, w2)
    block_inits = [inject(g, big, map1) for g in left.generators]
    block_inits += [inject(g, big, map2) for g in right.generators]
    total = initial_ideal(combined, w)
    lhs = presentation(big, list(total.generators), "local", w)
    rhs = presentation(big, block_inits, "local", w)
    certificate = TensorCertificate(
        initial_match=ideals_equal(lhs, rhs),
        left_monomial_free=left.is_monomial_free(),
        right_monomial_free=right.is_monomial_free(),
        combined_monomial_free=total.is_monomial_free(),
    )
    return combined, certificate


def init_additivity_check(I, f, w):
    """Check that adjoining a weight-homogeneous nonzerodivisor commutes
    with taking initial ideals.

    f must be w-homogeneous and a nonzerodivisor modulo the initial
    ideal of I at w; the latter hypothesis is verified through an ideal
    quotient and a failure raises.  Returns True when the initial ideal
    of I + (f) equals the initial ideal of I plus f.
    """
    if not isinstance(f, Polynomial) or f.is_zero:
        raise UsageError("expected a nonzero polynomial")
    weights = tuple(w)
    if initial_form(f, weights) != f:
        raise UsageError("polynomial is not homogeneous for the given weight")
    data = initial_ideal(I, weights)
    init_poly = data.polynomial_presentation()
    quotient = ideal_quotient(init_poly, f)
    if not ideals_equal(quotient, init_poly):
        raise UsageError("polynomial is a zerodivisor modulo the initial ideal")
    lhs = initial_ideal(I.with_extra([f]), weights)
    left = presentation(I.ring, list(lhs.generators), "local", weights)
    right = presentation(
        I.ring, list(data.generators) + [f], "local", weights
    )
    return ideals_equal(left, right)
