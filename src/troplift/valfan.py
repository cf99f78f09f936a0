"""Initial ideals, coset valuations, and weight cones.

All weights here are strictly positive, so monomial orders are local and
initial forms pick out the terms of smallest weighted degree.  The three
main consumers are tropical membership tests (is the initial ideal free
of monomials), the valuation induced on cosets of an ideal, and the cone
of weights sharing a given initial ideal.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .errors import UsageError
from .ideals import (
    IdealPresentation,
    contains_monomial,
    ideal_quotient,
    ideals_equal,
    normal_form,
    presentation,
)
from .linalg import find_strict_point, mat_rank, primitive_row
from .polyring import (
    Polynomial,
    PolyRing,
    initial_form,
    inject,
    w_order,
)
from .scalars import ValueScalar


@dataclass(frozen=True)
class InitialData:
    """Initial ideal of a presentation at a fixed positive weight."""

    weights: tuple
    basis: tuple
    generators: tuple

    @cached_property
    def presentation(self):
        """The initial ideal viewed in the polynomial ring (global order),
        built once.

        It is homogeneous for the positive weight, so localisation gains
        nothing: two such ideals are equal in the power series ring iff
        they are equal here."""
        return presentation(self.generators[0].ring, self.generators, "global")

    def is_monomial_free(self):
        flag, _ = contains_monomial(self.presentation)
        return not flag


def initial_ideal(I, w):
    """Initial data of I at the positive weight vector w.

    A standard basis of I under the weight-first local order is computed,
    or reused when I is already presented under that order; the initial
    forms of its elements generate the initial ideal.
    """
    if not isinstance(I, IdealPresentation):
        raise UsageError("expected an ideal presentation")
    w = tuple(w)
    if len(w) != len(I.ring.vars):
        raise UsageError("weight length does not match the ring")
    local = I.local_at(w)
    weights = local.order.weights
    basis = local.standard_basis()
    # distinct: each form has its own element's leading monomial, and no other
    inits = [initial_form(g, weights) for g in basis]
    if not inits:
        inits = [I.ring.zero()]
        basis = (I.ring.zero(),)
    return InitialData(weights, tuple(basis), tuple(inits))


class CosetValuationHandle:
    """Evaluator for the weight valuation induced on cosets modulo an ideal.

    The value of g is the supremum of weighted orders over the coset
    g + I: the weighted order of the local normal form of g modulo I at w,
    +infinity on members; a nonzero normal form keeps its initial form
    outside the initial ideal, where no element of the coset can cancel it.
    """

    def __init__(self, I, w):
        self.ideal = I.local_at(w)
        self.data = initial_ideal(self.ideal, w)
        self.monomial_free = self.data.is_monomial_free()

    def value(self, g):
        if not self.monomial_free:
            raise UsageError("not a valuation: initial ideal contains a monomial")
        if not isinstance(g, Polynomial):
            raise UsageError("expected a polynomial")
        if not g.ring.same(self.ideal.ring):
            raise UsageError("polynomial lives in a different ring")
        return w_order(normal_form(g, self.ideal), self.data.weights)


def _sign_normalize(row):
    """row, or -row when its first nonzero entry (every cone row has one) is < 0."""
    for v in row:
        if v != 0:
            return tuple(-x for x in row) if v < 0 else row


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
            eq_rows.add(_sign_normalize(primitive_row(row)))
        for mono in g.support():
            if mono in form.coeffs:
                continue
            row = tuple(b - a for a, b in zip(anchor, mono))
            ineq_rows.add(primitive_row(row))
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
    rhs = presentation(big, block_inits, "global")
    certificate = TensorCertificate(
        initial_match=ideals_equal(total.presentation, rhs),
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
    init_poly = initial_ideal(I, weights).presentation
    nonzerodivisor, _, equal = _additivity(init_poly, I.with_extra([f]), f, weights)
    if not nonzerodivisor:
        raise UsageError("polynomial is a zerodivisor modulo the initial ideal")
    return equal


def _additivity(initial, extended, f, w):
    """The additivity lemma at w for the w-homogeneous f, where initial
    presents in_w(I) in the polynomial ring and extended presents I + (f).

    Returns (nonzerodivisor, data, equal): whether in_w(I) : f = in_w(I),
    and, for a nonzerodivisor, the initial data of I + (f) and whether
    in_w(I + (f)) = in_w(I) + (f); for a zerodivisor, None and False.
    """
    if not ideals_equal(ideal_quotient(initial, f), initial):
        return False, None, False
    data = initial_ideal(extended, w)
    return True, data, ideals_equal(data.presentation, initial.with_extra([f]))
