"""Weight-span decomposition, descent steps, Newton polygon roots, lifting."""

import json
import random
import sys
from collections import Counter
from fractions import Fraction
from itertools import combinations
from math import comb
from pathlib import Path

import pytest

from test_acceptance import truncate
from test_census import SLICE, draw
from troplift import ideals, lifting, scalars
from troplift.errors import (
    CapabilityError,
    DescentWitnessError,
    InsufficientTruncationError,
    InternalInvariantError,
    NonMemberError,
    UsageError,
)
from troplift.ideals import dimension, ideal_member, presentation
from troplift.lifting import (
    LiftProblem,
    _grid,
    _taylor_shift,
    descend,
    lift_point,
    newton_puiseux,
    rational_span,
    verify_lift,
)
from troplift.parsing import parse_poly, parse_series
from troplift.polyring import INF, Polynomial, PolyRing, initial_form, poly_str
from troplift.scalars import (
    AlgebraicNumber,
    NumberField,
    ValueScalar,
    adjoin_root,
    as_value,
    roots_in_extension,
    scalar_str,
)
from troplift.series import AtLeast, ValuedSeries, substitute
from troplift.tropical import trop_member


def _ring(*names):
    return PolyRing(NumberField(), names)


def _p(ring, text):
    return parse_poly(text, ring)


def _local(ring, texts, w):
    return presentation(ring, [_p(ring, t) for t in texts], "local", w)


def _reconstruct(span, w):
    for entry, row in zip(w, span.matrix):
        total = ValueScalar(0)
        for m, g in zip(row, span.gamma):
            total = total + g * m
        assert total == entry


def test_rational_span_rank_one():
    span = rational_span((2, 3))
    assert span.rank == 1
    assert span.gamma == (ValueScalar(1),)
    assert span.matrix == ((2,), (3,))

    rt = ValueScalar(0, 1, 2)
    span2 = rational_span((rt, rt + rt))
    assert span2.rank == 1
    assert span2.gamma == (rt,)
    assert span2.matrix == ((1,), (2,))


def test_rational_span_rank_two():
    rt = ValueScalar(0, 1, 2)
    mid = ValueScalar(Fraction(1, 2), Fraction(1, 2), 2)
    w = (ValueScalar(1), rt, mid)
    span = rational_span(w)
    assert span.rank == 2
    assert len(span.gamma) == 2
    # gamma spans (1, sqrt 2) over Q: one rational, one pure radical
    assert span.gamma[0].is_rational
    assert not span.gamma[1].is_rational
    _reconstruct(span, w)


def test_rational_span_fractional_entries():
    w = (Fraction(1, 2), Fraction(3, 4))
    span = rational_span(w)
    assert span.rank == 1
    _reconstruct(span, w)


def test_values_coerce_only_from_int_fraction_and_value_scalar():
    """Floats and strings are not weights: 0.1 is not one tenth, and text
    goes through the parsers."""
    R = _ring("x", "y")
    I = _local(R, ["y^2 - x^3"], (2, 3))
    for bad in (
        lambda: as_value(0.1),
        lambda: as_value("1/2"),
        lambda: as_value(None),
        lambda: LiftProblem(I, (2.0, 3.0), 5),
        lambda: trop_member(I, (0.5, 0.75)),
    ):
        with pytest.raises(UsageError, match="cannot coerce"):
            bad()
    assert as_value(INF) is INF
    assert as_value(Fraction(1, 2)) == ValueScalar(Fraction(1, 2))


def test_descend_three_variable_example():
    R = _ring("x1", "x2", "x3")
    w = (1, 1, 1)
    I = _local(R, ["x1 + x2 + x3"], w)
    assert dimension(I) == 2
    I2, step = descend(I, w)
    assert step.ok()
    assert step.nonzerodivisor_ok
    assert step.additivity_ok
    assert step.monomial_free_ok
    assert step.dim_before == 2 and step.dim_after == 1
    assert dimension(I2) == 1
    assert step.integral_weight == (1, 1, 1)
    assert list(step.J) == [_p(R, "x1 + x2 + x3")]
    # the cut is homogeneous for both the integral and the given weight
    wv = tuple(ValueScalar(x) for x in w)
    assert initial_form(step.f, wv) == step.f
    # membership survives the cut
    assert trop_member(I2, w).member
    # the witness points separate: f vanishes at x0, not at y0
    from troplift.polyring import substitute_scalars

    at_x0 = substitute_scalars(step.f_tilde, dict(enumerate(step.x0)))
    at_y0 = substitute_scalars(step.f_tilde, dict(enumerate(step.y0)))
    assert at_x0.is_zero
    assert not at_y0.is_zero


def test_descend_guard_at_base_dimension():
    R = _ring("x", "y")
    I = _local(R, ["y^2 - x^3"], (2, 3))
    assert dimension(I) == 1
    with pytest.raises(UsageError):
        descend(I, (2, 3))


def test_descend_twice_four_variables():
    R = _ring("x1", "x2", "x3", "x4")
    w = (1, 1, 1, 1)
    I = _local(R, ["x1 + x2 + x3 + x4"], w)
    assert dimension(I) == 3
    I2, s1 = descend(I, w)
    assert s1.ok() and dimension(I2) == 2
    I3, s2 = descend(I2, w)
    assert s2.ok() and dimension(I3) == 1
    assert trop_member(I3, w).member


def _step_text(step):
    return (
        [scalar_str(v) for v in step.x0],
        [scalar_str(v) for v in step.y0],
        poly_str(step.f_tilde),
        poly_str(step.f),
    )


def test_descend_rejects_a_zerodivisor_then_cuts():
    """x0 = (1,1,1) lies on the plane x2 = x1 of (x2-x1)(x3-2x1) and
    y0 = (1,-1,2) on the other: the cuts x2^k - x1^k for odd k contain the
    first plane and divide zero, the cut x3 - x1 does not."""
    R = _ring("x1", "x2", "x3")
    w = (1, 1, 1)
    I = _local(R, ["(x2 - x1)*(x3 - 2*x1)"], w)
    I2, step = descend(I, w, seed=0)
    assert _step_text(step) == (["1", "1", "1"], ["1", "-1", "2"], "x3 - 1", "-x1 + x3")
    assert step.integral_weight == (1, 1, 1)
    assert step.slice_indices == (0,)
    assert [poly_str(g) for g in step.J] == ["x1^2 - x1*x2 - 1/2*x1*x3 + 1/2*x2*x3"]
    assert step.nonzerodivisor_ok and step.additivity_ok and step.monomial_free_ok
    assert (step.dim_before, step.dim_after) == (2, 1)
    assert I2.generators[-1] == step.f and dimension(I2) == 1


def test_descend_reports_zerodivisor_cuts():
    """The first torus point (1,1,1) lies on both components of
    (x2-x1)(x3-x1), so every cut through it is a zerodivisor; descend then
    moves x0 to the next torus point, off the plane x2 = x1, and the lift
    through that cut verifies."""
    R = _ring("x1", "x2", "x3")
    w = (1, 1, 1)
    I = _local(R, ["(x2 - x1)*(x3 - x1)"], w)
    _, step = descend(I, w, seed=0)
    assert step.x0 == (1, -1, 1) and step.y0 == (1, -2, 1)
    assert poly_str(step.f) == "x1 + x2" and step.ok()
    res = lift_point(LiftProblem(I, w, 3))
    assert res.point_strings() == ("t^(1)", "-t^(1)", "t^(1)")
    assert [poly_str(d.f) for d in res.descents] == ["x1 + x2"]
    assert verify_lift(res).ok()


def test_descend_reports_failed_certificates(monkeypatch):
    """A cut whose dimension does not drop is refused with its
    certificates; dimension is stubbed, as a certified nonzerodivisor
    always cuts the dimension by one."""
    monkeypatch.setattr(lifting, "dimension", lambda J: 2)
    R = _ring("x1", "x2", "x3")
    w = (1, 1, 1)
    with pytest.raises(DescentWitnessError) as info:
        descend(_local(R, ["x1 + x2 + x3"], w), w)
    certified = ": additivity True, monomial-free True, dim 2->2"
    assert str(info.value) == "no certified hyperplane cut found; tried: " + "; ".join(
        f + certified for f in ("2*x1 + x2", "-4*x1^2 + x2^2", "8*x1^3 + x2^3", "-16*x1^4 + x2^4")
    )


def test_descend_without_a_torus_point():
    R = _ring("x1", "x2", "x3")
    w = (1, 1, 1)
    with pytest.raises(DescentWitnessError, match="no torus point on the sliced"):
        descend(_local(R, ["x1"], w), w)


def test_descend_at_an_irrational_weight():
    """w = (2, r, 2 - r, 1) with r = sqrt 2 spans rank 2: the integral
    weight comes from the search over rational approximations, and the
    cut x2*x3 - x1 puts the slice variable x2 on the side of x3, whose
    weight is 1*2 - 1*r."""
    R = _ring("x1", "x2", "x3", "x4")
    r = ValueScalar(0, 1, 2)
    w = (ValueScalar(2), r, ValueScalar(2) - r, ValueScalar(1))
    I = _local(R, ["x1 + x2*x3 - 2*x4^2"], w)
    I2, step = descend(I, w, seed=0)
    assert step.weights == w
    assert step.integral_weight == (2, 1, 1, 1)
    assert step.slice_indices == (0, 1)
    assert _step_text(step) == (
        ["1", "1", "1", "1"], ["1", "1", "-2", "a1"], "x3 - 1", "x2*x3 - x1"
    )
    assert [poly_str(g) for g in step.J] == ["x2*x3 - 2*x4^2 + x1"]
    assert step.ok() and (step.dim_before, step.dim_after) == (3, 2)
    assert initial_form(step.f, w) == step.f
    assert dimension(I2) == 2 and trop_member(I2, w).member


def _coeffs(field, polys, mode="puiseux"):
    return [
        s if isinstance(s, ValuedSeries) else ValuedSeries(field, s, INF, mode)
        for s in polys
    ]


def test_newton_puiseux_square_root_of_t_cubed():
    field = NumberField()
    coeffs = _coeffs(field, [[(3, -1)], [], [(0, 1)]])
    roots = newton_puiseux(coeffs, 10)
    assert len(roots) == 2
    vals = sorted(str(r) for r in roots)
    assert vals == ["-t^(3/2)", "t^(3/2)"]
    for r in roots:
        assert r.truncation is INF


def test_newton_puiseux_binomial_node():
    field = NumberField()
    coeffs = _coeffs(field, [[(2, -1), (3, -1)], [], [(0, 1)]])
    roots = newton_puiseux(coeffs, 6)
    assert len(roots) == 2
    expected = {
        1: Fraction(1),
        2: Fraction(1, 2),
        3: Fraction(-1, 8),
        4: Fraction(1, 16),
        5: Fraction(-5, 128),
    }
    for root in roots:
        lead = root.coefficient(1)
        sign = 1 if lead == 1 else -1
        assert lead == sign
        for k, c in expected.items():
            assert root.coefficient(k) == sign * c


def test_newton_puiseux_linear():
    field = NumberField()
    coeffs = _coeffs(field, [[(1, -1)], [(0, 1)]])
    roots = newton_puiseux(coeffs, 8)
    assert len(roots) == 1
    assert roots[0].terms == ((ValueScalar(1), Fraction(1)),)


def _stack_depth():
    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    return depth


def test_newton_puiseux_depth_is_not_bounded_by_the_interpreter(monkeypatch):
    """1/(1-t) known below t^300 takes 300 nested Newton nodes; the walk
    runs within 100 frames of the caller, and the root is built once from
    the terms chosen along its branch, with no series sums on the way."""
    adds = []
    add = ValuedSeries.__add__

    def counting_add(a, b):
        adds.append(1)
        return add(a, b)

    monkeypatch.setattr(ValuedSeries, "__add__", counting_add)
    field = NumberField()
    coeffs = _coeffs(field, [[(0, -1)], [(0, 1), (1, -1)]])
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(_stack_depth() + 100)
    try:
        roots = newton_puiseux(coeffs, 300)
    finally:
        sys.setrecursionlimit(limit)
    want = "1 + " + " + ".join(f"t^({k})" for k in range(1, 300)) + " + O(t^(300))"
    assert [str(r) for r in roots] == [want]
    assert adds == []


def test_newton_puiseux_root_count_and_valuation_sum():
    rng = random.Random(515)
    field = NumberField()
    for _ in range(25):
        deg = rng.randint(1, 3)
        factors = []
        for _ in range(deg):
            e = Fraction(rng.randint(1, 6), rng.choice([1, 2]))
            c = Fraction(rng.choice([-3, -2, -1, 1, 2, 3]))
            factors.append(ValuedSeries(field, [(e, c)], INF, "puiseux"))
        # F = prod (z - s_i) expanded by hand
        coeffs = [ValuedSeries.constant(field, 1)]
        for s in factors:
            nxt = [ValuedSeries.zero(field)] * (len(coeffs) + 1)
            for i, c in enumerate(coeffs):
                nxt[i + 1] = nxt[i + 1] + c
                nxt[i] = nxt[i] + c * (-s)
            coeffs = nxt
        roots = newton_puiseux(coeffs, 12)
        assert len(roots) == deg
        got = sorted(r.valuation() for r in roots)
        want = sorted(s.valuation() for s in factors)
        assert got == want
        total = coeffs[0].valuation()
        if total is not INF and not isinstance(total, AtLeast):
            assert sum(got, ValueScalar(0)) == total


def test_newton_puiseux_multiple_root():
    field = NumberField()
    # (z - t)^2 = z^2 - 2 t z + t^2
    coeffs = _coeffs(field, [[(2, 1)], [(1, -2)], [(0, 1)]])
    roots = newton_puiseux(coeffs, 8)
    assert len(roots) == 2
    assert all(r.coefficient(1) == 1 for r in roots)


def _taylor_shift_by_products(coeffs, shift, field, mode):
    """p(z + shift) from series powers and products: the reference."""
    d = len(coeffs) - 1
    powers = [ValuedSeries.constant(field, 1, mode)]
    for _ in range(d):
        powers.append(powers[-1] * shift)
    out = []
    for j in range(d + 1):
        acc = ValuedSeries.zero(field, INF, mode)
        for i in range(j, d + 1):
            binom = ValuedSeries.constant(field, comb(i, j), mode)
            acc = acc + coeffs[i] * binom * powers[i - j]
        out.append(acc)
    return out


def _shift_series(coeffs, c, omega, field, mode, q=1):
    """_taylor_shift on series: into the walk's exponent units, shifted,
    and back, with each result built unchecked so nothing is normalized."""
    into, back = _grid(coeffs, mode)
    pairs = [(into(s.truncation), [(into(e), a) for e, a in s.terms]) for s in coeffs]
    return [
        object.__new__(ValuedSeries)._build(
            field, [(back(e), a) for e, a in terms], back(trunc), mode
        )
        for trunc, terms in _taylor_shift(pairs, c, into(omega), q)
    ]


def _random_exponent(rng, mode):
    a = Fraction(rng.randint(0, 6), rng.choice([1, 2, 3]))
    if mode == "hahn" and rng.random() < 0.5:
        return ValueScalar(a, Fraction(rng.randint(0, 3), rng.choice([1, 2])), 2)
    return ValueScalar(a)


def _random_coefficient(rng, field, mode, scalars):
    kind = rng.random()
    if kind < 0.15:
        return ValuedSeries.zero(field, INF, mode)
    trunc = INF
    if kind < 0.5:
        trunc = _random_exponent(rng, mode) + rng.randint(1, 4)
    if kind < 0.25:
        return ValuedSeries(field, [], trunc, mode)
    terms = [
        (_random_exponent(rng, mode), rng.choice(scalars))
        for _ in range(rng.randint(1, 4))
    ]
    return ValuedSeries(field, terms, trunc, mode)


def test_taylor_shift_matches_series_products():
    """The one-pass monomial shift equals p(z + c*t^omega) built from
    series products, terms and truncations alike."""
    rng = random.Random(2013)
    for mode in ("puiseux", "hahn"):
        for _ in range(60):
            field = NumberField()
            scalars = [Fraction(k, rng.choice([1, 2])) for k in (-3, -1, 1, 2)]
            if rng.random() < 0.5:
                field, a1 = adjoin_root(field, [Fraction(-2), 0, Fraction(1)])
                scalars += [a1, 1 - 2 * a1]
            coeffs = [
                _random_coefficient(rng, field, mode, scalars)
                for _ in range(rng.randint(1, 5))
            ]
            c = rng.choice(scalars)
            omega = _random_exponent(rng, mode) + Fraction(1, rng.randint(1, 3))
            shift = ValuedSeries.monomial(field, omega, c, mode)
            got = _shift_series(coeffs, c, omega, field, mode)
            want = _taylor_shift_by_products(coeffs, shift, field, mode)
            assert len(got) == len(want)
            for g, h in zip(got, want):
                assert g == h, (coeffs, c, omega)
                assert g.truncation == h.truncation
                assert str(g) == str(h)


def test_taylor_shift_by_a_fraction_is_q_to_the_degree_times_the_reference():
    """With int coefficients, _taylor_shift(p, a, omega, q) is exactly
    q^d * p(z + (a/q)*t^omega) built from series products, with int terms,
    on exact and truncated coefficients in both modes."""
    rng = random.Random(23)
    scaled = 0
    for mode in ("puiseux", "hahn"):
        for _ in range(60):
            field = NumberField()
            coeffs = [
                _random_coefficient(rng, field, mode, [-6, -3, -2, -1, 1, 2, 5, 7])
                for _ in range(rng.randint(1, 5))
            ]
            coeffs = [  # with int terms, as the walk holds them
                object.__new__(ValuedSeries)._build(
                    field, [(e, int(a)) for e, a in c.terms], c.truncation, mode
                )
                for c in coeffs
            ]
            a, q = rng.choice([-3, -1, 1, 2, 5]), rng.randint(2, 7)
            omega = _random_exponent(rng, mode) + Fraction(1, rng.randint(1, 3))
            shift = ValuedSeries.monomial(field, omega, Fraction(a, q), mode)
            got = _shift_series(coeffs, a, omega, field, mode, q)
            want = _taylor_shift_by_products(coeffs, shift, field, mode)
            factor = ValuedSeries.constant(field, q ** (len(coeffs) - 1), mode)
            for g, h in zip(got, want):
                assert all(x.__class__ is int for _, x in g.terms)
                assert g.terms == (h * factor).terms, (coeffs, a, q, omega)
                assert g.truncation == h.truncation
            scaled += any(g.terms for g in got)
    assert scaled >= 60


def _taylor_shift_by_constructor(coeffs, c, omega, field, mode):
    """The shift as built before, through the public ValuedSeries
    constructor from every term: the reference."""
    d = len(coeffs) - 1
    c_pows, w_pows = [Fraction(1)], [ValueScalar(0)]
    for _ in range(d):
        c_pows.append(c_pows[-1] * c)
        w_pows.append(w_pows[-1] + omega)
    out = []
    for j in range(d + 1):
        terms, trunc = [], INF
        for i in range(j, d + 1):
            scale, offset = comb(i, j) * c_pows[i - j], w_pows[i - j]
            terms.extend((e + offset, a * scale) for e, a in coeffs[i].terms)
            trunc = min(trunc, coeffs[i].truncation + offset)
        out.append(ValuedSeries(field, terms, trunc, mode))
    return out


def test_taylor_shift_matches_the_constructor_reference():
    """Rational and sqrt(2) omegas, rational and algebraic c, exact and
    truncated coefficients: the same terms, truncations and text."""
    rng = random.Random(15)
    kinds = set()
    for mode in ("puiseux", "hahn"):
        for _ in range(80):
            field = NumberField()
            scalars = [Fraction(k, rng.choice([1, 2])) for k in (-3, -1, 1, 2)]
            if rng.random() < 0.5:
                field, a1 = adjoin_root(field, [Fraction(-2), 0, Fraction(1)])
                scalars += [a1, 1 - 2 * a1, a1 / 3]
            coeffs = [
                _random_coefficient(rng, field, mode, scalars)
                for _ in range(rng.randint(1, 6))
            ]
            c = rng.choice(scalars)
            omega = _random_exponent(rng, mode) + Fraction(1, rng.randint(1, 3))
            got = _shift_series(coeffs, c, omega, field, mode)
            want = _taylor_shift_by_constructor(coeffs, c, omega, field, mode)
            assert [(g.terms, g.truncation, g.mode) for g in got] == [
                (h.terms, h.truncation, h.mode) for h in want
            ], (coeffs, c, omega)
            assert [str(g) for g in got] == [str(h) for h in want]
            kinds.add((omega.is_rational, isinstance(c, Fraction),
                       any(x.truncation is not INF for x in coeffs)))
    assert len(kinds) == 8


def test_newton_puiseux_hahn_product_of_known_factors():
    """Hahn mode: the roots of a product of known factors with exponents
    in Q + Q*sqrt(2) are those factors, one root per factor."""
    rng = random.Random(42)
    N = ValueScalar(6)
    for _ in range(20):
        field = NumberField()
        factors = []
        for _ in range(rng.randint(1, 3)):
            lead = ValueScalar(rng.randint(0, 2), rng.randint(1, 2), 2)
            terms = [(lead, Fraction(rng.choice([-3, -2, -1, 1, 2, 3])))]
            if rng.random() < 0.6:
                step = ValueScalar(rng.randint(0, 2), 1, 2)
                terms.append((lead + step, Fraction(rng.randint(1, 4))))
            factors.append(ValuedSeries(field, terms, INF, "hahn"))
        coeffs = [ValuedSeries.constant(field, 1, "hahn")]
        for s in factors:
            nxt = [ValuedSeries.zero(field, INF, "hahn")] * (len(coeffs) + 1)
            for i, c in enumerate(coeffs):
                nxt[i + 1] = nxt[i + 1] + c
                nxt[i] = nxt[i] + c * (-s)
            coeffs = nxt
        roots = newton_puiseux(coeffs, N, "hahn")
        assert len(roots) == len(factors)
        free = list(roots)
        for f in factors:
            want = truncate(f, N).terms
            hits = [r for r in free if truncate(r, N).terms == want]
            assert hits, (f, roots)
            assert hits[0].truncation >= N
            free.remove(hits[0])


# -- the Newton walk on ValueScalar exponents, as it ran before the exponent
# grid: the reference of the differential test below


def _ref_lower_hull(points):
    hull = []
    for p in points:
        while len(hull) >= 2:
            (i1, v1), (i2, v2) = hull[-2], hull[-1]
            i3, v3 = p
            lhs = (v2 - v1) * (i3 - i1)
            rhs = (v3 - v1) * (i2 - i1)
            if lhs >= rhs:
                hull.pop()
            else:
                break
        hull.append(p)
    return hull


def _ref_hull_at(hull, i):
    for (i1, v1), (i2, v2) in zip(hull, hull[1:]):
        if i1 <= i <= i2:
            return v1 + (v2 - v1) * Fraction(i - i1, i2 - i1)
    raise InternalInvariantError("abscissa outside the polygon")


def _ref_taylor_shift(coeffs, c, omega, field, mode):
    d = len(coeffs) - 1
    c_pows, w_pows = [Fraction(1)], [ValueScalar(0)]
    for _ in range(d):
        c_pows.append(c_pows[-1] * c)
        w_pows.append(w_pows[-1] + omega)
    out = []
    for j in range(d + 1):
        trunc = INF
        for i in range(j, d + 1):
            trunc = min(trunc, coeffs[i].truncation + w_pows[i - j])
        sums = {}
        for i in range(j, d + 1):
            offset, scale = w_pows[i - j], None
            for e, a in coeffs[i].terms:
                if i > j:
                    e = e + offset
                if trunc is not INF and e >= trunc:
                    break
                if i > j:
                    if scale is None:
                        scale = comb(i, j) * c_pows[i - j]
                    a = a * scale
                sums[e] = sums[e] + a if e in sums else a
        terms = [(e, sums[e]) for e in sorted(sums) if sums[e]]
        out.append(object.__new__(ValuedSeries)._build(field, terms, trunc, mode))
    return out


def _ref_newton_puiseux(coeffs, N, mode="puiseux"):
    coeffs = list(coeffs)
    if not coeffs:
        raise UsageError("no coefficients")
    field = coeffs[0].field
    for c in coeffs:
        if c.field is not field:
            raise UsageError("coefficients live over different fields")
        if c.mode != mode:
            raise UsageError("coefficient mode does not match")
    N = as_value(N)
    if N is INF:
        raise UsageError("the precision target must be finite")
    if N.sign() <= 0:
        raise UsageError("the precision target must be positive")
    budget = lifting._NP_NODE_LIMIT
    stack, roots = [], None
    child = (coeffs, (), None)
    while True:
        if child is not None:
            budget -= 1
            if budget < 0:
                raise CapabilityError("root search exceeded its node budget")
            stack.append(_ref_np_node(*child, N, mode, field))
            roots = None
        try:
            child = stack[-1].send(roots)
        except StopIteration as done:
            stack.pop()
            if not stack:
                return done.value
            child, roots = None, done.value


def _ref_np_node(coeffs, acc, slope_bound, N, mode, field):
    certain = [i for i, c in enumerate(coeffs) if c.terms]
    if not certain:
        if all(c.is_exact_zero for c in coeffs):
            raise UsageError("the polynomial is identically zero")
        raise InsufficientTruncationError(
            "every coefficient vanishes below its truncation"
        )
    i_min, top = certain[0], certain[-1]
    vals = {i: coeffs[i].terms[0][0] for i in certain}
    roots = []
    if i_min > 0:
        low = coeffs[:i_min]
        if all(c.is_exact_zero for c in low):
            bound = INF
        else:
            v_min = vals[i_min]
            bound = min(
                (c.truncation - v_min) / Fraction(i_min - i)
                for i, c in enumerate(low)
                if not c.is_exact_zero
            )
            if bound < N:
                raise InsufficientTruncationError(
                    "roots near the accumulator are only separated up to t^(%s)"
                    % bound
                )
        roots.extend([ValuedSeries(field, acc, bound, mode)] * i_min)
    if i_min == top:
        return roots
    hull = _ref_lower_hull([(i, vals[i]) for i in certain])
    for i in range(i_min + 1, top):
        c = coeffs[i]
        if c.terms or c.is_exact_zero:
            continue
        if c.truncation <= _ref_hull_at(hull, i):
            raise InsufficientTruncationError(
                "coefficient %d is only known above the Newton polygon" % i
            )
    for (i1, v1), (i2, v2) in zip(hull, hull[1:]):
        omega = (v1 - v2) / Fraction(i2 - i1)
        if slope_bound is not None and omega <= slope_bound:
            continue
        if omega >= N:
            roots.extend([ValuedSeries(field, acc, omega, mode)] * (i2 - i1))
            continue
        phi = []
        for i in range(i1, i2 + 1):
            if i in vals and vals[i] == _ref_hull_at(hull, i):
                phi.append(coeffs[i].terms[0][1])
            else:
                phi.append(Fraction(0))
        _, phi_roots = roots_in_extension(field, phi)
        for root_c, mult in phi_roots:
            new_coeffs = _ref_taylor_shift(coeffs, root_c, omega, field, mode)
            branch = yield new_coeffs, acc + ((omega, root_c),), omega
            if len(branch) != mult:
                raise InternalInvariantError(
                    "edge branch returned %d roots, expected %d"
                    % (len(branch), mult)
                )
            roots.extend(branch)
    return roots


def _poly_product(field, factors, mode):
    one = ValuedSeries.constant(field, 1, mode)
    zero = ValuedSeries.zero(field, INF, mode)
    coeffs = [one]
    for f in factors:
        out = [zero] * (len(coeffs) + len(f) - 1)
        for i, a in enumerate(coeffs):
            for j, b in enumerate(f):
                out[i + j] = out[i + j] + a * b
        coeffs = out
    return coeffs


def _np_case(seed):
    """A seeded input on a fresh field: (field, coeffs, N, mode).

    The polynomial is a product of known factors z - s, with exponent
    denominators 1-3 (plus sqrt(2) parts in hahn mode) and coefficient
    denominators 1-7, sometimes the factor z, and conjugate pairs
    z^2 - d*u^2, whose edge roots +-sqrt(d) are algebraic.  Some products
    are scaled by an int, so their content is not 1.  Some fields start as
    Q(a1), a1^2 = 3, with a1 in the coefficients of one factor, so that
    rational edge roots meet tower coefficients; there u may have
    coefficients in Q(a1), and d is 3 (the pair splits over Q(a1)) one
    time in four, else 2 or 5 (the pair adjoins a level 2).  The
    coefficients are exact, or some are truncated at one cut; N is
    sometimes off the exponent grid or irrational."""
    rng = random.Random(seed)
    mode = rng.choice(["puiseux", "hahn"])
    field = NumberField()
    a1 = None
    if rng.random() < 0.25:
        field, a1 = adjoin_root(field, [Fraction(-3), 0, Fraction(1)])

    def series(unit=1):
        terms = []
        for _ in range(rng.randint(1, 3)):
            e = ValueScalar(Fraction(rng.randint(0, 8), rng.randint(1, 3)))
            if mode == "hahn" and rng.random() < 0.3:
                e = e + ValueScalar(0, Fraction(1, rng.randint(1, 2)), 2)
            c = Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(1, 7))
            terms.append((e, c * unit))
        return ValuedSeries(field, terms, INF, mode)

    one = ValuedSeries.constant(field, 1, mode)
    zero = ValuedSeries.zero(field, INF, mode)
    if a1 is None:
        factors = [[-series(), one] for _ in range(rng.randint(1, 2))]
        pairs = rng.choice([0, 1, 1, 2])
    else:  # fewer factors: the tower makes each one dearer
        factors = [[-series(), one], [-series(a1 + rng.randint(-1, 1)), one]]
        pairs = rng.choice([0, 1])
    if rng.random() < 0.2:
        factors.append([zero, one])
    for _ in range(pairs):
        if a1 is None:
            u, d = series(), rng.choice([2, 3, 5])
        else:
            u = series(a1 + 1 if rng.random() < 0.5 else 1)
            d = rng.choice([2, 3, 5, 5])
        factors.append([-(u * u * ValuedSeries.constant(field, d, mode)), zero, one])
    coeffs = _poly_product(field, factors, mode)
    if rng.random() < 0.3:
        k = ValuedSeries.constant(field, rng.choice([2, 6, 35]), mode)
        coeffs = [c * k for c in coeffs]
    if rng.random() < 0.4:
        cut = ValueScalar(Fraction(rng.randint(2, 16), rng.randint(1, 3)))
        coeffs = [truncate(c, cut) if rng.random() < 0.7 else c for c in coeffs]
    N = ValueScalar(Fraction(rng.randint(1, 8), rng.randint(1, 2)))
    if rng.random() < 0.1:
        N = N + ValueScalar(0, 1, 2)
    return field, coeffs, N, mode


def _outcome(solve, field, coeffs, N, mode):
    """The roots' texts, exponents and truncations and the field tower, or
    the error's type and text."""
    try:
        roots = solve(coeffs, N, mode)
    except (CapabilityError, UsageError) as exc:
        return type(exc), str(exc)
    for r in roots:
        assert all(e.__class__ is ValueScalar for e, _ in r.terms)
        assert r.truncation is INF or r.truncation.__class__ is ValueScalar
        # no scaled walk coefficient leaks out, and no int / int is a float
        assert all(a.__class__ in (Fraction, AlgebraicNumber) for _, a in r.terms)
    tower = [
        (name, [scalar_str(c) for c in level.minpoly])
        for name, level in zip(field.generator_names(), field.levels)
    ]
    return (
        [str(r) for r in roots],
        [(r.truncation, [e for e, _ in r.terms]) for r in roots],
        tower,
    )


def _np_outcome(solve, seed):
    return _outcome(solve, *_np_case(seed))


def _counting(monkeypatch, name):
    """Replace lifting.<name> by a wrapper that appends to the returned
    list on each call."""
    calls, f = [], getattr(lifting, name)

    def counting(*args):
        calls.append(1)
        return f(*args)

    monkeypatch.setattr(lifting, name, counting)
    return calls


def test_grid_walk_matches_the_value_scalar_walk(monkeypatch):
    """newton_puiseux on the exponent grid gives the roots, truncations,
    tower and errors of the walk on ValueScalar exponents, in both modes.
    On a grid too coarse for the roots (L0 of the constant coefficient
    alone), slopes and bounds fall off it as Fractions, and the puiseux
    walk still matches exactly.  Conjugate pairs are mirrored in both
    modes, on rational input, on tower input (the pair on level 2) and on
    truncated input."""
    grid, ratio = lifting._grid, lifting._ratio
    off_grid = []

    def counting_ratio(a, n):
        q = ratio(a, n)
        if q.__class__ is Fraction:
            off_grid.append(q)
        return q

    mirrored = _counting(monkeypatch, "_mirror")
    kinds = Counter()
    for seed in range(160):
        want = _np_outcome(_ref_newton_puiseux, seed)
        mirrored.clear()
        assert _np_outcome(newton_puiseux, seed) == want, seed
        field, coeffs, N, mode = _np_case(seed)
        truncated = any(c.truncation is not INF for c in coeffs)
        for kind in ("tower input" if field.height() else "rational",) + (
            ("truncated",) if truncated else ()
        ):
            kinds[mode, "mirrored " + kind] += len(mirrored)
        if mode == "puiseux":
            with monkeypatch.context() as m:
                m.setattr(lifting, "_grid", lambda coeffs, mode: grid(coeffs[:1], mode))
                m.setattr(lifting, "_ratio", counting_ratio)
                assert _np_outcome(newton_puiseux, seed) == want, seed
        if len(want) == 2:
            kinds[mode, want[0].__name__] += 1
        else:
            kinds[mode, "tower" if want[2] else "rational"] += 1
            if truncated:
                kinds[mode, "truncated"] += 1
            if field.height():
                kinds[mode, "tower input"] += 1
            if coeffs[-1].terms[0][1] != 1:
                kinds[mode, "content"] += 1
            if any(a.__class__ is Fraction and a.denominator >= 5
                   for c in coeffs for _, a in c.terms):
                kinds[mode, "denominator"] += 1
    for mode in ("puiseux", "hahn"):
        for kind in ("InsufficientTruncationError", "tower", "rational", "truncated",
                     "tower input", "content", "denominator", "mirrored rational",
                     "mirrored tower input", "mirrored truncated"):
            assert kinds[mode, kind] >= 2, kinds
    assert len(off_grid) >= 10


def _text_case(text, mode="puiseux"):
    """A fresh field and the coefficients of np-solve's --coeffs text; the
    field is Q(a1), a1^2 = 3, when the text names a1."""
    field = NumberField()
    if "a1" in text:
        field.adjoin("a1", [-3, 0, 1])
    return field, [parse_series(part, field, mode) for part in text.split(";")]


@pytest.mark.parametrize("mode", ["puiseux", "hahn"])
def test_conjugate_edge_roots_are_walked_once(monkeypatch, mode):
    """Each walk equals the reference's, tower included.  A double quadratic
    root, (z^2 - 2t^2)^2, is walked as today.  Two quadratics on one edge,
    (z^2 - 2t^2)(z^2 - 3t^2), mirror both pairs, and the roots print in
    the order -a1, -a2, a1, a2.  (z^2 - 2t^2)(z^4 + t^4) adjoins a2 with
    z^2 - a1*z + 1 over Q(a1): all three pairs are mirrored, 3 shifts for
    6 roots.  A pair that runs to N, sqrt(2)*t*(1 + t)^(1/2), is mirrored
    term by term.  Over Q(a1), a1^2 = 3, (z - a1*t)(z + a1*t + t^2) has
    the edge roots +-a1 on a level that the node did not adjoin, and
    a1 -> -a1 does not fix it: both are walked.  Past the degree cap,
    z^3 - 2t^3 - t^4 adjoins a cubic a1, which is walked, and a2 with
    z^2 + a1*z + a1^2, whose pair is mirrored."""
    mirrored = _counting(monkeypatch, "_mirror")
    shifts = _counting(monkeypatch, "_taylor_shift")
    cases = [
        ("4*t^(4);0;-4*t^(2);0;1", 0, 2),
        ("6*t^(4);0;-5*t^(2);0;1", 2, 2),
        ("-2*t^(6);0;t^(4);0;-2*t^(2);0;1", 3, 3),
        ("-2*t^(2)-2*t^(3);0;1", 1, None),
        ("-3*t^(2)-a1*t^(3);t^(2);1", 0, 3),
        ("-2*t^(3)-t^(4);0;0;1", 1, None),
    ]
    roots, _, _ = _outcome(newton_puiseux, *_text_case(cases[1][0], mode), 4, mode)
    assert roots == ["-a1*t^(1)", "-a2*t^(1)", "a1*t^(1)", "a2*t^(1)"]
    roots, _, tower = _outcome(newton_puiseux, *_text_case(cases[2][0], mode), 4, mode)
    assert len(roots) == 6 and tower[1] == ("a2", ["1", "-a1", "1"])
    for text, n_mirrored, n_shifts in cases:
        if text == cases[-1][0]:
            monkeypatch.setattr(scalars, "_MAX_ADJOIN_DEGREE", 32)
        want = _outcome(_ref_newton_puiseux, *_text_case(text, mode), 4, mode)
        del mirrored[:], shifts[:]
        got = _outcome(newton_puiseux, *_text_case(text, mode), 4, mode)
        assert got == want, text
        assert len(mirrored) == n_mirrored, text
        assert n_shifts is None or len(shifts) == n_shifts, text


def test_a_mirrored_branch_costs_its_source_nodes(monkeypatch):
    """(z^2 - 3t^4)(z^2 - 2t^2 - 2t^3): at every node budget up to the one
    the reference walk needs, newton_puiseux gives the reference's roots or
    error, and its tower.  The mirrored branch of the pair that runs to N
    is charged its source's nodes, so one node short of the reference's
    need raises the same CapabilityError."""
    text = "6*t^(6)+6*t^(7);0;-2*t^(2)-2*t^(3)-3*t^(4);0;1"
    mirrored = _counting(monkeypatch, "_mirror")
    outcomes = []
    for limit in range(1, 100):
        monkeypatch.setattr(lifting, "_NP_NODE_LIMIT", limit)
        want = _outcome(_ref_newton_puiseux, *_text_case(text), 6, "puiseux")
        del mirrored[:]
        assert _outcome(newton_puiseux, *_text_case(text), 6, "puiseux") == want, limit
        outcomes.append(want)
        if len(want) == 3:
            break
    assert len(mirrored) == 2 and len(outcomes) > 10
    assert outcomes[-2] == (CapabilityError, "root search exceeded its node budget")


def test_conjugation_of_a_quadratic_level_is_an_automorphism():
    """sigma: theta -> -m1 - theta on a top level of degree 2 is additive,
    multiplicative and an involution, fixes the levels below, and maps
    theta to the other root of its minimal polynomial z^2 + m1*z + m0:
    on Q(a1) with a1^2 + a1 + 1 = 0, and on Q(a1, a2) with a1^2 = 2 and
    a2^2 - a1*a2 + 1 = 0."""
    rng = random.Random(5)
    cyclotomic = NumberField()
    cyclotomic.adjoin("a1", [1, 1, 1])
    tower = NumberField()
    tower.adjoin("a2", [1, -tower.adjoin("a1", [-2, 0, 1]), 1])
    for field in (cyclotomic, tower):
        top = field.height()

        def element(level):
            if not level:
                return Fraction(rng.randint(-6, 6), rng.randint(1, 4))
            return element(level - 1) + element(level - 1) * field.generator(level)

        def sigma(x):
            return lifting._conjugate(field, top, x)

        for _ in range(100):
            x, y, low = element(top), element(top), element(top - 1)
            assert sigma(x * y) == sigma(x) * sigma(y)
            assert sigma(x + y) == sigma(x) + sigma(y)
            assert sigma(sigma(x)) == x
            assert sigma(low) == low
        m0, m1, _ = field.levels[top - 1].minpoly
        theta = field.generator(top)
        assert sigma(theta) != theta
        assert theta + sigma(theta) == -m1 and theta * sigma(theta) == m0


def test_walk_on_rational_input_shifts_int_terms(monkeypatch):
    """With rational coefficients and rational roots, every term that
    _taylor_shift is given or returns is an int, a root a/b shifts by
    (a, b), and the roots are those of the input."""
    shift = lifting._taylor_shift
    calls = []

    def checking_shift(coeffs, c, omega, q=1):
        out = shift(coeffs, c, omega, q)
        for _, terms in coeffs + out:
            assert all(a.__class__ is int for _, a in terms), (coeffs, c, q)
        calls.append(q)
        return out

    monkeypatch.setattr(lifting, "_taylor_shift", checking_shift)
    rng = random.Random(7)
    for _ in range(20):
        field = NumberField()
        factors = []
        for _ in range(rng.randint(1, 3)):
            terms = [(Fraction(rng.randint(1, 6), rng.randint(1, 2)),
                      Fraction(rng.choice([-3, -1, 1, 2]), rng.randint(1, 7)))
                     for _ in range(rng.randint(1, 3))]
            factors.append([-ValuedSeries(field, terms), ValuedSeries.constant(field, 1)])
        six_fifths = ValuedSeries.constant(field, Fraction(6, 5))
        coeffs = [c * six_fifths for c in _poly_product(field, factors, "puiseux")]
        roots = newton_puiseux(coeffs, 8)
        assert not field.height()
        assert sorted(str(-r) for r in roots) == sorted(str(f[0]) for f in factors)
    assert any(q > 1 for q in calls)


def test_a_truncation_on_the_newton_polygon_is_too_coarse():
    """z^2 + O(t^k) z - t^(2h): known only up to the polygon's height h at
    index 1, the middle coefficient cannot place the polygon; known just
    above it, it can.  Rational and sqrt(2) heights alike."""
    for mode, h in (("puiseux", ValueScalar(1)), ("hahn", ValueScalar(0, 1, 2))):
        field = NumberField()

        def poly(k):
            return [ValuedSeries.monomial(field, h * 2, -1, mode),
                    ValuedSeries.zero(field, k, mode),
                    ValuedSeries.constant(field, 1, mode)]

        with pytest.raises(InsufficientTruncationError, match="coefficient 1 is only"):
            newton_puiseux(poly(h), 1, mode)
        assert len(newton_puiseux(poly(h + Fraction(1, 2)), 1, mode)) == 2


def test_newton_puiseux_builds_value_scalars_only_for_its_roots(monkeypatch):
    """On the exponent grid the walk builds no ValueScalar: one per term
    and truncation of each returned root, and a few for the input."""
    field = NumberField()
    t = [ValuedSeries.monomial(field, e, 1) for e in range(5)]
    one = t[0]
    # (z - t - t^2)(z + 2t - t^3)(z^2 - 3t^3 - t^4): one pair of roots
    # +-sqrt(3) t^(3/2) (1 + ...) that runs to N
    coeffs = _poly_product(field, [
        [-(t[1] + t[2]), one],
        [t[1] * ValuedSeries.constant(field, 2) - t[3], one],
        [-(t[3] * ValuedSeries.constant(field, 3) + t[4]), ValuedSeries.zero(field), one],
    ], "puiseux")
    built = []
    build = ValueScalar._build

    def counting_build(self, a, b, d):
        built.append(1)
        return build(self, a, b, d)

    monkeypatch.setattr(ValueScalar, "_build", counting_build)
    roots = newton_puiseux(coeffs, 12)
    monkeypatch.undo()
    assert len(roots) == 4
    assert sum(len(r.terms) for r in roots) >= 20
    assert len(built) <= sum(len(r.terms) for r in roots) + len(roots) + 4


def test_lift_cusp_exact():
    R = _ring("x", "y")
    I = _local(R, ["y^2 - x^3"], (2, 3))
    res = lift_point(LiftProblem(I, (2, 3), 10))
    assert res.achieved == (ValueScalar(2), ValueScalar(3))
    x, y = res.point
    assert x.terms == ((ValueScalar(2), Fraction(1)),)
    assert abs(Fraction(str(y.coefficient(3)))) == 1
    for bound in res.residuals:
        from troplift.series import valuation_at_least

        assert valuation_at_least(bound, ValueScalar(10))
    report = verify_lift(res)
    assert report.ok()


def test_lift_node_binomial_series():
    R = _ring("x", "y")
    I = _local(R, ["y^2 - x^2 - x^3"], (1, 1))
    res = lift_point(LiftProblem(I, (1, 1), 5))
    assert res.achieved == (ValueScalar(1), ValueScalar(1))
    x, y = res.point
    assert x.terms == ((ValueScalar(1), Fraction(1)),)
    sign = 1 if y.coefficient(1) == 1 else -1
    expected = {
        1: Fraction(1),
        2: Fraction(1, 2),
        3: Fraction(-1, 8),
        4: Fraction(1, 16),
        5: Fraction(-5, 128),
    }
    for k, c in expected.items():
        assert y.coefficient(k) == sign * c
    assert verify_lift(res).ok()


def test_lift_hahn_quadric():
    R = _ring("x", "y", "z")
    rt = ValueScalar(0, 1, 2)
    mid = ValueScalar(Fraction(1, 2), Fraction(1, 2), 2)
    w = (ValueScalar(1), rt, mid)
    I = _local(R, ["x*y - z^2"], w)
    res = lift_point(LiftProblem(I, w, 6, mode="hahn"))
    assert res.achieved == w
    for s, target in zip(res.point, w):
        assert s.valuation() == target
        # exponents stay inside Q + Q*sqrt(2)
        for e, _ in s.terms:
            assert e.d in (1, 2)
    assert verify_lift(res).ok()


def test_lift_rejects_non_member():
    R = _ring("x", "y")
    I = _local(R, ["x + y"], (1, 2))
    with pytest.raises(NonMemberError):
        lift_point(LiftProblem(I, (1, 2), 5))


def test_degree_cap_fails_before_any_norm(monkeypatch):
    """Over Q(cbrt 2) the cubic y^3 - 2 needs a degree-9 norm: the cap is
    read off the tower degrees, so no Trager norm is built."""
    calls = []
    norm = scalars._bivariate_norm
    monkeypatch.setattr(
        scalars, "_bivariate_norm", lambda *args: calls.append(args) or norm(*args)
    )
    R = _ring("x", "y")
    I = _local(R, ["y^3 - 2*x^3"], (1, 1))
    with pytest.raises(CapabilityError, match=r"got degree 9\)"):
        lift_point(LiftProblem(I, (1, 1), 5))
    assert calls == []


def test_lift_descends_linear_three_variables():
    R = _ring("x", "y", "z")
    I = _local(R, ["x + y + z"], (1, 1, 1))
    res = lift_point(LiftProblem(I, (1, 1, 1), 8))
    assert len(res.descents) == 1
    assert res.descents[0].ok()
    assert res.achieved == (ValueScalar(1),) * 3
    assert verify_lift(res).ok()
    # the lifted point satisfies the original generator exactly enough
    out = substitute(_p(R, "x + y + z"), res.point)
    from troplift.series import valuation_at_least

    assert valuation_at_least(out.valuation(), ValueScalar(8))


def test_verify_lift_flexible_signatures():
    """verify_lift takes a LiftResult, or a LiftProblem and a point."""
    R = _ring("x", "y")
    I = _local(R, ["y^2 - x^3"], (2, 3))
    problem = LiftProblem(I, (2, 3), 10)
    res = lift_point(problem)

    assert verify_lift(res).ok()
    assert verify_lift(problem, res.point).ok()

    # sign symmetry: flipping y still verifies
    flipped = (res.point[0], -res.point[1])
    assert verify_lift(problem, flipped).ok()

    for args, message in (
        ((res, res.point), "a lift result already carries its point"),
        ((problem,), "no point to verify"),
        ((I, res.point), "expected a lift result or a lift problem"),
    ):
        with pytest.raises(UsageError, match=message):
            verify_lift(*args)


def test_verify_lift_detects_mismatch():
    R = _ring("x", "y")
    I = _local(R, ["y^2 - x^3"], (2, 3))
    field = R.field
    t = ValuedSeries.monomial(field, 1, truncation=12)
    report = verify_lift(LiftProblem(I, (2, 3), 10), (t, t))
    assert not report.ok()
    assert not all(ok for *_, ok in report.valuation_checks)


def _traced_dfs(monkeypatch, names, texts, w, target=10):
    """_dfs_solve from x = t^w[0], with the (assignment, result) of each
    call it makes, outermost last, as text."""
    calls = []
    solve = lifting._dfs_solve

    def tracing(I_cur, w, assignment, remaining, target, mode):
        found = solve(I_cur, w, assignment, remaining, target, mode)
        calls.append((
            [str(assignment[i]) for i in sorted(assignment)],
            None if found is None else [str(s) for s in found],
        ))
        return found

    monkeypatch.setattr(lifting, "_dfs_solve", tracing)
    R = _ring(*names)
    I = _local(R, texts, w)
    x = {0: ValuedSeries.monomial(R.field, as_value(w[0]), 1, "puiseux")}
    point = tracing(I, w, x, list(range(1, len(names))), target, "puiseux")
    return I, point, calls


def test_dfs_backtracks_past_a_root_with_no_consistent_next_coordinate(monkeypatch):
    """y^2 = x^2 gives y = t first; then z solves (2z - x + y)(z - x^2)
    only by 0 and t^2, neither of valuation 1, so the search returns to
    y = -t, where z = t lifts and verifies."""
    w = (1, 1, 1)
    I, point, calls = _traced_dfs(
        monkeypatch, ("x", "y", "z"), ["y^2 - x^2", "(2*z - x + y)*(z - x^2)"], w
    )
    assert calls == [
        (["t^(1)", "t^(1)"], None),
        (["t^(1)", "-t^(1)", "t^(1)"], ["t^(1)", "-t^(1)", "t^(1)"]),
        (["t^(1)", "-t^(1)"], ["t^(1)", "-t^(1)", "t^(1)"]),
        (["t^(1)"], ["t^(1)", "-t^(1)", "t^(1)"]),
    ]
    assert verify_lift(LiftProblem(I, w, 10), point).ok()


def test_dfs_skips_a_duplicate_root(monkeypatch):
    """(y - x)^2 (y + x) has the double root y = t, which leaves y^3 (y + x)
    at valuation 4 < 10; its second copy is skipped and y = -t verifies."""
    w = (1, 1)
    texts = ["(y - x)*(y - x)*(y + x)", "(y + x)*y^3"]
    I, point, calls = _traced_dfs(monkeypatch, ("x", "y"), texts, w)
    assert calls == [
        (["t^(1)", "t^(1)"], None),
        (["t^(1)", "-t^(1)"], ["t^(1)", "-t^(1)"]),
        (["t^(1)"], ["t^(1)", "-t^(1)"]),
    ]
    assert verify_lift(LiftProblem(I, w, 10), point).ok()


def test_dfs_without_a_relation_for_the_next_coordinate(monkeypatch):
    _, point, calls = _traced_dfs(monkeypatch, ("x", "y"), ["x^2"], (1, 1))
    assert point is None and calls == [(["t^(1)"], None)]


def test_lift_deterministic():
    R = _ring("x", "y")
    I = _local(R, ["y^2 - x^2 - x^3"], (1, 1))
    a = lift_point(LiftProblem(I, (1, 1), 5))
    b = lift_point(LiftProblem(I, (1, 1), 5))
    assert tuple(str(s) for s in a.point) == tuple(str(s) for s in b.point)


def test_lift_computes_each_local_basis_once(monkeypatch):
    """Membership, descent and parameter choice share the presentation
    local at w, and the torus points of each sliced ideal come from one
    sequence with one monomial check."""
    keys = []
    mora = ideals._mora_std

    def counting_mora(gens, order):
        gens = list(gens)
        keys.append(
            (order.weights, tuple(tuple(sorted(g.coeffs.items())) for g in gens))
        )
        return mora(gens, order)

    checked = []
    contains = ideals.contains_monomial

    def counting_contains(J):
        checked.append((J.ring.vars, J.generators))
        return contains(J)

    monkeypatch.setattr(ideals, "_mora_std", counting_mora)
    monkeypatch.setattr(ideals, "contains_monomial", counting_contains)
    R = _ring("x", "y", "z")
    problem = LiftProblem(presentation(R, [_p(R, "x + y + z")]), (1, 1, 2), 3)
    res = lift_point(problem)
    assert verify_lift(res).ok()
    assert len(res.descents) == 1
    assert keys and len(set(keys)) == len(keys)
    # torus_point is the only caller inside troplift.ideals
    assert len(checked) == len(res.descents) == len(set(checked))


def test_lift_solves_each_parameter_set_once(monkeypatch):
    """y^3 - 2x^3 at (1,1) needs a cube root of 2 and then a degree-9 norm,
    beyond the extension bounds: each of its two parameter sets is solved
    once, with one Newton polygon run, and reports one failure."""
    calls = []
    solve = lifting.newton_puiseux

    def counting_solve(*args):
        calls.append(args)
        return solve(*args)

    monkeypatch.setattr(lifting, "newton_puiseux", counting_solve)
    R = _ring("x", "y")
    problem = LiftProblem(_local(R, ["y^3 - 2*x^3"], (1, 1)), (1, 1), 5)
    with pytest.raises(DescentWitnessError) as info:
        lift_point(problem)
    assert len(calls) == 2
    message = str(info.value)
    assert message.startswith("lifting failed; tried: ")
    assert message.count("extension unsupported") == 2


def test_parameter_search_stops_at_the_first_set_that_lifts(monkeypatch):
    """x1+x2+x3+x4 at (1,1,1,1) has rank 1 and four parameter sets, each of
    which qualifies: the first lifts, so it is the only one tested.  A
    parameter test is a dimension call on I_cur cut by x_S, in the ring of
    the other variables or with the variables of S among its generators."""
    tested = []
    dim = lifting.dimension

    def counting_dimension(J):
        if J.ring.nvars() < 4 or any(
            len(g.coeffs) == 1 and g.total_degree() == 1 for g in J.generators
        ):
            tested.append(J)
        return dim(J)

    monkeypatch.setattr(lifting, "dimension", counting_dimension)
    R = _ring("x1", "x2", "x3", "x4")
    w = (1, 1, 1, 1)
    res = lift_point(LiftProblem(_local(R, ["x1 + x2 + x3 + x4"], w), w, 3))
    assert verify_lift(res).ok()
    assert res.parameters == (0,)
    assert len(res.descents) == 2
    assert len(tested) == 1


def _cut_is_zero_dimensional(I, S):
    """The reference parameter test: the dimension of I + (x_i : i in S),
    with the variables added as generators."""
    test = I.with_extra([I.ring.var(i) for i in S])
    return not test.is_unit_ideal() and dimension(test) == 0


def _parameter_test_inputs():
    """Member (names, generator texts, w) from the census slice and from
    golden_lifts.json, and the Hahn quadric at a rank-2 weight."""
    rng = random.Random(7)
    for _ in range(SLICE):
        names, w, gens = draw(rng)
        R = _ring(*names)
        yield names, [poly_str(Polynomial(R, g)) for g in gens], w
    for entry in json.loads(Path(__file__).with_name("golden_lifts.json").read_text()):
        yield tuple(entry["vars"]), [entry["ideal"]], tuple(entry["w"])
    rt = ValueScalar(0, 1, 2)
    yield ("x", "y", "z"), ["x*y - z^2"], (ValueScalar(1), rt, (1 + rt) / 2)


def test_parameter_test_on_the_restricted_ring_matches_the_cut():
    """k[[x]]/(I + (x_S)) is k[[x_rest]]/(I mod x_S): over seeded member
    ideals and every r-subset S, the test on the restricted ring gives the
    verdict of the reference, before and after one descent."""
    checked = Counter()
    for names, texts, w in _parameter_test_inputs():
        R = _ring(*names)
        I = _local(R, texts, w)
        if not trop_member(I, w).member:
            continue
        r = rational_span(w).rank
        stages = [I]
        if dimension(I) > r:
            try:
                stages.append(descend(I, w)[0])
            except CapabilityError:
                pass
        for stage, J in enumerate(stages):
            for S in combinations(range(len(names)), r):
                got = lifting._cuts_to_dimension_zero(J, w, S)
                assert got == _cut_is_zero_dimensional(J, S), (texts, w, S, stage)
                checked[stage, got] += 1
    assert all(checked[stage, verdict] for stage in (0, 1) for verdict in (True, False))


def test_lifts_match_recorded_points():
    """A seeded sample of member lifts of principal binomials and
    trinomials in two and three variables, none divisible by a variable:
    point, parameter set and descent count as recorded in
    golden_lifts.json."""
    recorded = json.loads(Path(__file__).with_name("golden_lifts.json").read_text())
    assert len(recorded) >= 30
    for entry in recorded:
        R = _ring(*entry["vars"])
        w = tuple(entry["w"])
        res = lift_point(LiftProblem(_local(R, [entry["ideal"]], w), w, entry["N"]))
        got = (list(res.point_strings()), list(res.parameters), len(res.descents))
        assert got == (entry["point"], entry["parameters"], entry["descents"]), entry


@pytest.mark.parametrize(
    "text, w, point",
    [
        ("x^2*y^2/2 - 2*x^3*y", (2, 2), ("t^(2)", "4*t^(2)")),
        ("2*x^3*y - 3*x*y^3", (1, 1), ("t^(1)", "a1*t^(1)")),
    ],
)
def test_lift_through_a_coordinate_hyperplane_component(text, w, point):
    """x y divides the generator, so the ideal has components inside the
    coordinate axes; the lift runs in the saturation by x*y and verifies
    against the generator itself."""
    R = _ring("x", "y")
    I = _local(R, [text], w)
    assert trop_member(I, w).member
    res = lift_point(LiftProblem(I, w, 3))
    assert res.point_strings() == point
    assert res.residuals == (INF,)
    assert verify_lift(res).ok()
