"""Weight-span decomposition, descent steps, Newton polygon roots, lifting."""

import random
from fractions import Fraction

import pytest

from troplift.errors import NonMemberError, UsageError
from troplift.ideals import dimension, ideal_member, presentation
from troplift.lifting import (
    LiftProblem,
    descend,
    lift_point,
    newton_puiseux,
    rational_span,
    verify_lift,
)
from troplift.parsing import parse_poly
from troplift.polyring import INF, PolyRing, initial_form
from troplift.scalars import NumberField, ValueScalar, cmp_value
from troplift.series import AtLeast, ValuedSeries, substitute, valuation
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
        assert cmp_value(total, ValueScalar.of(entry)) == 0


def test_rational_span_rank_one():
    span = rational_span((2, 3))
    assert span.r == 1
    assert span.gamma == (ValueScalar(1),)
    assert span.matrix == ((2,), (3,))

    rt = ValueScalar(0, 1, 2)
    span2 = rational_span((rt, rt + rt))
    assert span2.r == 1
    assert span2.gamma == (rt,)
    assert span2.matrix == ((1,), (2,))


def test_rational_span_rank_two():
    rt = ValueScalar(0, 1, 2)
    mid = ValueScalar(Fraction(1, 2), Fraction(1, 2), 2)
    w = (ValueScalar(1), rt, mid)
    span = rational_span(w)
    assert span.r == 2
    assert len(span.gamma) == 2
    # gamma spans (1, sqrt 2) over Q: one rational, one pure radical
    assert span.gamma[0].is_rational
    assert not span.gamma[1].is_rational
    _reconstruct(span, w)


def test_rational_span_fractional_entries():
    w = (Fraction(1, 2), Fraction(3, 4))
    span = rational_span(w)
    assert span.r == 1
    _reconstruct(span, w)


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
        got = sorted(valuation(r).to_fraction() for r in roots)
        want = sorted(valuation(s).to_fraction() for s in factors)
        assert got == want
        total = valuation(coeffs[0])
        if total is not INF and not isinstance(total, AtLeast):
            assert sum(got, Fraction(0)) == total.to_fraction()


def test_newton_puiseux_multiple_root():
    field = NumberField()
    # (z - t)^2 = z^2 - 2 t z + t^2
    coeffs = _coeffs(field, [[(2, 1)], [(1, -2)], [(0, 1)]])
    roots = newton_puiseux(coeffs, 8)
    assert len(roots) == 2
    assert all(r.coefficient(1) == 1 for r in roots)


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
        assert valuation(s) == target
        # exponents stay inside Q + Q*sqrt(2)
        for e, _ in s.terms:
            assert e.d in (1, 2)
    assert verify_lift(res).ok()


def test_lift_rejects_non_member():
    R = _ring("x", "y")
    I = _local(R, ["x + y"], (1, 2))
    with pytest.raises(NonMemberError):
        lift_point(LiftProblem(I, (1, 2), 5))


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

    assert valuation_at_least(valuation(out), ValueScalar(8))


def test_verify_lift_flexible_signatures():
    R = _ring("x", "y")
    I = _local(R, ["y^2 - x^3"], (2, 3))
    problem = LiftProblem(I, (2, 3), 10)
    res = lift_point(problem)

    assert verify_lift(res).ok()
    assert verify_lift(problem, res).ok()
    assert verify_lift(problem, res.point).ok()
    assert verify_lift(I, res.point, (2, 3), 10).ok()

    # sign symmetry: flipping y still verifies
    flipped = (res.point[0], -res.point[1])
    assert verify_lift(I, flipped, (2, 3), 10).ok()


def test_verify_lift_detects_mismatch():
    R = _ring("x", "y")
    I = _local(R, ["y^2 - x^3"], (2, 3))
    field = R.field
    t = ValuedSeries.monomial(field, 1, truncation=12)
    report = verify_lift(I, (t, t), (2, 3), 10)
    assert not report.ok()
    assert not all(ok for *_, ok in report.valuation_checks)


def test_lift_deterministic():
    R = _ring("x", "y")
    I = _local(R, ["y^2 - x^2 - x^3"], (1, 1))
    a = lift_point(LiftProblem(I, (1, 1), 5))
    b = lift_point(LiftProblem(I, (1, 1), 5))
    assert tuple(str(s) for s in a.point) == tuple(str(s) for s in b.point)
