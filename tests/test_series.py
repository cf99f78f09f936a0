"""Truncated series arithmetic, valuations, and polynomial substitution."""

import random
from fractions import Fraction

import pytest

from troplift.errors import InsufficientTruncationError, UsageError
from troplift.parsing import parse_poly, parse_series
from troplift.polyring import INF, PolyRing
from troplift.scalars import NumberField, ValueScalar, adjoin_root
from troplift.series import (
    AtLeast,
    ValuedSeries,
    poly_to_series_coeffs,
    series_str,
    substitute,
    valuation_at_least,
)

F = NumberField()


def _s(terms, truncation=INF, mode="puiseux", field=F):
    return ValuedSeries(field, terms, truncation, mode)


def test_addition_examples():
    a = _s([(1, 1), (2, 1)], truncation=5)
    b = _s([(1, -1)], truncation=4)
    total = a + b
    assert total.terms == ((ValueScalar(2), Fraction(1)),)
    assert total.truncation == ValueScalar(4)


def test_multiplication_examples():
    half = ValueScalar(Fraction(1, 2))
    a = ValuedSeries.monomial(F, half)
    prod = a * a
    assert prod.terms == ((ValueScalar(1), Fraction(1)),)
    assert prod.truncation is INF

    one_plus = _s([(0, 1), (1, 1)])
    one_minus = _s([(0, 1), (1, -1)])
    diff = one_plus * one_minus
    assert diff == _s([(0, 1), (2, -1)])


def test_multiplication_precision_propagation():
    # trunc(a*b) = min(trunc(a) + val(b), trunc(b) + val(a))
    a = _s([(2, 1)], truncation=7)
    b = _s([(3, 5)], truncation=6)
    prod = a * b
    assert prod.truncation == ValueScalar(min(7 + 3, 6 + 2))
    assert prod.terms == ((ValueScalar(5), Fraction(5)),)


def test_valuation_examples():
    assert _s([(2, 1), (3, 1)]).valuation() == ValueScalar(2)
    v = ValuedSeries.zero(F, truncation=10).valuation()
    assert isinstance(v, AtLeast)
    assert v.bound == ValueScalar(10)
    assert _s([(0, 3), (1, 1)]).valuation() == ValueScalar(0)
    assert ValuedSeries.zero(F).valuation() is INF


def test_valuation_at_least_marker():
    assert valuation_at_least(INF, ValueScalar(100))
    assert valuation_at_least(AtLeast(ValueScalar(5)), ValueScalar(5))
    assert not valuation_at_least(AtLeast(ValueScalar(5)), ValueScalar(6))
    assert valuation_at_least(ValueScalar(3), ValueScalar(3))
    assert not valuation_at_least(ValueScalar(2), ValueScalar(3))


def test_substitute_examples():
    R = PolyRing(F, ("x", "y"))
    f = parse_poly("y^2 - x^3", R)
    x = ValuedSeries.monomial(F, 2, truncation=12)
    y = ValuedSeries.monomial(F, 3, truncation=12)
    out = substitute(f, (x, y))
    assert out.terms == ()
    assert valuation_at_least(out.valuation(), ValueScalar(12))

    g = parse_poly("x + y", R)
    t = ValuedSeries.monomial(F, 1)
    out2 = substitute(g, (t, -t))
    assert out2.is_exact_zero
    assert out2.valuation() is INF


def test_substitute_hahn_example():
    field, _ = adjoin_root(NumberField(), [Fraction(-2), Fraction(0), Fraction(1)])
    R = PolyRing(field, ("x", "y", "z"))
    f = parse_poly("x*y - z^2", R)
    rt2 = ValueScalar(0, 1, 2)
    mid = ValueScalar(Fraction(1, 2), Fraction(1, 2), 2)
    pt = (
        ValuedSeries.monomial(field, 1, mode="hahn"),
        ValuedSeries.monomial(field, rt2, mode="hahn"),
        ValuedSeries.monomial(field, mid, mode="hahn"),
    )
    out = substitute(f, pt)
    assert out.is_exact_zero


def test_puiseux_mode_rejects_irrational_exponent():
    with pytest.raises(UsageError):
        _s([(ValueScalar(0, 1, 2), 1)])
    # the same exponent is fine in hahn mode
    s = _s([(ValueScalar(0, 1, 2), 1)], mode="hahn")
    assert s.valuation() == ValueScalar(0, 1, 2)


def test_mode_mismatch_rejected():
    a = _s([(1, 1)])
    b = _s([(1, 1)], mode="hahn")
    with pytest.raises(UsageError):
        a + b
    with pytest.raises(UsageError):
        a * b


def test_substitute_precision_collapse():
    R = PolyRing(F, ("x",))
    f = parse_poly("x^3", R)
    # a Laurent-tail argument drags the guaranteed window below zero
    s = _s([(-2, 1)], truncation=Fraction(-1))
    with pytest.raises(InsufficientTruncationError):
        substitute(f, (s,))


def test_substitution_entry_points_check_their_input():
    R = PolyRing(F, ("x", "y"))
    f = parse_poly("x + y", R)
    t = ValuedSeries.monomial(F, 1)
    for call, message in (
        (lambda: substitute("x + y", (t, t)), "expected a polynomial"),
        (lambda: substitute(f, ()), "empty substitution"),
        (lambda: substitute(f, (t, ValuedSeries.monomial(F, 1, mode="hahn"))),
         "cannot mix puiseux and hahn series"),
        (lambda: substitute(f, (t, ValuedSeries.monomial(NumberField(), 1))),
         "series live over different fields"),
        (lambda: substitute(f, {0: t}), "no series assigned to variable index 1"),
        (lambda: poly_to_series_coeffs("x + y", 1, {0: t}), "expected a polynomial"),
        (lambda: poly_to_series_coeffs(f, 1, {}), "empty substitution"),
    ):
        with pytest.raises(UsageError) as info:
            call()
        assert str(info.value) == message


def test_terms_at_or_past_truncation_are_dropped():
    s = _s([(1, 1), (4, 2), (5, 9)], truncation=4)
    assert s.terms == ((ValueScalar(1), Fraction(1)),)
    assert s.coefficient(4) is None


def test_zero_coefficients_cancel():
    s = _s([(1, 1), (1, -1), (2, 5)])
    assert s.terms == ((ValueScalar(2), Fraction(5)),)


def _random_series(rng, field=F, mode="puiseux"):
    denom = rng.choice([1, 1, 2, 3])
    terms = []
    for _ in range(rng.randint(0, 4)):
        num = rng.randint(0, 12)
        c = rng.randint(-6, 6)
        if c:
            terms.append((Fraction(num, denom), Fraction(c)))
    trunc = INF if rng.random() < 0.3 else ValueScalar(Fraction(rng.randint(8, 20), denom))
    return ValuedSeries(field, terms, trunc, mode)


def test_valuation_axioms_random():
    rng = random.Random(77)
    for _ in range(500):
        a = _random_series(rng)
        b = _random_series(rng)
        va, vb = a.valuation(), b.valuation()
        if isinstance(va, AtLeast) or isinstance(vb, AtLeast):
            continue
        prod = a * b
        vp = prod.valuation()
        if va is INF or vb is INF:
            expected = INF
        else:
            expected = va + vb
        if expected is INF:
            assert vp is INF or isinstance(vp, AtLeast)
        elif isinstance(vp, AtLeast):
            # the product's lead cancelled out of the window: impossible
            # for a true product of nonzero leads
            raise AssertionError("exact leads must multiply")
        else:
            assert vp == expected
        total = a + b
        vs = total.valuation()
        if va is INF and vb is INF:
            assert vs is INF
            continue
        lo = min(va, vb)
        assert valuation_at_least(vs, lo)


def test_round_trip_text():
    rng = random.Random(311)
    for _ in range(100):
        s = _random_series(rng)
        text = series_str(s)
        back = parse_series(text, F, mode="puiseux")
        assert back == s, text


def test_round_trip_hahn_text():
    terms = [
        (ValueScalar(0, 1, 2), Fraction(1)),
        (ValueScalar(2, 0, 2), Fraction(-3, 2)),
    ]
    s = ValuedSeries(F, terms, ValueScalar(5, 1, 2), "hahn")
    text = series_str(s)
    back = parse_series(text, F, mode="hahn", d=2)
    assert back == s
