"""Polynomials, weight orders, initial forms."""

import random
from fractions import Fraction

import pytest

from troplift.errors import UsageError
from troplift.ideals import IdealPresentation, presentation
from troplift.linalg import primitive_row
from troplift.parsing import parse_poly
from troplift.polyring import (
    INF,
    OrderDescriptor,
    PolyRing,
    extend,
    initial_form,
    move,
    poly_str,
    restrict,
    w_order,
    wdot,
)
from troplift.scalars import NumberField, ValueScalar


def _ring(*names):
    return PolyRing(NumberField(), names)


def _p(ring, text):
    return parse_poly(text, ring)


def test_w_order_examples():
    R = _ring("x", "y")
    f = _p(R, "y^2 - x^3")
    assert w_order(f, (ValueScalar(2), ValueScalar(3))) == ValueScalar(6)
    assert w_order(R.zero(), (ValueScalar(2), ValueScalar(3))) is INF
    assert w_order(_p(R, "x + y"), (ValueScalar(1), ValueScalar(2))) == ValueScalar(1)


def test_w_order_dimension_mismatch():
    R = _ring("x", "y")
    with pytest.raises(UsageError):
        w_order(_p(R, "x"), (ValueScalar(1),))


def test_initial_form_examples():
    R = _ring("x", "y")
    f = _p(R, "y^2 - x^3")
    assert initial_form(f, (2, 3)) == f
    assert initial_form(f, (1, 1)) == _p(R, "y^2")
    assert initial_form(_p(R, "x + y"), (1, 2)) == _p(R, "x")
    assert initial_form(R.zero(), (1, 1)).is_zero


def test_initial_form_irrational_weight():
    R = _ring("x", "y")
    f = _p(R, "x^2 - y")
    # w = (sqrt(2), 2*sqrt(2)) puts both terms at level 2*sqrt(2)
    w = (ValueScalar(0, 1, 2), ValueScalar(0, 2, 2))
    assert initial_form(f, w) == f


def test_compare_monomials_examples():
    """Monomials compare by OrderDescriptor.key: the larger key leads."""
    local = OrderDescriptor((ValueScalar(1), ValueScalar(2)), "local")
    # x leads y in local mode: the smaller w-order leads
    assert local.key((1, 0)) > local.key((0, 1))
    assert local.key((1, 0)) == local.key((1, 0))
    # x and y^2 share the level 2; the tie-break still tells them apart
    tie = OrderDescriptor((ValueScalar(2), ValueScalar(1)), "local")
    assert tie.key((1, 0)) != tie.key((0, 2))


def test_compare_monomials_total_order():
    """The keys of distinct monomials differ, so ranking by key is a total
    order on monomials, and in each mode a lower weight level never loses
    to a higher one in the wrong direction."""
    rng = random.Random(5)
    weights = (ValueScalar(2), ValueScalar(1), ValueScalar(1))
    local = OrderDescriptor(weights, "local")
    glob = OrderDescriptor((ValueScalar(0),) * 3, "global")
    monos = {tuple(rng.randint(0, 4) for _ in range(3)) for _ in range(40)}
    for order in (local, glob):
        assert len({order.key(m) for m in monos}) == len(monos)
    level = {m: wdot(weights, m) for m in monos}
    for a in monos:
        for b in monos:
            if level[a] < level[b]:
                assert local.key(a) > local.key(b)
            if sum(a) < sum(b):
                assert glob.key(a) < glob.key(b)


def _reference_key(order, m):
    """The order key spelled out with the exact weight dot product."""
    w = wdot(order.weights, m)
    rev = tuple(-e for e in reversed(m))
    if order.mode == "local":
        return (-w, -sum(m), rev)
    return (w, sum(m), rev)


def _random_weight(rng, kind, mode):
    while True:
        if kind == "int":
            w = ValueScalar(rng.randint(0, 4))
        elif kind == "fraction":
            w = ValueScalar(Fraction(rng.randint(0, 9), rng.randint(1, 6)))
        else:
            w = ValueScalar(
                Fraction(rng.randint(-3, 4), rng.randint(1, 3)),
                Fraction(rng.randint(-2, 3), rng.randint(1, 2)),
                kind,
            )
        if w.sign() > 0 or (mode == "global" and w.sign() == 0):
            return w


def test_order_key_sorts_as_exact_weight_dot():
    """Integer weight levels sort monomials exactly as the value-scalar dot
    product does, for rational and for a+b*sqrt(d) weights, in both modes."""
    rng = random.Random(83)
    for trial in range(120):
        n = rng.randint(1, 4)
        mode = ("local", "global")[trial % 2]
        kind = ("int", "fraction", 2, 3, 5)[trial % 5]
        # mixed vectors: some entries rational, the rest of the chosen kind
        weights = [
            _random_weight(rng, kind if rng.random() < 0.7 else "fraction", mode)
            for _ in range(n)
        ]
        if trial % 10 == 1:
            weights = [ValueScalar(0)] * n
        monos = {tuple(rng.randint(0, 4) for _ in range(n)) for _ in range(40)}
        order = OrderDescriptor(weights, mode)
        expected = sorted(monos, key=lambda m: _reference_key(order, m))
        assert sorted(monos, key=order.key) == expected, (weights, mode)
        # the memo answers the same on a second pass and for a fresh order
        assert sorted(monos, key=order.key) == expected
        fresh = OrderDescriptor(weights, mode)
        assert sorted(reversed(expected), key=fresh.key) == expected
        # a key's first entry is a positive multiple of <w, m>, negated in
        # local mode: same signs of differences
        sign = -1 if mode == "local" else 1
        for a, b in zip(expected, expected[1:]):
            d_level = sign * (fresh.key(a)[0] - fresh.key(b)[0])
            d_exact = wdot(weights, a) - wdot(weights, b)
            assert ValueScalar.of(d_level).sign() == d_exact.sign()


def test_primitive_row_and_integer_levels():
    assert primitive_row((Fraction(1, 2), Fraction(3, 4), 1)) == (2, 3, 4)
    assert primitive_row((-4, 6, 0)) == (-2, 3, 0)
    assert primitive_row((0, 0, 0)) == (0, 0, 0)
    # the default global order keeps all-zero weights: every level is 0
    assert OrderDescriptor((0, 0, 0), "global").key((3, 1, 2))[0] == 0
    half = OrderDescriptor((Fraction(1, 2), Fraction(3, 2)), "local")
    assert half.key((1, 1))[0] == -4  # <(1, 3), (1, 1)>, negated locally


def _random_poly(R, rng, terms=4, deg=3):
    entries = {}
    for _ in range(terms):
        mono = tuple(rng.randint(0, deg) for _ in range(R.nvars()))
        coeff = Fraction(rng.randint(-6, 6))
        if coeff:
            entries[mono] = coeff
    return R.from_terms(list(entries.items()))


def test_w_order_multiplicative_on_products():
    R = _ring("x", "y", "z")
    rng = random.Random(17)
    w = (ValueScalar(1), ValueScalar(2), ValueScalar(Fraction(3, 2)))
    checked = 0
    for _ in range(500):
        f = _random_poly(R, rng)
        g = _random_poly(R, rng)
        if f.is_zero or g.is_zero:
            continue
        prod_init = initial_form(f, w) * initial_form(g, w)
        assert not prod_init.is_zero
        assert w_order(f * g, w) == w_order(f, w) + w_order(g, w)
        assert initial_form(f * g, w) == prod_init
        checked += 1
    assert checked >= 400


def test_w_order_subadditive_on_sums():
    R = _ring("x", "y")
    rng = random.Random(29)
    w = (ValueScalar(2), ValueScalar(3))
    for _ in range(300):
        f = _random_poly(R, rng)
        g = _random_poly(R, rng)
        s = f + g
        if s.is_zero:
            continue
        lo = min(w_order(f, w), w_order(g, w), key=lambda v: (v is INF, v if v is not INF else 0))
        if lo is INF:
            assert w_order(s, w) is INF
            continue
        assert w_order(s, w) >= lo
        fi = initial_form(f, w)
        gi = initial_form(g, w)
        if w_order(f, w) == w_order(g, w) and not (fi + gi).is_zero:
            assert w_order(s, w) == lo
        elif w_order(f, w) != w_order(g, w):
            assert w_order(s, w) == lo


def test_initial_form_idempotent():
    R = _ring("x", "y")
    rng = random.Random(3)
    w = (ValueScalar(1), ValueScalar(1))
    for _ in range(100):
        f = _random_poly(R, rng)
        form = initial_form(f, w)
        assert initial_form(form, w) == form


def test_poly_text_round_trip():
    R = _ring("x", "y", "z")
    rng = random.Random(13)
    for _ in range(100):
        f = _random_poly(R, rng, terms=5)
        assert parse_poly(poly_str(f), R) == f


def test_zero_coefficients_never_stored():
    R = _ring("x", "y")
    f = _p(R, "x + y") - _p(R, "y")
    assert set(f.coeffs) == {(1, 0)}
    g = _p(R, "x") - _p(R, "x")
    assert g.is_zero and not g.coeffs


def test_integer_levels_match_the_exact_weight_dot():
    """initial_form and w_order, on int levels for rational weights, agree
    with the exact dot product for zero, rational and sqrt(2) weights."""
    R = _ring("x", "y", "z")
    rng = random.Random(29)
    for trial in range(150):
        kind = ("zero", "int", "fraction", 2)[trial % 4]
        if kind == "zero":
            w = (0, 0, 0)
        else:
            w = tuple(_random_weight(rng, kind, "local") for _ in range(3))
        f = _random_poly(R, rng, terms=5)
        levels = {m: wdot([ValueScalar.of(x) for x in w], m) for m in f.coeffs}
        low = min(levels.values(), default=INF)
        assert w_order(f, w) == low
        want = {m: c for m, c in f.coeffs.items() if levels[m] == low}
        assert initial_form(f, w).coeffs == want


def test_presentations_of_a_ring_share_one_order():
    R = _ring("x", "y")
    gens = [_p(R, "x + y")]
    assert presentation(R, gens, "global").order is presentation(R, gens, "global").order
    w = (Fraction(1, 2), 3)
    local = presentation(R, gens, "local", w)
    assert local.order is R.order((ValueScalar(Fraction(1, 2)), ValueScalar(3)), "local")
    # each ring holds its own orders
    assert _ring("x", "y").order((0, 0), "global") is not R.order((0, 0), "global")


def test_local_at_equal_weights_returns_self():
    R = _ring("x", "y")
    gens = [_p(R, "y^2 - x^3")]
    I = presentation(R, gens, "local", (2, 3))
    assert I.local_at((ValueScalar(2), ValueScalar(3))) is I
    # an order built directly, not through the ring, still counts as equal
    J = IdealPresentation(R, gens, OrderDescriptor((2, 3), "local"))
    assert J.order is not R.order((2, 3), "local")
    assert J.local_at((2, 3)) is J
    # a proportional weight gives a new presentation on the ring's order
    K = J.local_at((4, 6))
    assert K is not J and K.order is R.order((4, 6), "local")
    assert presentation(R, gens, "global").local_at((2, 3)).order is I.order


def test_ring_maps():
    R = _ring("x", "y", "z")
    S = PolyRing(R.field, ("z", "x"))
    assert move(_p(R, "x^2*z - 3*z"), S, [1, None, 0]) == _p(S, "x^2*z - 3*z")
    with pytest.raises(UsageError, match="variable y still occurs; cannot project"):
        move(_p(R, "x*z + y"), S, [1, None, 0])
    assert extend(R, "s_").vars == ("x", "y", "z", "s_")
    assert extend(_ring("s_", "x", "_s_"), "s_").vars == ("s_", "x", "_s_", "__s_")
    small, images, var_map = restrict(
        [_p(R, "x*y + y^2*z - 2"), _p(R, "y")], R, {1: Fraction(2)}
    )
    assert small.vars == ("x", "z") and var_map == [0, None, 1]
    assert images == [_p(small, "2*x + 4*z - 2"), small.constant(2)]
