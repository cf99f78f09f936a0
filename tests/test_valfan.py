"""Initial ideals, coset valuations, Groebner cones, tensor certificates."""

import random
from fractions import Fraction

import pytest

from test_ideals import _mora_nf
from troplift import ideals
from troplift.errors import UsageError
from troplift.ideals import ideal_member, ideal_quotient, ideals_equal, presentation
from troplift.parsing import parse_poly
from troplift.polyring import INF, PolyRing, initial_form, poly_str, w_order
from troplift.scalars import NumberField, ValueScalar
from troplift.valfan import (
    CosetValuationHandle,
    _additivity,
    groebner_cone,
    init_additivity_check,
    initial_ideal,
    tensor_combine,
)


def _ring(*names):
    return PolyRing(NumberField(), names)


def _p(ring, text):
    return parse_poly(text, ring)


def _ideal(ring, texts, w):
    return presentation(ring, [_p(ring, t) for t in texts], "local", w)


def _as_global(ring, gens):
    return presentation(ring, list(gens), "global")


def test_initial_ideal_examples():
    R = _ring("x", "y")
    cusp = _ideal(R, ["y^2 - x^3"], (2, 3))
    data = initial_ideal(cusp, (2, 3))
    assert list(data.generators) == [_p(R, "y^2 - x^3")]
    assert data.is_monomial_free()

    data11 = initial_ideal(_ideal(R, ["y^2 - x^3"], (1, 1)), (1, 1))
    assert list(data11.generators) == [_p(R, "y^2")]
    assert not data11.is_monomial_free()

    pair = _ideal(R, ["x + y", "x - y^2"], (1, 1))
    datap = initial_ideal(pair, (1, 1))
    assert ideals_equal(
        _as_global(R, datap.generators), _as_global(R, [_p(R, "x"), _p(R, "y")])
    )


def test_initial_data_generators_are_homogeneous():
    from troplift.polyring import initial_form

    R = _ring("x", "y", "z")
    I = _ideal(R, ["x + y + z", "x*y - z^2"], (1, 1, 1))
    data = initial_ideal(I, (1, 1, 1))
    for g in data.generators:
        assert initial_form(g, data.weights) == g


def test_coset_valuation_examples():
    R = _ring("x", "y")
    I = _ideal(R, ["x - y - y^2"], (1, 1))
    h = CosetValuationHandle(I, (1, 1))
    assert h.monomial_free
    assert h.value(_p(R, "x - y")) == ValueScalar(2)
    assert h.value(_p(R, "x - y - y^2")) is INF
    assert h.value(_p(R, "y")) == ValueScalar(1)


def test_coset_valuation_constants_are_zero():
    R = _ring("x", "y")
    I = _ideal(R, ["y^2 - x^3"], (2, 3))
    h = CosetValuationHandle(I, (2, 3))
    assert h.value(_p(R, "3")) == ValueScalar(0)
    assert h.value(_p(R, "x + 5")) == ValueScalar(0)


def test_coset_valuation_refuses_monomial_initial():
    R = _ring("x", "y")
    I = _ideal(R, ["x + y^2"], (1, 1))
    h = CosetValuationHandle(I, (1, 1))
    assert not h.monomial_free
    with pytest.raises(UsageError, match="not a valuation"):
        h.value(_p(R, "y"))


def _random_poly(R, rng, terms=3, deg=2):
    entries = {}
    for _ in range(terms):
        mono = tuple(rng.randint(0, deg) for _ in range(R.nvars()))
        c = rng.randint(-5, 5)
        if c:
            entries[mono] = Fraction(c)
    return R.from_terms(list(entries.items()))


_HANDLE_SPECS = [
    (("x", "y"), ["y^2 - x^3"], (2, 3)),
    (("x", "y"), ["y^2 - x^2 - x^3"], (1, 1)),
    (("x", "y"), ["x - y - y^2"], (1, 1)),
    (("x", "y", "z"), ["x + y + z"], (1, 1, 1)),
    (("x", "y", "z"), ["x*y - z^2"], (1, 1, 1)),
]


def test_coset_valuation_axioms():
    for names, texts, w in _HANDLE_SPECS:
        R = _ring(*names)
        I = _ideal(R, texts, w)
        h = CosetValuationHandle(I, w)
        assert h.monomial_free
        rng = random.Random("axioms:%s" % (texts,))
        for _ in range(200):
            g1 = _random_poly(R, rng)
            g2 = _random_poly(R, rng)
            v1 = h.value(g1)
            v2 = h.value(g2)
            # multiplicativity
            vp = h.value(g1 * g2)
            if v1 is INF or v2 is INF:
                assert vp is INF
            else:
                assert vp == v1 + v2
            # ultrametric inequality
            vs = h.value(g1 + g2)
            lo = min(v1, v2)
            assert vs >= lo
            # dominates the monomial pseudovaluation
            if not g1.is_zero:
                assert v1 >= w_order(g1, w)
            # +oo exactly on members
            assert (v1 is INF) == ideal_member(g1, I)


def _rewriting_value(handle, g):
    """Reference: rewrite the initial form of the running representative
    inside the initial ideal until it survives outside it."""
    order, basis = handle.ideal.order, handle.data.basis
    w = order.weights
    if _mora_nf(g, ideals.lead_records(basis, order), order).is_zero:
        return INF
    records = ideals.lead_records([initial_form(b, w) for b in basis], order)
    h = g
    for _ in range(64):
        quotients, remainder = ideals.divide(initial_form(h, w), records, order)
        if not remainder.is_zero:
            return w_order(h, w)
        for q, b in zip(quotients, basis):
            h = h - q * b
    raise AssertionError("rewriting did not reach a surviving initial form")


def test_coset_valuation_matches_initial_form_rewriting():
    rng = random.Random(5)
    weight_choices = [
        lambda: Fraction(rng.randint(1, 4), rng.randint(1, 3)),
        lambda: ValueScalar(rng.randint(1, 3), Fraction(rng.randint(-1, 2), 2), 2),
    ]
    r2 = ValueScalar(0, 1, 2)
    specs = _HANDLE_SPECS + [
        (("x", "y"), ["y^2 - x^2 - x^3"], (1 + r2 / 2, 1 + r2 / 2)),
        (("x", "y", "z"), ["x*y - z^2 + x^3"], (r2, 2 + r2, 1 + r2)),
    ]
    for _ in range(60):
        names = ("x", "y", "z")[: rng.randint(2, 3)]
        R = _ring(*names)
        w = tuple(rng.choice(weight_choices)() for _ in names)
        f = _random_poly(R, rng, terms=3, deg=3)
        if not f.is_zero and f.constant_term() == 0:
            specs.append((names, [str(f)], w))
    compared = members = 0
    for names, texts, w in specs:
        R = _ring(*names)
        h = CosetValuationHandle(_ideal(R, texts, w), w)
        if not h.monomial_free:
            continue
        f = _p(R, texts[0])
        for _ in range(15):
            g = _random_poly(R, rng)
            if rng.random() < 0.3:
                g = g * f + _random_poly(R, rng, terms=1, deg=3) * f
            expected = _rewriting_value(h, g)
            assert h.value(g) == expected, (texts, w, str(g))
            compared += 1
            members += expected is INF
    assert compared >= 100 and members >= 10


def test_groebner_cone_examples():
    R = _ring("x", "y")
    line = groebner_cone(_ideal(R, ["x + y"], (1, 1)), (1, 1))
    assert line.eq == ((1, -1),)
    assert set(line.ineq) == {(0, 1), (1, 0)}

    cusp = groebner_cone(_ideal(R, ["y^2 - x^3"], (2, 3)), (2, 3))
    assert cusp.eq == ((3, -2),)

    orthant = groebner_cone(_ideal(R, ["x"], (1, 2)), (1, 2))
    assert orthant.eq == ()
    assert set(orthant.ineq) == {(0, 1), (1, 0)}


def test_groebner_cone_contains_its_weight():
    R = _ring("x", "y", "z")
    w = (1, 1, 1)
    cone = groebner_cone(_ideal(R, ["x + y + z", "x*y - z^2"], w), w)
    assert cone.contains([ValueScalar(1)] * 3)
    sample = cone.interior_point()
    assert all(Fraction(x) > 0 for x in sample)


def test_groebner_cone_interior_invariance():
    specs = [
        (("x", "y"), ["y^2 - x^3"], (2, 3)),
        (("x", "y"), ["x + y"], (1, 1)),
        (("x", "y", "z"), ["x + y + z"], (1, 1, 1)),
        (("x", "y", "z"), ["x*y - z^2"], (2, 2, 2)),
    ]
    for names, texts, w in specs:
        R = _ring(*names)
        I = _ideal(R, texts, w)
        cone = groebner_cone(I, w)
        base = initial_ideal(I, w)
        rng = random.Random("interior:%s" % (texts,))
        samples = 0
        attempts = 0
        while samples < 10 and attempts < 200:
            attempts += 1
            point = cone.interior_point()
            # jitter inside the cone span: add small combinations of
            # equality-null directions by averaging with the original w
            lam = Fraction(rng.randint(1, 9), 10)
            cand = tuple(
                ValueScalar.of(a) * lam + ValueScalar.of(b) * (1 - lam)
                for a, b in zip(point, w)
            )
            if not cone.contains(cand):
                continue
            if any(x.sign() <= 0 for x in cand):
                continue
            other = initial_ideal(_ideal(R, texts, cand), cand)
            assert ideals_equal(
                _as_global(R, other.generators),
                _as_global(R, base.generators),
            )
            samples += 1
        assert samples == 10


def test_tensor_combine_examples():
    field = NumberField()
    RX = PolyRing(field, ("x1", "x2"))
    RY = PolyRing(field, ("y1", "y2"))
    I = presentation(RX, [_p(RX, "x1 + x2")], "local", (1, 1))
    J = presentation(RY, [_p(RY, "y1 + y2")], "local", (2, 2))
    combined, cert = tensor_combine(I, J, (1, 1), (2, 2))
    assert cert.initial_match and cert.ok()
    assert combined.ring.nvars() == 4
    names = combined.ring.vars
    assert names == ("x1", "x2", "y1", "y2")

    I2 = presentation(RX, [_p(RX, "x1 + x2^2")], "local", (2, 1))
    J2 = presentation(RY, [_p(RY, "y1 + y2")], "local", (1, 1))
    combined2, cert2 = tensor_combine(I2, J2, (2, 1), (1, 1))
    assert cert2.initial_match and cert2.ok()
    big = combined2.ring
    expected = presentation(
        big, [_p(big, "x1 + x2^2"), _p(big, "y1 + y2")], "global"
    )
    got = presentation(big, list(combined2.generators), "global")
    assert ideals_equal(got, expected)


def test_tensor_combine_rejects_shared_variables():
    field = NumberField()
    RX = PolyRing(field, ("x", "y"))
    RY = PolyRing(field, ("y", "z"))
    I = presentation(RX, [_p(RX, "x + y")], "local", (1, 1))
    J = presentation(RY, [_p(RY, "y + z")], "local", (1, 1))
    with pytest.raises(UsageError):
        tensor_combine(I, J, (1, 1), (1, 1))


def test_tensor_random_corpus_certificates():
    rng = random.Random(59)
    done = 0
    while done < 20:
        field = NumberField()
        nx = rng.randint(1, 3)
        ny = rng.randint(1, 3)
        RX = PolyRing(field, tuple("x%d" % i for i in range(nx)))
        RY = PolyRing(field, tuple("y%d" % i for i in range(ny)))
        fx = _random_local(RX, rng)
        fy = _random_local(RY, rng)
        if fx is None or fy is None:
            continue
        w1 = tuple(ValueScalar(rng.randint(1, 3)) for _ in range(nx))
        w2 = tuple(ValueScalar(rng.randint(1, 3)) for _ in range(ny))
        I = presentation(RX, [fx], "local", w1)
        J = presentation(RY, [fy], "local", w2)
        _, cert = tensor_combine(I, J, w1, w2)
        assert cert.initial_match
        if cert.left_monomial_free and cert.right_monomial_free:
            assert cert.combined_monomial_free
        done += 1


def _random_local(R, rng, terms=3, deg=3):
    entries = {}
    for _ in range(terms):
        mono = tuple(rng.randint(0, deg) for _ in range(R.nvars()))
        if all(e == 0 for e in mono):
            continue
        c = rng.randint(-4, 4)
        if c:
            entries[mono] = Fraction(c)
    if not entries:
        return None
    return R.from_terms(list(entries.items()))


def test_init_additivity_examples():
    R = _ring("x1", "x2", "x3")
    I = _ideal(R, ["x1 + x2 + x3"], (1, 1, 1))
    assert init_additivity_check(I, _p(R, "x2 - x1"), (1, 1, 1))

    zero = presentation(R, [], "local", (1, 1, 1))
    assert init_additivity_check(zero, _p(R, "x3 - x2"), (1, 1, 1))

    R2 = _ring("x", "y")
    cusp = _ideal(R2, ["y^2 - x^3"], (2, 3))
    assert init_additivity_check(cusp, _p(R2, "x"), (2, 3))


def test_init_additivity_rejects_zerodivisor():
    R = _ring("x", "y")
    I = _ideal(R, ["x*y"], (1, 1))
    with pytest.raises(UsageError, match="zerodivisor|nonzerodivisor"):
        init_additivity_check(I, _p(R, "x"), (1, 1))


def test_init_additivity_rejects_inhomogeneous():
    R = _ring("x", "y")
    I = _ideal(R, ["x + y"], (1, 1))
    with pytest.raises(UsageError):
        init_additivity_check(I, _p(R, "x + y^2"), (1, 1))


def _lemma(ring, texts, f, w):
    """_additivity on in_w(I) and I + (f), with the initial generators of
    I + (f) as text."""
    I = _ideal(ring, texts, w)
    f = _p(ring, f)
    initial = initial_ideal(I, w).presentation
    nonzerodivisor, data, equal = _additivity(initial, I.with_extra([f]), f, w)
    gens = None if data is None else [poly_str(g) for g in data.generators]
    return nonzerodivisor, gens, equal


def test_additivity_lemma_on_nonzerodivisors():
    R = _ring("x1", "x2", "x3")
    assert _lemma(R, ["x1 + x2 + x3"], "x2 - x1", (1, 1, 1)) == (
        True, ["x1 + 1/2*x3", "x2 + 1/2*x3"], True
    )
    assert _lemma(R, [], "x3 - x2", (1, 1, 1)) == (True, ["x2 - x3"], True)
    assert _lemma(_ring("x", "y"), ["y^2 - x^3"], "x", (2, 3)) == (
        True, ["x", "y^2"], True
    )


def test_additivity_lemma_on_a_zerodivisor():
    assert _lemma(_ring("x", "y"), ["x*y"], "x", (1, 1)) == (False, None, False)


def test_additivity_lemma_needs_a_homogeneous_cut():
    """x + y^2 is no zerodivisor modulo (x + y), but it is not homogeneous:
    y - 1 is a unit, so in_w(I + (f)) = (x, y) while (x + y, x + y^2) has
    the point (-1, 1)."""
    assert _lemma(_ring("x", "y"), ["x + y"], "x + y^2", (1, 1)) == (
        True, ["x", "y"], False
    )


def test_additivity_checks_the_inclusion_that_can_fail():
    """On seeded ideals, positive weights and w-homogeneous f, in_w(I) lies
    in in_w(I) : f and in_w(I) + (f) in in_w(I + (f)), and _additivity, which
    checks only the other inclusions, agrees with equality both ways."""
    rng = random.Random(67)
    outcomes = set()
    for _ in range(40):
        R = _ring(*"xyz"[: rng.choice((2, 3))])
        w = tuple(ValueScalar(rng.randint(1, 3)) for _ in range(R.nvars()))
        gens = [_random_local(R, rng, deg=2) for _ in range(2)]
        gens = [g for g in gens if g is not None]
        f = _random_local(R, rng, deg=2)
        if f is None:
            continue
        f = initial_form(f, w)
        I = presentation(R, gens, "local", w)
        initial = initial_ideal(I, w).presentation
        quotient = ideal_quotient(initial, f)
        data = initial_ideal(I.with_extra([f]), w)
        spanned = initial.with_extra([f])
        assert all(ideal_member(g, quotient) for g in initial.generators)
        assert all(ideal_member(g, data.presentation) for g in spanned.generators)
        nonzerodivisor = ideals_equal(quotient, initial)
        equal = nonzerodivisor and ideals_equal(data.presentation, spanned)
        got, got_data, got_equal = _additivity(initial, I.with_extra([f]), f, w)
        assert (got, got_equal) == (nonzerodivisor, equal)
        assert got_data is None if not got else got_data.generators == data.generators
        outcomes.add((nonzerodivisor, equal))
    # the lemma: a homogeneous nonzerodivisor always gives equality
    assert outcomes == {(False, False), (True, True)}


def test_initial_ideal_reuses_a_presentation_local_at_the_weight(monkeypatch):
    R = _ring("x", "y")
    I = _ideal(R, ["y^2 - x^3", "x*y^2 + y^3"], (2, 3))
    weights = []
    mora = ideals._mora_std

    def counting(gens, order):
        weights.append(order.weights)
        return mora(gens, order)

    monkeypatch.setattr(ideals, "_mora_std", counting)
    basis = I.standard_basis()
    assert len(weights) == 1
    assert I.local_at((2, 3)) is I
    data = initial_ideal(I, (2, 3))
    assert len(weights) == 1
    assert data.basis == basis
    # a proportional weight orders alike but is presented anew
    J = I.local_at((4, 6))
    assert J is not I and J.generators == I.generators
    initial_ideal(I, (4, 6))
    assert weights[1:] == [(ValueScalar(4), ValueScalar(6))]
    # so is a global presentation of the same generators
    G = _as_global(R, I.generators)
    assert G.local_at((2, 3)) is not G
