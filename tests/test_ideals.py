"""Standard and Groebner bases, ideal predicates, torus witness points."""

import random
from fractions import Fraction
from itertools import combinations

import pytest

from troplift import ideals
from troplift.errors import InternalInvariantError, UsageError
from troplift.ideals import (
    contains_monomial,
    dimension,
    divide,
    eliminate,
    ideal_member,
    ideal_quotient,
    ideals_equal,
    lead_records,
    normal_form,
    presentation,
    saturate,
    spoly,
    torus_point,
)
from troplift.parsing import parse_poly
from troplift.polyring import (
    OrderDescriptor,
    PolyRing,
    expo_divides,
    inject,
    leading_term,
    substitute_scalars,
)
from troplift.scalars import NumberField, ValueScalar, as_field_element


def _ring(*names):
    return PolyRing(NumberField(), names)


def _p(ring, text):
    return parse_poly(text, ring)


def _ideal(ring, texts, mode="global", w=None):
    return presentation(ring, [_p(ring, t) for t in texts], mode, w)


def test_standard_basis_principal():
    R = _ring("x", "y")
    I = _ideal(R, ["x"])
    assert [str(g) for g in map(repr, I.standard_basis())] is not None
    basis = I.standard_basis()
    assert len(basis) == 1 and basis[0] == _p(R, "x")


def test_standard_basis_linear_pair():
    R = _ring("x", "y")
    I = _ideal(R, ["x + y", "x - y"])
    basis = I.standard_basis()
    assert ideals_equal(I, _ideal(R, ["x", "y"]))
    order = I.order
    for f, g in combinations(basis, 2):
        assert normal_form(spoly(f, g, order), basis, order).is_zero


def test_standard_basis_local_example():
    R = _ring("x", "y")
    w = (ValueScalar(1), ValueScalar(1))
    I = _ideal(R, ["x + y", "x - y^2"], "local", w)
    from troplift.valfan import initial_ideal

    data = initial_ideal(I, w)
    target = presentation(R, [_p(R, "x"), _p(R, "y")], "global")
    got = presentation(R, list(data.generators), "global")
    assert ideals_equal(got, target)


def test_normal_form_examples():
    R = _ring("x", "y")
    glob = OrderDescriptor((ValueScalar(0), ValueScalar(0)), "global")
    assert normal_form(_p(R, "x + y"), [_p(R, "x"), _p(R, "y")], glob).is_zero
    assert normal_form(_p(R, "x^2"), [_p(R, "y")], glob) == _p(R, "x^2")
    local = OrderDescriptor((ValueScalar(1), ValueScalar(1)), "local")
    r = normal_form(_p(R, "x - y"), [_p(R, "x - y - y^2")], local)
    assert r == _p(R, "y^2")


def test_normal_form_idempotent_and_membership():
    R = _ring("x", "y", "z")
    rng = random.Random(31)
    I = _ideal(R, ["x*y - z^2", "x + z"])
    basis = I.standard_basis()
    for _ in range(40):
        mono = tuple(rng.randint(0, 2) for _ in range(3))
        f = R.from_terms([(mono, Fraction(rng.randint(-4, 4) or 1))])
        g = f + basis[0] * R.var(rng.randint(0, 2))
        r = normal_form(g, basis, I.order)
        assert normal_form(r, basis, I.order) == r
        assert ideal_member(g - r, I)


def _random_poly(R, rng, monomials):
    terms = [(m, Fraction(rng.randint(-5, 5), rng.randint(1, 3))) for m in monomials]
    return R.from_terms(terms)


def _check_division(f, divisors, order):
    records = lead_records(divisors, order)
    quots, rem = divide(f, records, order)
    assert len(quots) == len(records)
    total = rem
    for q, (d, _, _, _) in zip(quots, records):
        total = total + q * d
    assert total == f
    leads = [leading_term(d, order)[0] for d in divisors if not d.is_zero]
    for m in rem.coeffs:
        assert not any(expo_divides(lm, m) for lm in leads)
    return quots, rem


def test_divide_random_global():
    rng = random.Random(71)
    R = _ring("x", "y", "z")
    order = OrderDescriptor((ValueScalar(1), ValueScalar(0), ValueScalar(2)), "global")
    for _ in range(40):
        def monos(k, top):
            return [tuple(rng.randint(0, top) for _ in range(3)) for _ in range(k)]

        f = _random_poly(R, rng, monos(rng.randint(1, 6), 4))
        divisors = [_random_poly(R, rng, monos(rng.randint(1, 3), 2)) for _ in range(3)]
        _check_division(f, divisors, order)


def test_divide_weight_homogeneous_local():
    rng = random.Random(73)
    R = _ring("x", "y")
    w = (ValueScalar(1), ValueScalar(2))
    order = OrderDescriptor(w, "local")

    def level(k):
        # the monomials x^a y^b with a + 2b = k
        return [(k - 2 * b, b) for b in range(k // 2 + 1)]

    for _ in range(40):
        f = _random_poly(R, rng, level(rng.randint(2, 8)))
        divisors = [_random_poly(R, rng, level(rng.randint(1, 4))) for _ in range(2)]
        _check_division(f, divisors, order)


def test_divide_exact_returns_quotient():
    R = _ring("x", "y")
    order = OrderDescriptor((ValueScalar(0), ValueScalar(0)), "global")
    d = _p(R, "x^2 - 3*x*y + y")
    q0 = _p(R, "2*x*y^2 - y + 1/2")
    (q,), rem = _check_division(q0 * d, [d], order)
    assert rem.is_zero
    assert q == q0


def test_ideal_quotient_rejects_inexact_division(monkeypatch):
    R = _ring("x", "y")
    # an intersection with (x) holding y, which x does not divide
    monkeypatch.setattr(
        ideals, "eliminate", lambda ring, gens, idx: [inject(_p(R, "y"), ring, [0, 1])]
    )
    with pytest.raises(InternalInvariantError, match="inexact division"):
        ideal_quotient(_ideal(R, ["x*y"]), _p(R, "x"))


def test_saturate_examples():
    R = _ring("x", "y")
    assert ideals_equal(
        saturate(_ideal(R, ["x*y"]), _p(R, "x")), _ideal(R, ["y"])
    )
    sat = saturate(_ideal(R, ["x^2"]), _p(R, "x"))
    assert sat.is_unit_ideal()
    assert ideals_equal(
        saturate(_ideal(R, ["x + y"]), _p(R, "x*y")), _ideal(R, ["x + y"])
    )


def test_contains_monomial_examples():
    R = _ring("x", "y")
    flag, _ = contains_monomial(_ideal(R, ["x + y"]))
    assert not flag
    flag, witness = contains_monomial(_ideal(R, ["x + y", "x - y"]))
    assert flag
    assert witness is not None
    assert len(witness.coeffs) == 1
    assert ideal_member(witness, _ideal(R, ["x + y", "x - y"]))
    flag, _ = contains_monomial(_ideal(R, ["y^2 - x^2"]))
    assert not flag


def test_ideal_quotient_examples():
    R = _ring("x", "y")
    assert ideals_equal(
        ideal_quotient(_ideal(R, ["x*y"]), _p(R, "x")), _ideal(R, ["y"])
    )
    R3 = _ring("x", "y", "z")
    assert ideals_equal(
        ideal_quotient(_ideal(R3, ["x + y"]), _p(R3, "z")),
        _ideal(R3, ["x + y"]),
    )
    assert ideals_equal(
        ideal_quotient(_ideal(R, ["x^2", "x*y"]), _p(R, "x")),
        _ideal(R, ["x", "y"]),
    )


def test_dimension_examples():
    R = _ring("x1", "x2", "x3")
    assert dimension(presentation(R, [], "global")) == 3
    assert dimension(_ideal(R, ["x1 + x2 + x3"])) == 2
    assert dimension(_ideal(R, ["x1 + x2 + x3", "x2 - x1"])) == 1
    with pytest.raises(UsageError):
        dimension(_ideal(R, ["x1 + 1", "x1"]))


def _brute_dimension(I):
    """Stanley-Reisner dimension of the leading-term ideal."""
    basis = I.standard_basis()
    n = I.ring.nvars()
    if not basis:
        return n
    leads = [leading_term(g, I.order)[0] for g in basis]
    best = 0
    for size in range(n, -1, -1):
        for S in combinations(range(n), size):
            keep = set(S)
            independent = True
            for m in leads:
                if all(e == 0 or i in keep for i, e in enumerate(m)):
                    independent = False
                    break
            if independent:
                return size
    return best


def test_dimension_matches_brute_force():
    R2 = _ring("x", "y")
    R3 = _ring("x", "y", "z")
    corpus = [
        _ideal(R2, ["y^2 - x^3"]),
        _ideal(R2, ["x*y"]),
        _ideal(R2, ["x + y", "x - y"]),
        _ideal(R3, ["x*y - z^2"]),
        _ideal(R3, ["x + y + z", "x - z"]),
        _ideal(R3, ["x + y + z", "x*y - z^2"]),
    ]
    for I in corpus:
        assert dimension(I) == _brute_dimension(I)


def test_eliminate_basic():
    R = _ring("x", "y", "z")
    out = eliminate(R, [_p(R, "x - y"), _p(R, "y - z")], [1])
    target = _ideal(R, ["x - z"])
    got = presentation(R, list(out), "global")
    assert ideals_equal(got, target)
    for g in out:
        assert all(m[1] == 0 for m in g.coeffs)


def test_torus_point_linear_example():
    R = _ring("x1", "x2", "x3")
    J = _ideal(R, ["x1 + x2 + x3"])
    witness = torus_point(J, seed=0)
    assert sorted(witness.point) == [Fraction(-2), Fraction(1), Fraction(1)]
    assert sum(witness.point) == 0
    repeat = torus_point(J, seed=0)
    assert repeat.point == witness.point


def test_torus_point_simple_examples():
    R = _ring("x", "y")
    w1 = torus_point(_ideal(R, ["x - y"]), seed=0)
    assert w1.point == (Fraction(1), Fraction(1))
    w2 = torus_point(_ideal(R, ["y^2 - x^3"]), seed=0)
    assert w2.point == (Fraction(1), Fraction(1))


def test_torus_point_vanishes_and_nonzero():
    R = _ring("x", "y", "z")
    corpus = [
        _ideal(R, ["x*y - z^2"]),
        _ideal(R, ["x + y + z", "x*y - z^2"]),
        _ideal(R, ["x + y + 2*z"]),
    ]
    for J in corpus:
        witness = torus_point(J, seed=3)
        field = witness.field
        zero = as_field_element(field, Fraction(0))
        for c in witness.point:
            assert as_field_element(field, c) != zero
        for g in J.generators:
            value = zero
            for mono, coeff in g.coeffs.items():
                term = as_field_element(field, coeff)
                for i, e in enumerate(mono):
                    for _ in range(e):
                        term = term * as_field_element(field, witness.point[i])
                value = value + term
            assert value == zero


def test_torus_point_respects_monomial_freeness():
    R = _ring("x", "y")
    with pytest.raises(UsageError):
        torus_point(_ideal(R, ["x*y"]))


def _random_ideal(R, rng, count=2, terms=3, deg=2):
    gens = []
    for _ in range(count):
        entries = {}
        for _ in range(terms):
            mono = tuple(rng.randint(0, deg) for _ in range(R.nvars()))
            c = rng.randint(-4, 4)
            if c:
                entries[mono] = Fraction(c)
        if entries:
            gens.append(R.from_terms(list(entries.items())))
    if not gens:
        gens = [R.var(0)]
    return presentation(R, gens, "global")


def test_buchberger_criterion_random():
    rng = random.Random(19)
    R = _ring("x", "y", "z")
    for _ in range(25):
        I = _random_ideal(R, rng)
        if I.is_unit_ideal():
            continue
        basis = I.standard_basis()
        for f, g in combinations(basis, 2):
            assert normal_form(spoly(f, g, I.order), basis, I.order).is_zero


def test_groebner_stability_under_variable_extension():
    """A basis stays a basis after adding fresh variables."""
    rng = random.Random(47)
    RX = _ring("x1", "x2")
    for _ in range(20):
        I = _random_ideal(RX, rng)
        if I.is_unit_ideal():
            continue
        basis = I.standard_basis()
        big = PolyRing(RX.field, ("x1", "x2", "y1", "y2"))
        lifted = [inject(g, big, [0, 1]) for g in basis]
        order = OrderDescriptor((ValueScalar(0),) * 4, "global")
        for f, g in combinations(lifted, 2):
            assert normal_form(spoly(f, g, order), lifted, order).is_zero


def test_product_equals_intersection_for_disjoint_blocks():
    """(I x 1) * (1 x J) = (I x 1) meet (1 x J) for disjoint variables."""
    rng = random.Random(53)
    pairs = 0
    while pairs < 20:
        RX = _ring("x1", "x2")
        RY = _ring("y1", "y2")
        I = _random_ideal(RX, rng, count=1)
        J = _random_ideal(RY, rng, count=1)
        if I.is_unit_ideal() or J.is_unit_ideal():
            continue
        field = NumberField()
        big = PolyRing(field, ("t", "x1", "x2", "y1", "y2"))
        FX = [inject(g, big, [1, 2]) for g in I.generators]
        FY = [inject(g, big, [3, 4]) for g in J.generators]
        product = [f * g for f in FX for g in FY]
        t = big.var(0)
        one = big.from_terms([((0, 0, 0, 0, 0), Fraction(1))])
        mix = [t * f for f in FX] + [(one - t) * g for g in FY]
        inter = eliminate(big, mix, [0])
        lhs = presentation(big, list(inter), "global")
        rhs = presentation(big, product, "global")
        assert ideals_equal(lhs, rhs)
        pairs += 1
