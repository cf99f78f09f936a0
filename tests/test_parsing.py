"""Text grammar round trips: scalars, weights, polynomials, series, files."""

import random
from fractions import Fraction

import pytest

from troplift.errors import UsageError
from troplift.parsing import (
    parse_generators,
    parse_ideal_text,
    parse_point,
    parse_poly,
    parse_query,
    parse_scalar,
    parse_series,
    parse_weights,
)
from troplift.polyring import INF, PolyRing, poly_str
from troplift.scalars import NumberField, ValueScalar, adjoin_root, scalar_str
from troplift.series import ValuedSeries, series_str


def parse_rational(text):
    """A rational number, such as "-7/2", in the scalar grammar."""
    value = parse_scalar(text)
    if value is INF or not value.is_rational:
        raise UsageError("not a rational number: %r" % text.strip())
    return value.a


def test_parse_rational():
    assert parse_rational("3") == Fraction(3)
    assert parse_rational("-7/2") == Fraction(-7, 2)
    assert parse_rational("+4/6") == Fraction(2, 3)
    for bad in ("", "x", "1.5", "1/0", "1//2", "2/", "/3"):
        with pytest.raises(UsageError):
            parse_rational(bad)


def test_parse_scalar_values():
    assert parse_scalar("5/3") == ValueScalar(Fraction(5, 3))
    assert parse_scalar("sqrt(2)") == ValueScalar(0, 1, 2)
    assert parse_scalar("1+sqrt(2)") == ValueScalar(1, 1, 2)
    assert parse_scalar("1/2+1/2*sqrt(2)") == ValueScalar(
        Fraction(1, 2), Fraction(1, 2), 2
    )
    assert parse_scalar("(1+sqrt(2))/2") == ValueScalar(
        Fraction(1, 2), Fraction(1, 2), 2
    )
    assert parse_scalar("1-sqrt(2)") == ValueScalar(1, -1, 2)
    assert parse_scalar("2*sqrt(3)", d=3) == ValueScalar(0, 2, 3)
    assert parse_scalar("inf") is INF


def test_parse_scalar_session_d_consistency():
    with pytest.raises(UsageError):
        parse_scalar("sqrt(3)", d=2)
    with pytest.raises(UsageError):
        parse_scalar("sqrt(2)+sqrt(3)")


def test_scalar_round_trip():
    rng = random.Random(808)
    for _ in range(120):
        a = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        b = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        x = ValueScalar(a, b, 2)
        assert parse_scalar(scalar_str(x)) == x


def test_sqrt_checks_its_radicand_once(monkeypatch):
    """sqrt(n) finds the squarefree part of n by trial division once; the
    scalar it builds does not run the constructor's squarefree check."""
    from troplift import scalars

    calls = []
    squarefree = scalars._squarefree
    monkeypatch.setattr(
        scalars, "_squarefree", lambda n: calls.append(n) or squarefree(n)
    )
    got = parse_weights("sqrt(999999999989),1")
    assert calls == [1]  # the weight 1 alone
    assert got == (ValueScalar(0, 1, 999999999989), ValueScalar(1))


def test_parse_weights_and_query():
    assert parse_weights("2,3") == (ValueScalar(2), ValueScalar(3))
    assert parse_weights("1, 1/2, sqrt(2)") == (
        ValueScalar(1),
        ValueScalar(Fraction(1, 2)),
        ValueScalar(0, 1, 2),
    )
    with pytest.raises(UsageError):
        parse_weights("1, inf")
    q = parse_query("inf, 1, 1")
    assert q.entries[0] is INF
    assert q.entries[1] == ValueScalar(1)


def test_parse_poly_basic():
    R = PolyRing(NumberField(), ("x", "y"))
    f = parse_poly("y^2 - x^3", R)
    assert f.coeffs == {(0, 2): Fraction(1), (3, 0): Fraction(-1)}
    g = parse_poly("-2*x*y + x^2/2", R)
    assert g.coeffs == {(1, 1): Fraction(-2), (2, 0): Fraction(1, 2)}
    z = parse_poly("0", R)
    assert z.is_zero


def test_parse_poly_sqrt_coefficient():
    field, rt = adjoin_root(
        NumberField(), [Fraction(-2), Fraction(0), Fraction(1)]
    )
    R = PolyRing(field, ("x", "y"))
    f = parse_poly("sqrt(2)*x - y", R)
    assert f.coeffs[(1, 0)] == rt
    assert f.coeffs[(0, 1)] == Fraction(-1)
    # round trip writes the generator by name
    assert parse_poly(poly_str(f), R) == f


def test_parse_poly_rejects_unknowns():
    R = PolyRing(NumberField(), ("x", "y"))
    for bad in ("x + q", "x +", "x ^ y", "(x", "x..y", "x*,y"):
        with pytest.raises(UsageError):
            parse_poly(bad, R)


def test_parse_poly_sqrt_grows_the_field():
    R = PolyRing(NumberField(), ("x", "y"))
    f = parse_poly("sqrt(2)*x", R)
    c = f.coeffs[(1, 0)]
    assert c * c == Fraction(2)


def test_sqrt_of_a_square_is_the_root_without_a_minus():
    F = NumberField()
    R = PolyRing(F, ("x", "y"))
    assert poly_str(parse_poly("sqrt(4)*x + y", R)) == "2*x + y"
    assert series_str(parse_series("sqrt(9)*t", NumberField())) == "3*t^(1)"
    # with a1 = sqrt(2) adjoined, sqrt(8) is 2*a1 in both grammars
    assert poly_str(parse_poly("sqrt(2)*y + sqrt(8)*x", R)) == "2*a1*x + a1*y"
    assert series_str(parse_series("sqrt(8)*t", F)) == "(2*a1)*t^(1)"
    assert F.height() == 1


def test_poly_round_trip_random():
    rng = random.Random(99)
    R = PolyRing(NumberField(), ("x", "y", "z"))
    for _ in range(100):
        entries = {}
        for _ in range(rng.randint(1, 5)):
            mono = tuple(rng.randint(0, 3) for _ in range(3))
            c = Fraction(rng.randint(-9, 9), rng.randint(1, 4))
            if c:
                entries[mono] = c
        if not entries:
            continue
        f = R.from_terms(list(entries.items()))
        assert parse_poly(poly_str(f), R) == f


def test_parse_generators():
    R = PolyRing(NumberField(), ("x", "y"))
    gens = parse_generators("x + y; x - y^2", R)
    assert len(gens) == 2
    assert poly_str(gens[1]) == "-y^2 + x"


def test_parse_ideal_text_fixture():
    text = """# a plane curve
vars: x, y
order: local
w: 2, 3
y^2 - x^3
"""
    ring, gens, mode, weights = parse_ideal_text(text)
    assert ring.vars == ("x", "y")
    assert mode == "local"
    assert weights == (ValueScalar(2), ValueScalar(3))
    assert gens == [parse_poly("y^2 - x^3", ring)]


def test_parse_ideal_text_defaults_and_errors():
    ring, gens, mode, weights = parse_ideal_text("vars: x\nx\n")
    assert mode == "local"
    assert weights is None
    with pytest.raises(UsageError):
        parse_ideal_text("x + y\n")  # no vars line
    with pytest.raises(UsageError):
        parse_ideal_text("vars: x, y\norder: sideways\nx\n")
    with pytest.raises(UsageError):
        parse_ideal_text("vars: x, x\nx\n")


def test_parse_series_round_trip():
    F = NumberField()
    cases = [
        ValuedSeries(F, [], INF),
        ValuedSeries(F, [], ValueScalar(4)),
        ValuedSeries(F, [(0, 3)], INF),
        ValuedSeries(F, [(1, 1), (2, Fraction(1, 2))], ValueScalar(5)),
        ValuedSeries(F, [(Fraction(3, 2), -1)], INF),
        ValuedSeries(F, [(Fraction(1, 3), Fraction(-2, 7)), (2, 5)], ValueScalar(9)),
    ]
    for s in cases:
        assert parse_series(series_str(s), F) == s


def test_parse_series_generator_coefficients():
    field, _ = adjoin_root(
        NumberField(), [Fraction(-2), Fraction(0), Fraction(1)]
    )
    name = field.generator_names()[-1]
    s = parse_series("(1/2*%s + 1/2)*t^(2) + O(t^(4))" % name, field)
    assert series_str(s) == "(1/2*%s+1/2)*t^(2) + O(t^(4))" % name
    assert parse_series(series_str(s), field) == s
    cubic, root = adjoin_root(
        NumberField(), [Fraction(-2), Fraction(0), Fraction(0), Fraction(1)]
    )
    s = ValuedSeries(cubic, [(1, root * root), (2, root + 1)], ValueScalar(3))
    assert parse_series(series_str(s), cubic) == s


def test_parse_series_hahn_exponents():
    F = NumberField()
    s = parse_series("t^(sqrt(2)) + O(t^(5))", F, mode="hahn", d=2)
    assert s.terms[0][0] == ValueScalar(0, 1, 2)
    assert series_str(s) == "t^(sqrt(2)) + O(t^(5))"


def test_parse_series_errors():
    F = NumberField()
    for bad in ("t^", "O(t^(3)) + t", "t^(2) t^(3)", "* t", "t^(x)"):
        with pytest.raises(UsageError):
            parse_series(bad, F)


def test_parse_point():
    F = NumberField()
    pt = parse_point("t^(2); t^(3)", F)
    assert len(pt) == 2
    assert str(pt[0]) == "t^(2)"
    assert str(pt[1]) == "t^(3)"


# -- one grammar for every text form ------------------------------------------


def _sum(rng, dom, depth):
    """A random sum of signed products as (text, value); every sum inside a
    product is parenthesized and every divisor is an atom."""
    text, value = _product(rng, dom, depth)
    for _ in range(rng.randint(0, 2)):
        t, v = _product(rng, dom, depth)
        if rng.random() < 0.5:
            text, value = "%s + %s" % (text, t), value + v
        else:
            text, value = "%s - %s" % (text, t), value - v
    return text, value


def _product(rng, dom, depth):
    text, value = _factor(rng, dom, depth)
    for _ in range(rng.randint(0, 2)):
        if rng.random() < 0.3:
            t, v = rng.choice(dom["divisors"])
            text, value = "%s/%s" % (text, t), value * dom["inverse"](v)
        else:
            t, v = _factor(rng, dom, depth)
            text, value = "%s*%s" % (text, t), value * v
    return text, value


def _factor(rng, dom, depth):
    r = rng.random()
    if depth == 0 or r < 0.5:
        return rng.choice(dom["leaves"])
    if r < 0.75:
        t, v = _sum(rng, dom, depth - 1)
        return "(%s)" % t, v
    t, v = _factor(rng, dom, depth - 1)
    return ("-" + t, -v) if rng.random() < 0.7 else ("+" + t, v)


def test_one_grammar_random_trees():
    rng = random.Random(2024)
    r2 = ValueScalar(0, 1, 2)
    scalars = {
        "leaves": [(str(n), ValueScalar(n)) for n in range(10)] + [("sqrt(2)", r2)],
        "divisors": [("3", ValueScalar(3)), ("7", ValueScalar(7)), ("sqrt(2)", r2)],
        "inverse": lambda v: ValueScalar(1) / v,
    }
    field, g2 = adjoin_root(NumberField(), [Fraction(-2), Fraction(0), Fraction(1)])
    a = field.generator_names()[-1]
    R = PolyRing(field, ("x", "y"))
    polys = {
        "leaves": [(str(n), R.constant(n)) for n in range(4)]
        + [("x", parse_poly("x", R)), ("y^2", R.monomial((0, 2)))]
        + [(a, R.constant(g2)), (a + "^3", R.constant(g2**3))]
        + [("sqrt(2)", R.constant(g2))],
        "divisors": [("3", R.constant(3)), ("sqrt(2)", R.constant(g2))],
        "inverse": lambda f: R.constant(1 / f.constant_term()),
    }
    sfield, g3 = adjoin_root(NumberField(), [Fraction(-3), Fraction(0), Fraction(1)])
    b = sfield.generator_names()[-1]

    def mono(e, c=1):
        return ValuedSeries.monomial(sfield, ValueScalar(e), c)

    series = {
        "leaves": [(str(n), mono(0, n)) for n in range(4)]
        + [("t", mono(1)), ("t^(1/2)", mono(Fraction(1, 2))), ("t^(-2/3)", mono(Fraction(-2, 3)))]
        + [("sqrt(3)", mono(0, g3)), (b, mono(0, g3)), (b + "^2", mono(0, 3))],
        "divisors": [("2", mono(0, 2)), ("sqrt(3)", mono(0, g3))],
        "inverse": lambda s: mono(0, 1 / s.coefficient(0)),
    }
    seen = set()
    for _ in range(150):
        text, value = _sum(rng, scalars, 3)
        assert parse_scalar(text, d=2) == value, text
        text, value = _sum(rng, polys, 3)
        assert parse_poly(text, R) == value, text
        seen.update(op for op in ("*-", "*+", "(", "/") if op in text)
        text, value = _sum(rng, series, 3)
        if rng.random() < 0.5:
            bound = Fraction(rng.randint(1, 12), rng.randint(1, 3))
            text += " + O(t^(%s))" % bound
            value = value + ValuedSeries.zero(sfield, ValueScalar(bound))
        assert parse_series(text, sfield) == value, text
    assert seen == {"*-", "*+", "(", "/"}
