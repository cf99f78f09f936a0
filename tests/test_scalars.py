"""Exact scalar arithmetic: quadratic value scalars and field towers."""

import io
import random
from fractions import Fraction

import mpmath
import pytest
import sympy
from hypothesis import assume, given, seed, settings, strategies as st

from troplift import cli, scalars
from troplift.errors import (
    ExtensionUnsupportedError,
    InternalInvariantError,
    TropliftError,
    UsageError,
)
from troplift.scalars import (
    AlgebraicNumber,
    NumberField,
    ValueScalar,
    adjoin_root,
    as_field_element,
    as_value,
    factor_univariate,
    roots_in_extension,
    scalar_str,
)
from troplift.polyring import INF, PolyRing
from troplift.series import ValuedSeries


def test_cmp_examples():
    assert ValueScalar(1, 1, 2) < ValueScalar(Fraction(5, 2))
    assert ValueScalar(Fraction(3, 7)) == ValueScalar(Fraction(3, 7))
    assert ValueScalar(0, 1, 2) > ValueScalar(1)


def test_cmp_with_infinity():
    assert ValueScalar(10**9) < INF
    assert INF > ValueScalar(10**9)
    assert INF == INF


def test_cmp_against_interval_oracle():
    rng = random.Random(41)
    mpmath.mp.dps = 50
    root = {d: mpmath.sqrt(d) for d in (2, 3, 5)}
    for _ in range(1000):
        d = rng.choice((2, 3, 5))
        a1 = Fraction(rng.randint(-40, 40), rng.randint(1, 9))
        b1 = Fraction(rng.randint(-40, 40), rng.randint(1, 9))
        a2 = Fraction(rng.randint(-40, 40), rng.randint(1, 9))
        b2 = Fraction(rng.randint(-40, 40), rng.randint(1, 9))
        x = ValueScalar(a1, b1, d)
        y = ValueScalar(a2, b2, d)
        lhs = mpmath.mpf(a1.numerator) / a1.denominator + (
            mpmath.mpf(b1.numerator) / b1.denominator
        ) * root[d]
        rhs = mpmath.mpf(a2.numerator) / a2.denominator + (
            mpmath.mpf(b2.numerator) / b2.denominator
        ) * root[d]
        diff = lhs - rhs
        if abs(diff) < mpmath.mpf(10) ** -40:
            expected = 0
        else:
            expected = 1 if diff > 0 else -1
        assert (x > y) - (x < y) == expected
        assert (x == y) == (expected == 0)


def test_order_compatible_with_addition():
    rng = random.Random(7)
    for _ in range(200):
        a = ValueScalar(Fraction(rng.randint(-9, 9)), Fraction(rng.randint(-9, 9)), 2)
        b = ValueScalar(Fraction(rng.randint(-9, 9)), Fraction(rng.randint(-9, 9)), 2)
        c = ValueScalar(Fraction(rng.randint(-9, 9)), Fraction(rng.randint(-9, 9)), 2)
        if a < b:
            assert a + c < b + c


def _cmp_by_difference(x, y):
    """Three-way comparison from the sign of x - y: the reference."""
    if y is INF:
        return -1
    return (x - ValueScalar.of(y)).sign()


_RATIONALS = st.fractions(min_value=-12, max_value=12, max_denominator=6)
_SCALARS = st.builds(lambda a, b: ValueScalar(a, b, 2), _RATIONALS, _RATIONALS)
_VALUES = st.one_of(_SCALARS, _SCALARS, st.just(INF))


@seed(2013)
@settings(max_examples=200, database=None, deadline=None)
@given(_VALUES, _VALUES, _SCALARS)
def test_operators_are_the_order_min_and_sum_of_the_value_group(x, y, z):
    """On a+b*sqrt(2) and INF, <, ==, min and + are Gamma u {+oo}'s order,
    minimum and sum: for finite pairs they follow the sign of x - y, INF is
    the maximum and absorbs +."""
    if x is INF or y is INF:
        other = y if x is INF else x
        assert x + y is INF and y + x is INF
        assert min(x, y) is other and min(y, x) is other
        assert max(x, y) is INF
        assert other <= INF and INF >= other and not INF < other
        assert (other == INF) == (other is INF)
        assert (other < INF) == (INF > other) == (other is not INF)
        return
    sign = (x - y).sign()
    assert (x < y) == (sign < 0) and (x > y) == (sign > 0)
    assert (x <= y) == (sign <= 0) and (x >= y) == (sign >= 0)
    assert (x == y) == (sign == 0) and (x != y) == (sign != 0)
    assert min(x, y) is (y if sign > 0 else x)
    assert (x + z < y + z) == (sign < 0) and (x + z == y + z) == (sign == 0)
    assert x + y == y + x and (x + y) - y == x
    assert x + INF is INF and INF + x is INF


def test_cmp_fast_path_agrees_with_difference_sign():
    rng = random.Random(2013)

    def rational():
        return Fraction(rng.randint(-6, 6), rng.randint(1, 4))

    def pair():
        kind = rng.randrange(5)
        x = ValueScalar(rational())
        if kind == 0:  # both rational, b folded into a
            return x, ValueScalar(rational(), rational(), 1)
        if kind == 1:  # both in sqrt(2)
            return ValueScalar(rational(), rational(), 2), ValueScalar(
                rational(), rational(), 2
            )
        if kind == 2:  # rational against sqrt(3)
            y = ValueScalar(rational(), rng.randint(-2, 2), 3)
            return (x, y) if rng.random() < 0.5 else (y, x)
        if kind == 3:  # int and Fraction operands
            return x, rng.choice([rng.randint(-3, 3), rational()])
        return ValueScalar(rational(), rational(), rng.choice([1, 2])), INF

    for _ in range(2000):
        x, y = pair()
        want = _cmp_by_difference(x, y)
        assert x._cmp(y) == want, (x, y)
        assert (x == y) == (want == 0), (x, y)
        assert (x < y) == (want < 0), (x, y)
        if want == 0:
            assert hash(x) == hash(y), (x, y)
    with pytest.raises(UsageError):
        ValueScalar(0, 1, 2)._cmp(ValueScalar(0, 1, 3))
    with pytest.raises(UsageError):
        ValueScalar(1, 1, 2) == ValueScalar(1, 1, 3)
    with pytest.raises(UsageError):
        ValueScalar(1, 1, 2) < ValueScalar(1, 1, 3)


def test_rational_comparison_with_int_or_fraction_builds_no_scalar(monkeypatch):
    made = []
    init = ValueScalar.__init__

    def counting(self, *args, **kwargs):
        made.append(args)
        init(self, *args, **kwargs)

    x, y = ValueScalar(3), ValueScalar(Fraction(1, 2))
    monkeypatch.setattr(ValueScalar, "__init__", counting)
    assert x < 5 and x > Fraction(5, 2) and x == 3 and x >= 3
    assert y <= Fraction(1, 2) and y != 1 and not y < -1
    assert made == []


def _random_value(rng, d):
    a = Fraction(rng.randint(-9, 9), rng.randint(1, 4))
    b = Fraction(rng.randint(-3, 3), rng.randint(1, 3)) if d > 1 else 0
    return ValueScalar(a, b, d)


def _parts(x):
    return (x.a, x.b, x.d, type(x.a), type(x.b), hash(x))


def test_value_scalar_arithmetic_matches_the_validating_constructor():
    """Sums, differences and negatives built without re-validation equal
    the scalars the validating constructor makes from the same parts, also
    when b cancels to 0; comparisons agree with the sign of the difference."""
    rng = random.Random(15)
    cancelled = 0
    for _ in range(600):
        d = rng.choice([1, 2, 5])
        x, y = _random_value(rng, d), _random_value(rng, rng.choice([1, d]))
        if rng.random() < 0.2:  # same irrational part: the difference is rational
            y = ValueScalar(y.a, x.b, x.d)
        common = max(x.d, y.d)
        for got, want in [
            (x + y, ValueScalar(x.a + y.a, x.b + y.b, common)),
            (x - y, ValueScalar(x.a - y.a, x.b - y.b, common)),
            (-x, ValueScalar(-x.a, -x.b, x.d)),
            (x + 3, ValueScalar(x.a + 3, x.b, x.d)),
            (Fraction(1, 2) - x, ValueScalar(Fraction(1, 2) - x.a, -x.b, x.d)),
        ]:
            assert _parts(got) == _parts(want), (x, y)
        cancelled += x.d > 1 and (x - y).d == 1
        sign = ValueScalar(x.a - y.a, x.b - y.b, common).sign()
        assert (x < y, x == y, x > y) == (sign < 0, sign == 0, sign > 0), (x, y)
        assert (x <= y, x >= y) == (sign <= 0, sign >= 0), (x, y)
    assert cancelled > 20


def test_adding_rational_value_scalars_checks_no_radicand(monkeypatch):
    """Operands are in normal form, so arithmetic does not re-run the
    squarefree check that the constructor makes."""
    calls = []
    check = scalars._squarefree
    monkeypatch.setattr(scalars, "_squarefree", lambda n: calls.append(n) or check(n))
    x, y = ValueScalar(Fraction(1, 2)), ValueScalar(3)
    calls.clear()
    assert x + y == Fraction(7, 2) and y - x == Fraction(5, 2) and -x < y
    assert calls == []


def test_radicand_bound():
    assert ValueScalar(0, 1, 999999999989).d == 999999999989
    with pytest.raises(UsageError, match="up to 10\\^12"):
        ValueScalar(0, 1, 10**12 + 1)


def test_mixed_radicals_rejected():
    with pytest.raises(UsageError):
        ValueScalar(0, 1, 2) + ValueScalar(0, 1, 3)


def test_squarefree_guard():
    with pytest.raises(UsageError):
        ValueScalar(0, 1, 4)


def test_value_scalar_text_forms():
    assert str(ValueScalar(Fraction(3, 2))) == "3/2"
    assert str(ValueScalar(0, 2, 3)) == "2*sqrt(3)"
    assert str(ValueScalar(1, Fraction(1, 2), 2)) == "1+1/2*sqrt(2)"
    assert str(ValueScalar(1, -1, 2)) == "1-sqrt(2)"


def test_adjoin_rational_root_no_extension():
    F = NumberField()
    F2, r = adjoin_root(F, [Fraction(-1), Fraction(0), Fraction(1)])
    assert F2 is F and F.height() == 0
    assert r in (Fraction(1), Fraction(-1))
    # canonically first root is deterministic
    _, r2 = adjoin_root(F, [Fraction(-1), Fraction(0), Fraction(1)])
    assert r == r2


def test_adjoin_sqrt2():
    F = NumberField()
    F, alpha = adjoin_root(F, [Fraction(-2), Fraction(0), Fraction(1)])
    assert F.height() == 1
    assert alpha * alpha == as_field_element(F, Fraction(2))


def test_adjoin_cyclotomic():
    F = NumberField()
    F, beta = adjoin_root(F, [Fraction(1), Fraction(1), Fraction(1)])
    assert F.height() == 1
    assert beta * beta + beta + as_field_element(F, 1) == as_field_element(F, 0)


def test_adjoined_root_solves_polynomial():
    rng = random.Random(11)
    for _ in range(20):
        F = NumberField()
        coeffs = [Fraction(rng.randint(-5, 5)) for _ in range(3)] + [Fraction(1)]
        F, r = adjoin_root(F, coeffs)
        total = as_field_element(F, Fraction(0))
        power = as_field_element(F, Fraction(1))
        for c in coeffs:
            total = total + power * as_field_element(F, c)
            power = power * r
        assert total == as_field_element(F, Fraction(0))


def _tower():
    F = NumberField()
    F, s2 = adjoin_root(F, [Fraction(-2), Fraction(0), Fraction(1)])
    F, s3 = adjoin_root(F, [Fraction(-3), Fraction(0), Fraction(1)])
    return F, s2, s3


def test_field_axioms_on_tower():
    F, s2, s3 = _tower()
    rng = random.Random(23)
    one = as_field_element(F, Fraction(1))
    zero = as_field_element(F, Fraction(0))

    def rand_element():
        total = zero
        for basis in (one, s2, s3, s2 * s3):
            total = total + basis * as_field_element(
                F, Fraction(rng.randint(-4, 4), rng.randint(1, 3))
            )
        return total

    for _ in range(60):
        a, b, c = rand_element(), rand_element(), rand_element()
        assert (a + b) + c == a + (b + c)
        assert a * (b + c) == a * b + a * c
        assert a * b == b * a
        if a != zero:
            assert a * (one / a) == one


# -- the normal form of tower elements


def _normal_form_errors(x, level=None):
    """Where x breaks the normal form of a value of level below level."""
    if isinstance(x, Fraction):
        return []
    if not isinstance(x, AlgebraicNumber):
        return [f"{x!r} is neither a Fraction nor an AlgebraicNumber"]
    out = []
    if level is not None and x.level >= level:
        out.append(f"{x} of level {x.level} is a coefficient at level {level}")
    if len(x.coeffs) != x.field.levels[x.level - 1].degree:
        out.append(f"{x} has {len(x.coeffs)} coefficients")
    if not any(x.coeffs[1:]):
        out.append(f"{x} is a constant at level {x.level}")
    for c in x.coeffs:
        out += _normal_form_errors(c, x.level)
    return out


def test_tower_normal_form_properties():
    """Seeded draws on Q(sqrt 2)(cbrt 3), of degree 6: field laws by ==, one
    normal form per value whatever the route, and == against a real
    embedding."""
    F = NumberField()
    s = F.adjoin("s", [Fraction(-2), Fraction(0), Fraction(1)])
    c = F.adjoin("c", [Fraction(-3), Fraction(0), Fraction(0), Fraction(1)])
    rng = random.Random(61)
    embedding = {1: mpmath.sqrt(2), 2: mpmath.cbrt(3)}

    def value(x):
        if isinstance(x, Fraction):
            return mpmath.mpf(x.numerator) / x.denominator
        theta = embedding[x.level]
        return sum(value(a) * theta**i for i, a in enumerate(x.coeffs))

    def parts():
        """Rational parts q[i][j] of the basis s^i c^j, i < 2 and j < 3; a
        draw keeps only the first few i and j, so that its value may lie in
        Q or Q(s)."""
        ni, nj = rng.choice((1, 2)), rng.choice((1, 1, 2, 3))
        return [[Fraction(rng.randint(-4, 4), rng.randint(1, 3)) if i < ni and j < nj
                 else Fraction(0) for j in range(3)] for i in range(2)]

    def by_sum(q):
        total = Fraction(0)
        for i in range(2):
            for j in range(3):
                total = total + q[i][j] * s**i * c**j
        return total

    def by_horner(q):
        """The same value, summed in c over coefficients a + b*s."""
        total = Fraction(0)
        for j in (2, 1, 0):
            total = total * c + (s * q[1][j] + q[0][j])
        return total

    pool = [parts() for _ in range(12)]
    with mpmath.workdps(60):
        draws, outcomes = [], set()
        for _ in range(30):
            q = rng.choice(pool)  # repeats reach equal values by new routes
            x, y = by_sum(q), by_horner(q)
            assert x == y and hash(x) == hash(y)
            assert type(x) is type(y) and getattr(x, "coeffs", x) == getattr(y, "coeffs", y)
            assert not _normal_form_errors(x)
            assert type(x - y) is Fraction and x - y == 0
            draws.append(rng.choice((x, y)))
        assert {type(x) for x in draws} == {Fraction, AlgebraicNumber}
        assert {x.level for x in draws if isinstance(x, AlgebraicNumber)} == {1, 2}
        for _ in range(60):
            a, b, d = (rng.choice(draws) for _ in range(3))
            assert (a + b) + d == a + (b + d)
            assert (a * b) * d == a * (b * d)
            assert a * (b + d) == a * b + a * d
            for x in (a + b, a * b, a - b * d, -a):
                assert not _normal_form_errors(x)
            if a:
                inv = a.inverse() if isinstance(a, AlgebraicNumber) else 1 / a
                assert a * inv == 1 and (b * a) / a == b
            close = abs(value(a) - value(b)) < mpmath.mpf(10) ** -40
            assert (a == b) == close, (a, b)
            outcomes.add(close)
            twin = b + (a - b)  # equal to a, reached through b
            assert twin == a and hash(twin) == hash(a)
    assert outcomes == {True, False}
    assert c**3 == 3 and type(c**3) is Fraction
    assert type((s * c) * (s * c).inverse()) is Fraction


def test_field_coercion_takes_only_int_fraction_or_a_field_element():
    F = NumberField()
    ring = PolyRing(F, ("x",))
    x = ring.var(0)
    with pytest.raises(UsageError):
        x + 0.1
    with pytest.raises(UsageError):
        ring.constant("2/3")
    with pytest.raises(UsageError):
        ValuedSeries(F, [(1, 0.25)])
    other = NumberField()
    with pytest.raises(UsageError):
        as_field_element(F, other.adjoin("b", [Fraction(-2), Fraction(0), Fraction(1)]))
    three = as_field_element(F, 3)
    assert type(three) is Fraction and three == 3


def test_adjoin_checks_the_minimal_polynomial_first():
    F = NumberField()
    other = NumberField()
    foreign = other.adjoin("b", [Fraction(-2), Fraction(0), Fraction(1)])
    for bad in (
        [Fraction(-2), Fraction(1)],  # degree 1
        [Fraction(-2), Fraction(0), Fraction(2)],  # not monic
        [Fraction(-2), Fraction(0), Fraction(0)],  # leading zero
        [0.5, 0, 1],  # not a field element
        [foreign, 0, 1],  # from another field
    ):
        with pytest.raises(UsageError):
            F.adjoin("b", bad)
        assert F.height() == 0
    b = F.adjoin("b", [-2, 0, 1])
    assert F.height() == 1 and b * b == 2


def test_roots_in_extension_counts_multiplicity():
    F = NumberField()
    # (z - 1)^2 (z + 2)
    coeffs = [Fraction(2), Fraction(-3), Fraction(0), Fraction(1)]
    F, roots = roots_in_extension(F, coeffs)
    total = sum(m for _, m in roots)
    assert total == 3
    as_set = {(r, m) for r, m in roots}
    assert (Fraction(1), 2) in as_set
    assert (Fraction(-2), 1) in as_set


def test_roots_in_extension_adjoins_quadratic():
    F = NumberField()
    F, roots = roots_in_extension(F, [Fraction(-2), Fraction(0), Fraction(1)])
    assert sum(m for _, m in roots) == 2
    for r, _ in roots:
        assert r * r == as_field_element(F, Fraction(2))


def test_factor_univariate_deterministic():
    F = NumberField()
    coeffs = [Fraction(-1), Fraction(0), Fraction(1)]
    lc1, fac1 = factor_univariate(F, coeffs)
    lc2, fac2 = factor_univariate(F, coeffs)
    assert lc1 == lc2 and fac1 == fac2
    assert len(fac1) == 2


def test_a_remainder_that_does_not_shrink_raises(monkeypatch):
    """Euclid's loops end because each remainder is shorter than its
    divisor: a division that breaks this raises instead of looping."""
    monkeypatch.setattr(scalars, "_pdivmod", lambda a, b: ([], list(b)))
    for euclid in (scalars._pgcd, scalars._pgcd_ext):
        with pytest.raises(InternalInvariantError, match="a remainder did not shrink"):
            euclid([Fraction(-1), Fraction(0), Fraction(1)], [Fraction(-1), Fraction(1)])


def test_extension_degree_bound():
    F = NumberField()
    coeffs = [Fraction(-2)] + [Fraction(0)] * 8 + [Fraction(1)]
    with pytest.raises(ExtensionUnsupportedError):
        adjoin_root(F, coeffs)


def test_tower_height_bound():
    F = NumberField()
    for d in (2, 3, 5):
        F, _ = adjoin_root(F, [Fraction(-d), Fraction(0), Fraction(1)])
    assert F.height() == 3
    with pytest.raises(ExtensionUnsupportedError):
        adjoin_root(F, [Fraction(-7), Fraction(0), Fraction(1)])


def test_scalar_str_round_trip_values():
    F, s2, s3 = _tower()
    for value in (s2, s3, s2 * s3 + as_field_element(F, Fraction(1, 2))):
        text = scalar_str(value)
        assert isinstance(text, str) and text
    assert scalar_str(Fraction(3, 4)) == "3/4"


def test_algebraic_equality_is_exact():
    F, s2, s3 = _tower()
    lhs = (s2 + s3) * (s2 + s3)
    rhs = as_field_element(F, Fraction(5)) + s2 * s3 * 2
    assert lhs == rhs


def test_linear_roots_are_solved_not_factored(monkeypatch):
    F = NumberField()
    F, a1 = adjoin_root(F, [Fraction(-2), Fraction(0), Fraction(1)])
    poly = [1 + a1, 3 * a1]  # 3*a1*z + 1 + a1
    _, [(factor, _)] = factor_univariate(F, poly)
    calls = []
    for name in ("factor_univariate", "squarefree_decomposition"):
        fn = getattr(scalars, name)
        monkeypatch.setattr(
            scalars, name, lambda *args, fn=fn, name=name: calls.append(name) or fn(*args)
        )
    F2, [(root, mult)] = roots_in_extension(F, poly)
    assert calls == [] and F2 is F and F.height() == 1 and mult == 1
    assert root == -factor[0] and scalar_str(root) == scalar_str(-factor[0])
    assert 3 * a1 * root + 1 + a1 == 0


def test_adjoined_factor_is_deflated_not_factored_again(monkeypatch):
    calls = {"factor_univariate": [], "_bivariate_norm": [], "_factor_rational_squarefree": []}
    for name in calls:
        fn = getattr(scalars, name)
        monkeypatch.setattr(
            scalars, name, lambda *args, fn=fn, name=name: calls[name].append(args) or fn(*args)
        )
    # a quadratic is factored once, split by a square root of its
    # discriminant with no norm and no Zassenhaus step, and adjoined when
    # it has none; its cofactor is linear and is solved, not factored
    F, roots = roots_in_extension(NumberField(), [-2, 0, 1])
    assert [len(c) for c in calls.values()] == [1, 0, 0]
    assert F.height() == 1 and sorted(m for _, m in roots) == [1, 1]
    # (z^2 - 2)(z^2 - 3): the quartic is factored over Q; z^2 - 3 is then a
    # quadratic over a quadratic tower, factored once more with no norm
    for fn_calls in calls.values():
        fn_calls.clear()
    F, roots = roots_in_extension(NumberField(), [6, 0, -5, 0, 1])
    assert F.height() == 2 and len(roots) == 4
    assert [len(c) for c in calls.values()] == [2, 0, 1]
    # adjoining a root of z^4 - 2 leaves a cubic over a quartic field: the
    # cap still fails on the quartic as a whole, with the same field state
    calls["factor_univariate"].clear()
    calls["_bivariate_norm"].clear()
    F = NumberField()
    with pytest.raises(ExtensionUnsupportedError, match=r"got degree 16\)"):
        roots_in_extension(F, [-2, 0, 0, 0, 1])
    assert F.height() == 1 and len(calls["factor_univariate"]) == 1
    assert calls["_bivariate_norm"] == []


def _roots_by_refactoring(field, coeffs):
    """roots_in_extension before deflation, the reference: an adjoined factor
    goes back on the queue and is factored again over the extended field."""
    cs = scalars._pnorm([as_field_element(field, c) for c in coeffs])
    out = []
    pending = [(cs, 1)]
    while pending:
        poly, mult = pending.pop(0)
        if len(poly) == 2:
            out.append((-poly[0] / poly[1], mult))
            continue
        _, factors = factor_univariate(field, poly)
        nonlinear = [(f, m) for f, m in factors if len(f) > 2]
        for f, m in factors:
            if len(f) == 2:
                out.append((-f[0], mult * m))
        if nonlinear:
            scalars._adjoin_factor(field, nonlinear[0][0])
            for f, m in nonlinear:
                pending.append((f, mult * m))
    merged = {}
    for r, m in out:
        merged[r] = merged.get(r, 0) + m
    return field, sorted(merged.items(), key=lambda t: scalars._scalar_sort_key(t[0]))


# minimal polynomials of the base fields Q, Q(sqrt 2) and Q(sqrt 2, sqrt 3)
_BASES = ((), ((-2, 0, 1),), ((-2, 0, 1), (-3, 0, 1)))


def _random_factors(rng):
    """(base, factors): 1-3 monic factors of degree 1-4, low degrees
    likelier, some repeated, of total degree at most 8; each coefficient is
    a list of small integers, one per basis element 1, s1, s2 of the base."""
    while True:
        base = rng.randrange(len(_BASES))
        factors = []
        for _ in range(rng.choice((1, 1, 2, 2, 3))):
            deg = rng.choice((1, 1, 1, 1, 2, 2, 3, 4))
            f = [[rng.randint(-3, 3) for _ in range(1 + base)] for _ in range(deg)]
            factors += [f, f] if rng.random() < 0.25 else [f]
        if sum(len(f) for f in factors) <= 8:
            return base, factors


def _roots_outcome(solve, base, factors):
    """Roots with multiplicities (or the error) and the tower afterwards, as
    text, from solve on the product of the factors over a fresh base field."""
    F = NumberField()
    for i, minpoly in enumerate(_BASES[base]):
        F.adjoin(f"s{i + 1}", minpoly)
    basis = [Fraction(1)] + [F.generator(i + 1) for i in range(base)]
    poly = [Fraction(1)]
    for f in factors:
        cs = [sum((b * k for b, k in zip(basis, c)), Fraction(0)) for c in f]
        poly = scalars._pmul(poly, cs + [Fraction(1)])
    try:
        _, roots = solve(F, poly)
        result = [(scalar_str(r), m) for r, m in roots]
    except TropliftError as e:
        result = (type(e).__name__, str(e))
    tower = [(lv.name, [scalar_str(c) for c in lv.minpoly]) for lv in F.levels]
    return result, tower


def test_deflating_the_adjoined_factor_matches_refactoring_it():
    """Seeded products over Q, Q(sqrt 2) and Q(sqrt 2, sqrt 3): the same
    roots, multiplicities, tower and errors as the re-factoring reference,
    the degree-cap failures included."""
    rng = random.Random(3)
    solved = 0
    for _ in range(240):
        base, factors = _random_factors(rng)
        new = _roots_outcome(roots_in_extension, base, factors)
        assert new == _roots_outcome(_roots_by_refactoring, base, factors), factors
        solved += isinstance(new[0], list)
    assert solved >= 100


# -- quadratics split by a square root, against the factoring engine


def _factor_by_norms(field, level, f):
    """_factor_squarefree with no square-root shortcut, the reference:
    Trager's norm descent to Q and Zassenhaus's method there."""
    f = scalars._pmonic(f)
    if scalars._pdeg(f) <= 1:
        return [f]
    scalars._check_degree_cap(field, level, scalars._pdeg(f))
    if level == 0:
        return scalars._factor_rational_squarefree(f)
    theta = field.generator(level)
    for s in [0, 1, -1, 2, -2, 3, -3, 4, -4, 5, -5]:
        norm = scalars._bivariate_norm(field, level, f, s)
        if scalars._pdeg(scalars._pgcd(norm, scalars._pderiv(norm))) == 0:
            break
    else:
        raise ExtensionUnsupportedError(
            "extension unsupported: no squarefree norm found during descent"
        )
    out, rest = [], f
    for h in sorted(_factor_by_norms(field, level - 1, norm), key=scalars._poly_sort_key):
        if scalars._pdeg(rest) <= 0:
            break
        g = scalars._pgcd(rest, scalars._pshift(h, theta * s) if s else h)
        if scalars._pdeg(g) >= 1:
            out.append(g)
            rest, _ = scalars._pdivmod(rest, g)
    out.sort(key=scalars._poly_sort_key)
    return out


def _factor_univariate_by_norms(field, coeffs):
    cs = scalars._pnorm([as_field_element(field, c) for c in coeffs])
    out = []
    for sf, mult in scalars.squarefree_decomposition(cs):
        for irr in _factor_by_norms(field, field.height(), sf):
            out.append((irr, mult))
    out.sort(key=lambda t: scalars._poly_sort_key(t[0]))
    return cs[-1], out


def _roots_by_factoring(field, coeffs):
    """roots_in_extension with every nonlinear polynomial factored by the
    norm reference, the quadratics included."""
    cs = scalars._pnorm([as_field_element(field, c) for c in coeffs])
    out = []
    pending = [(cs, 1, None)]
    while pending:
        poly, mult, adjoined = pending.pop(0)
        if adjoined is not None:
            scalars._check_degree_cap(field, field.height(), adjoined)
        if len(poly) == 2:
            out.append((-poly[0] / poly[1], mult))
            continue
        _, factors = _factor_univariate_by_norms(field, poly)
        nonlinear = [(f, mult * m) for f, m in factors if len(f) > 2]
        for f, m in factors:
            if len(f) == 2:
                out.append((-f[0], mult * m))
        if nonlinear:
            f, m = nonlinear[0]
            theta = scalars._adjoin_factor(field, f)
            cofactor, _ = scalars._pdivmod(f, [-theta, Fraction(1)])
            out.append((theta, m))
            pending.append((cofactor, m, scalars._pdeg(f)))
            pending.extend((g, k, None) for g, k in nonlinear[1:])
    merged = {}
    for r, m in out:
        merged[r] = merged.get(r, 0) + m
    return field, sorted(merged.items(), key=lambda t: scalars._scalar_sort_key(t[0]))


def _quadratic_base(base):
    """A fresh field: Q; Q(a1) with a1^2 = 2; Q(a1, a2) with
    a2^2 + a1*a2 + 3 = 0, a level whose minimal polynomial involves a1; or
    Q(a1, a2) with a2^2 = 3."""
    F = NumberField()
    if base:
        a1 = F.adjoin("a1", [-2, 0, 1])
        if base == 2:
            F.adjoin("a2", [3, a1, 1])
        elif base == 3:
            F.adjoin("a2", [-3, 0, 1])
    return F


# rational factors c of z^2 - c*y^2: squares, negatives, and square
# numerators over non-square denominators (16/3 is a square over sqrt 3)
_RATIONAL_FACTORS = tuple(
    Fraction(c) for c in ("1", "-1", "2", "3", "6", "1/3", "16/3", "9/2", "-4/5", "25/49")
)


def _draw_polynomial(rng, F, kind):
    """A polynomial of the given kind over F, with coefficients at its top
    level or, for about a third of the draws, one level below."""
    h = F.height()
    level = max(h - (rng.random() < 0.3), 0)

    def element(nonzero=False):
        while True:
            x = _random_element(rng, F, level)
            if x or not nonzero:
                return x

    lc = element(nonzero=True)
    if kind in ("split", "double"):
        r1 = element()
        r2 = r1 if kind == "double" else element()
        return [lc * r1 * r2, -lc * (r1 + r2), lc]
    if kind == "scaled square":  # z^2 - c*y^2: a rational or b = 0 radicand
        y = element(nonzero=True)
        return [-rng.choice(_RATIONAL_FACTORS) * y * y, Fraction(0), Fraction(1)]
    if kind == "square of a sum":  # the radicand (c + e*u)^2, or minus it
        x = element() + element(nonzero=True) * F.generator(h) if h else element()
        return [rng.choice((-1, 1)) * x * x, Fraction(0), Fraction(1)]
    if kind == "product":  # two random quadratics
        f = _draw_polynomial(rng, F, "random")
        return scalars._pmul(f, _draw_polynomial(rng, F, rng.choice(("random", "split"))))
    return [element(), element(), lc]


_QUADRATIC_KINDS = (
    "split", "double", "scaled square", "square of a sum", "random", "product",
)


def _as_text(x):
    """Nested lists and tuples of scalars as the same shape of texts;
    multiplicities (ints) stay."""
    if isinstance(x, (list, tuple)):
        return type(x)(_as_text(y) for y in x)
    return x if x.__class__ is int else scalar_str(x)


def _squarefree_factors(factor):
    """The factors by factor(field, level, f) of each squarefree part, in
    the order factor_univariate sorts them into."""
    def solve(F, poly):
        cs = [as_field_element(F, c) for c in poly]
        return [sorted(factor(F, F.height(), sf), key=scalars._poly_sort_key)
                for sf, _ in scalars.squarefree_decomposition(cs)]
    return solve


# (what is compared, the new routine, the reference)
_QUADRATIC_SOLVERS = (
    ("squarefree factors", _squarefree_factors(scalars._factor_squarefree),
     _squarefree_factors(_factor_by_norms)),
    ("roots", lambda F, p: roots_in_extension(F, p)[1], lambda F, p: _roots_by_factoring(F, p)[1]),
)


def _outcome(solve, base, seed, kind):
    """What solve gives on a seeded polynomial of the given kind over a fresh
    base field, as text, or its error, and the tower afterwards."""
    F = _quadratic_base(base)
    poly = _draw_polynomial(random.Random(seed), F, kind)
    try:
        result = _as_text(solve(F, poly))
    except TropliftError as e:
        result = (type(e).__name__, str(e))
    tower = [(lv.name, [scalar_str(c) for c in lv.minpoly]) for lv in F.levels]
    return result, tower


def test_quadratics_split_like_the_factoring_engine():
    """Seeded quadratics and products of two over Q, Q(sqrt 2), a level
    over it with a minimal polynomial involving sqrt 2, and Q(sqrt 2,
    sqrt 3): the same factors, roots in the same order, multiplicities,
    adjoined minimal polynomials, tower height and errors as the norm
    reference."""
    rng = random.Random(26)
    seen = {"split": 0, "adjoined": 0, "double": 0, "failed": 0}
    for draw in range(288):
        base = draw % 4
        kind = _QUADRATIC_KINDS[draw // 4 % len(_QUADRATIC_KINDS)]
        seed = rng.randrange(2**32)
        for what, new, reference in _QUADRATIC_SOLVERS:
            outcome = _outcome(new, base, seed, kind)
            assert outcome == _outcome(reference, base, seed, kind), (what, base, kind, seed)
        result, tower = outcome
        if not isinstance(result, list):
            seen["failed"] += 1
        elif any(m > 1 for _, m in result):
            seen["double"] += 1
        elif len(tower) > _quadratic_base(base).height():
            seen["adjoined"] += 1
        else:
            seen["split"] += 1
    assert min(seen.values()) >= 40, seen


def test_square_roots_of_squares_in_quadratic_towers():
    """_sqrt gives back +-y for y^2, and y*sqrt(c) with c a rational factor
    has a root exactly when z^2 - c*y^2 splits under the norm reference."""
    rng = random.Random(5)
    for draw in range(200):
        F = _quadratic_base(draw % 4)
        h = F.height()
        y = _random_element(rng, F, rng.randint(0, h))
        assert scalars._sqrt(F, h, y * y) in (y, -y)
        c = rng.choice(_RATIONAL_FACTORS)
        root = scalars._sqrt(F, h, c * y * y)
        _, factors = _factor_univariate_by_norms(F, [-c * y * y, 0, 1])
        assert (root is not None) == (len(factors) == 2 or not y), (draw, c, y)
        if root is not None:
            assert root * root == c * y * y


def _parity(poly, prepare, base):
    """(error type, error text, height afterwards) of roots_in_extension and
    of the reference on poly over a fresh base field set up by prepare."""
    got = []
    for solve in (roots_in_extension, _roots_by_factoring):
        F = _quadratic_base(base)
        prepare(F)
        with pytest.raises(ExtensionUnsupportedError) as e:
            solve(F, poly)
        got.append((type(e.value), str(e.value), F.height()))
    assert got[0] == got[1]
    return got[0]


def test_quadratic_errors_match_the_factoring_engine_at_the_bounds(monkeypatch):
    """The same error text and field height as the norm reference where the
    degree cap fails, and the norm path over a tower with a cubic level."""
    def adjoin_sqrt5(F):
        F.adjoin("a3", [-5, 0, 1])

    # irreducible over a height-2 quadratic tower: adjoined, then the
    # cofactor's cap check fails
    assert _parity([-7, 0, 1], lambda F: None, 3)[1:] == (
        "extension unsupported: irreducibility testing beyond degree 8 (got degree 16)", 3)
    # at height 3 the cap fails before any work, split or not
    for poly in ([-7, 0, 1], [-4, 0, 1], [-5, 0, 1]):
        assert _parity(poly, adjoin_sqrt5, 3)[1:] == (
            "extension unsupported: irreducibility testing beyond degree 8 (got degree 16)", 3)
    # a double root needs no factoring, at any height
    F = _quadratic_base(3)
    adjoin_sqrt5(F)
    assert roots_in_extension(F, [1, -2, 1])[1] == [(Fraction(1), 2)]

    # the cubic level of z^3 - 2 stays after its cofactor's cap check
    # fails; a quadratic over it takes the norm path
    def failed_cubic(F):
        with pytest.raises(ExtensionUnsupportedError, match=r"got degree 9\)"):
            roots_in_extension(F, [-2, 0, 0, 1])

    calls = []
    fn = scalars._sqrt
    monkeypatch.setattr(scalars, "_sqrt", lambda *args: calls.append(args) or fn(*args))
    assert _parity([-3, 0, 1], failed_cubic, 0)[1:] == (
        "extension unsupported: irreducibility testing beyond degree 8 (got degree 12)", 2)
    assert calls == []
    F = _quadratic_base(0)
    failed_cubic(F)
    assert roots_in_extension(F, [-4, 0, 1])[1] == [(Fraction(-2), 1), (Fraction(2), 1)]
    assert calls == [] and F.height() == 1


def _norm_by_resultants(field, level, f, s):
    """Trager's norm by evaluation, resultants and interpolation, the
    reference: Res_x(minpoly(x), f(z - s*x)) with the generator of level
    read as x, sampled at integers z where the x-degree does not drop."""
    mp = list(field.levels[level - 1].minpoly)
    vecs = []  # f's coefficients as polynomials in x over level-1
    for c in f:
        if c.__class__ is AlgebraicNumber and c.level == level:
            vecs.append(scalars._pnorm(c.coeffs))
        else:
            vecs.append([c] if c else [])
    zsx = [[Fraction(0), Fraction(-s)], [Fraction(1)]]  # z - s*x, by z-power
    power, F = [[Fraction(1)]], []  # F(x, z) as x-polynomials by z-power
    for i, vec in enumerate(vecs):
        if i > 0:
            new = [[] for _ in range(len(power) + 1)]
            for zi, xs in enumerate(power):
                for zj, xs2 in enumerate(zsx):
                    new[zi + zj] = scalars._padd(new[zi + zj], scalars._pmul(xs, xs2))
            power = new
        if vec:
            F += [[] for _ in range(len(power) - len(F))]
            for zi, xs in enumerate(power):
                F[zi] = scalars._padd(F[zi], scalars._pmul(xs, vec))
    F = [scalars._pnorm(xs) for xs in F]
    degx = max((len(xs) - 1 for xs in F if xs), default=0)
    samples, q = [], 0
    while len(samples) < (len(mp) - 1) * scalars._pdeg(f) + 1:
        fq = []
        for zi, xs in enumerate(F):
            fq = scalars._padd(fq, scalars._pscale(xs, Fraction(q) ** zi))
        fq = scalars._pnorm(fq)
        if scalars._pdeg(fq) == degx or degx == 0:
            samples.append((Fraction(q), _resultant(mp, fq) if fq else Fraction(0)))
        q = -q if q > 0 else -q + 1
    out = [Fraction(0)] * len(samples)  # Lagrange interpolation
    for i, (xi, yi) in enumerate(samples):
        num, den = [Fraction(1)], Fraction(1)
        for j, (xj, _) in enumerate(samples):
            if j != i:
                num = scalars._pmul(num, [-xj, Fraction(1)])
                den *= xi - xj
        out = scalars._padd(out, [c * (Fraction(1) / den) * yi for c in num])
    return scalars._pnorm(out)


def _resultant(a, b):
    """Resultant of two univariate polynomials over a field, by Euclid."""
    res, sign = Fraction(1), 1
    while True:
        da, db = len(a) - 1, len(b) - 1
        if db == 0:
            return res * b[0] ** da * sign
        r = scalars._pmod(a, b)
        if not r:
            return Fraction(0)
        assert len(r) < len(b), "a remainder did not shrink"
        if da * db % 2:
            sign = -sign
        res = res * b[-1] ** (da - len(r) + 1)
        a, b = b, r


# towers as lists of minimal polynomials, each over the levels before it;
# a callable builds its minimal polynomial from the generators so far
_NORM_TOWERS = (
    ([-2, 0, 1],),
    ([-2, 0, 0, 1],),
    ([-2, 0, 0, 0, 1],),
    ([1, 0, 0, 0, 1],),
    ([1, 1, 1],),
    ([-1, -1, 0, 1],),
    ([-2, 0, 1], [-3, 0, 1]),
    ([1, 1, 1], [-5, 0, 1]),
    ([-3, 0, 1], lambda g: [-1 - g[0], 0, 1]),
)


def _build_tower(tower):
    """A fresh field with one level g<i> per minimal polynomial of tower."""
    F = NumberField()
    for i, mp in enumerate(tower):
        if callable(mp):
            mp = mp([F.generator(k + 1) for k in range(i)])
        F.adjoin(f"g{i + 1}", mp)
    return F


def _random_element(rng, field, level):
    """A random element of the given level, zero coefficients likely."""
    if level == 0:
        if rng.random() < 0.3:
            return Fraction(0)
        return Fraction(rng.randint(-4, 4), rng.choice((1, 1, 1, 2, 3)))
    theta = field.generator(level)
    degree = field.levels[level - 1].degree
    return sum((_random_element(rng, field, level - 1) * theta**i
                for i in range(degree)), Fraction(0))


def test_charpoly_norm_matches_the_resultant_norm():
    """Seeded monic f over the towers above, shifts s in {0, +-1, 2, -3}
    and degrees up to the cap: the same norm text as the reference.  About
    a quarter of the draws have coefficients of lower levels only."""
    rng = random.Random(20)
    lower_only = 0
    for draw in range(900):
        tower = _NORM_TOWERS[draw % len(_NORM_TOWERS)]
        F = _build_tower(tower)
        level = rng.randint(1, F.height())
        total = 1
        for lv in F.levels[:level]:
            total *= lv.degree
        n = rng.randint(1, scalars._MAX_ADJOIN_DEGREE // total)
        low = rng.random() < 0.25
        lower_only += low
        f = [_random_element(rng, F, level - low) for _ in range(n)] + [Fraction(1)]
        s = rng.choice((0, 1, -1, 2, -3))
        got = scalars._bivariate_norm(F, level, f, s)
        want = scalars._pmonic(_norm_by_resultants(F, level, f, s))
        assert [scalar_str(c) for c in got] == [scalar_str(c) for c in want], (
            tower, level, [scalar_str(c) for c in f], s)
    assert 180 <= lower_only <= 270


# -- division, gcd and squarefree parts against the earlier helpers


def _ref_pdivmod(a, b):
    """_pdivmod as it was, the reference: the remainder is renormalised at
    every step, and its leading term subtracted and popped."""
    a = scalars._pnorm(a)
    b = scalars._pnorm(b)
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    inv_lc = Fraction(1) / b[-1]
    q = [Fraction(0)] * max(0, len(a) - len(b) + 1)
    r = list(a)
    while len(r) >= len(b) and scalars._pnorm(r):
        r = scalars._pnorm(r)
        if len(r) < len(b):
            break
        shift = len(r) - len(b)
        c = r[-1] * inv_lc
        q[shift] = q[shift] + c
        for i in range(len(b)):
            r[shift + i] = r[shift + i] - c * b[i]
        r.pop()
    return scalars._pnorm(q), scalars._pnorm(r)


def _ref_pgcd(a, b):
    """_pgcd as it was, the reference: Euclid down to a zero remainder,
    then made monic."""
    a = scalars._pnorm(a)
    b = scalars._pnorm(b)
    while b:
        a, b = b, _ref_pdivmod(a, b)[1]
    return scalars._pmonic(a)


def _ref_squarefree_decomposition(f):
    """Yun's algorithm on every input, quadratics included, the reference."""
    f = scalars._pmonic(f)
    df = scalars._pderiv(f)
    a = _ref_pgcd(f, df)
    b, _ = _ref_pdivmod(f, a)
    c, _ = _ref_pdivmod(df, a)
    d = scalars._psub(c, scalars._pderiv(b))
    out = []
    i = 1
    while scalars._pdeg(b) >= 1:
        a = _ref_pgcd(b, d)
        if scalars._pdeg(a) >= 1:
            out.append((a, i))
        b, _ = _ref_pdivmod(b, a)
        c, _ = _ref_pdivmod(d, a)
        d = scalars._psub(c, scalars._pderiv(b))
        i += 1
    return out


# Q, then the towers above (Q(sqrt 2) first)
_HELPER_TOWERS = ((),) + _NORM_TOWERS


def _random_poly(rng, F, degree, monic=False, zeros=0):
    """A polynomial of the given degree over F (the zero list for -1), with
    a nonzero leading coefficient, 1 when monic, and trailing zeros."""
    if degree < 0:
        return [Fraction(0)] * zeros
    level = rng.randint(0, F.height())
    lead = Fraction(1)
    while not monic and (lead == 1 or not lead):
        lead = _random_element(rng, F, level)
    body = [_random_element(rng, F, rng.randint(0, F.height())) for _ in range(degree)]
    return body + [lead] + [Fraction(0)] * zeros


def test_division_and_gcd_match_the_earlier_helpers():
    """Seeded draws over Q and the towers above: quotient, remainder and
    gcd texts equal the reference's, for monic, non-monic and constant
    divisors, divisors longer than the dividend, zero dividends and inputs
    with trailing zeros; products with a common factor give a gcd of
    positive degree."""
    rng = random.Random(27)
    seen = {"monic": 0, "non-monic": 0, "constant": 0, "longer": 0, "zero": 0,
            "trailing": 0, "common": 0, "coprime": 0}
    for draw in range(600):
        F = _build_tower(_HELPER_TOWERS[draw % len(_HELPER_TOWERS)])
        db = rng.choice((0, 1, 1, 2, 2, 3))
        da = rng.choice((-1, 0, 1, 2, 3, 4, 5))
        monic = rng.random() < 0.5
        b = _random_poly(rng, F, db, monic, zeros=rng.choice((0, 0, 1)))
        a = _random_poly(rng, F, da, zeros=rng.choice((0, 0, 0, 2)))
        got, want = scalars._pdivmod(a, b), _ref_pdivmod(a, b)
        assert _as_text(got) == _as_text(want) and got == want, (a, b)
        q, r = got
        assert scalars._pnorm(scalars._padd(scalars._pmul(q, b), r)) == scalars._pnorm(a)
        seen["constant" if db == 0 else "monic" if monic else "non-monic"] += 1
        seen["longer"] += da < db
        seen["zero"] += da < 0
        seen["trailing"] += len(a) > da + 1 or len(b) > db + 1
        if rng.random() < 0.5:  # a common factor
            g = _random_poly(rng, F, rng.randint(1, 2))
            a, b = scalars._pmul(a, g), scalars._pmul(b, g)
        got, want = scalars._pgcd(a, b), _ref_pgcd(a, b)
        assert _as_text(got) == _as_text(want) and got == want, (a, b)
        seen["common" if len(got) > 1 else "coprime"] += 1
    assert min(seen.values()) >= 40, seen


def _quadratic(rng, F, kind):
    """lc*(z - r1)*(z - r2) with r2 = r1 for a zero discriminant, or
    lc*z^2 + p*z + q with random p and q; lc is 1 in about a third."""
    level = rng.randint(0, F.height())
    lc = Fraction(1) if rng.random() < 0.3 else _random_poly(rng, F, 0)[0]
    if kind == "random":
        return [_random_element(rng, F, level), _random_element(rng, F, level), lc]
    r1 = _random_element(rng, F, level)
    r2 = r1 if kind == "double" else _random_element(rng, F, level)
    return [lc * r1 * r2, -lc * (r1 + r2), lc]


def test_squarefree_quadratics_match_yun():
    """Quadratics with zero, square and random discriminants, monic or not,
    over Q and the towers above, and polynomials of other degrees: the same
    squarefree parts and multiplicities as Yun's algorithm on the earlier
    helpers."""
    rng = random.Random(2027)
    seen = {"double": 0, "split": 0, "random": 0, "other": 0, "non-monic": 0}
    for draw in range(450):
        F = _build_tower(_HELPER_TOWERS[draw % len(_HELPER_TOWERS)])
        kind = ("double", "split", "random", "other")[draw // len(_HELPER_TOWERS) % 4]
        if kind == "other":  # times a square half the time
            f = _random_poly(rng, F, rng.choice((0, 1, 3, 4)))
            if rng.random() < 0.5:
                h = _random_poly(rng, F, 1, monic=True)
                f = scalars._pmul(f, scalars._pmul(h, h))
        else:
            f = _quadratic(rng, F, kind)
        got, want = scalars.squarefree_decomposition(f), _ref_squarefree_decomposition(f)
        assert _as_text(got) == _as_text(want) and got == want, (kind, f)
        if kind == "double":
            assert got == [([f[1] / (2 * f[2]), Fraction(1)], 2)]
        seen[kind] += 1
        seen["non-monic"] += f[-1] != 1
    assert min(seen.values()) >= 40, seen


# -- the rational leaf: Zassenhaus's method against sympy as the reference


def _sympy_factors(cs):
    """Monic irreducible factors over Q by sympy, sorted as troplift sorts."""
    rational = [sympy.Rational(c.numerator, c.denominator) for c in reversed(cs)]
    out = []
    for fac, mult in sympy.Poly(rational, sympy.Symbol("z")).factor_list()[1]:
        assert mult == 1
        lc = fac.LC()
        out.append([Fraction(int(c.p), int(c.q)) for c in
                    (c / lc for c in reversed(fac.all_coeffs()))])
    return sorted(out, key=scalars._poly_sort_key)


def _product(factors):
    out = [Fraction(1)]
    for f in factors:
        out = scalars._pmul(out, f)
    return out


def _is_squarefree(cs):
    return scalars.squarefree_decomposition(cs) == [(scalars._pmonic(cs), 1)]


# x^4 + 1 and the Swinnerton-Dyer polynomial of sqrt(2), sqrt(3), sqrt(5)
# are irreducible but split into linear or quadratic factors mod every
# prime; Phi_5 * Phi_3 splits mod p into many factors whenever p = 1 mod 15
_MANY_MODULAR_FACTORS = [
    [1, 0, 0, 0, 1],
    _product([[Fraction(1)] * 5, [Fraction(1)] * 3]),
    [576, 0, -960, 0, 352, 0, -40, 0, 1],
]


def test_rational_factors_match_sympy():
    rng = random.Random(14)

    def coefficient(bits):
        return Fraction(rng.randint(-(2**bits), 2**bits), rng.randint(1, 60))

    def random_poly(degree, bits):
        cs = [coefficient(bits) for _ in range(degree)]
        return cs + [Fraction(rng.randint(1, 2**bits), rng.randint(1, 60))]

    inputs = [[Fraction(c) for c in f] for f in _MANY_MODULAR_FACTORS]
    while len(inputs) < 160:  # products of factors of degree 1-4, total <= 8
        bits = rng.choice((3, 12, 100))
        factors, total = [], 0
        while True:
            degree = rng.randint(1, 4)
            if total + degree > 8 or (total >= 2 and rng.random() < 0.3):
                break
            factors.append(random_poly(degree, bits))
            total += degree
        if total >= 2:
            inputs.append(_product(factors))
    for degree in range(2, 9):  # irreducible with high probability
        for bits in (3, 100):
            inputs.append(random_poly(degree, bits))
    checked = 0
    for cs in inputs:
        cs = scalars._pmonic(cs)
        if not _is_squarefree(cs):
            continue
        got = sorted(scalars._factor_rational_squarefree(cs), key=scalars._poly_sort_key)
        assert got == _sympy_factors(cs), cs
        checked += 1
    assert checked > 150
    counts = [len(scalars._factor_rational_squarefree(f)) for f in inputs[:3]]
    assert counts == [1, 2, 1]


_FACTOR_COEFFS = st.fractions(min_value=-50, max_value=50, max_denominator=9)
_FACTORS = st.lists(_FACTOR_COEFFS, min_size=2, max_size=4).filter(lambda f: f[-1] != 0)


@seed(2014)
@settings(max_examples=80, database=None, deadline=None)
@given(st.lists(_FACTORS, min_size=1, max_size=4))
def test_rational_factors_multiply_back_to_the_input(factors):
    cs = scalars._pmonic(_product(factors))
    assume(2 <= len(cs) - 1 <= 8 and _is_squarefree(cs))
    out = scalars._factor_rational_squarefree(cs)
    assert all(f[-1] == 1 for f in out)
    assert _product(out) == cs


def test_prime_search_goes_past_the_odd_primes_below_100():
    """z^2 - N, N the product of the odd primes below 100: every one of them
    divides the discriminant, so Zassenhaus's method works modulo 101."""
    N = 1
    for p in range(3, 100, 2):
        if all(p % q for q in range(3, p, 2)):
            N *= p
    cs = [Fraction(-N), Fraction(0), Fraction(1)]
    assert scalars._factor_rational_squarefree(cs) == [cs]
    for argv, want in (
        (["np-solve", f"--coeffs=-{N}*t^(2);0;1", "--N", "3"],
         "root=-a1*t^(1)\nroot=a1*t^(1)\nroots=2\n"),
        (["lift", "--vars", "x,y", "--ideal", f"y^2-{N}*x^2", "--w", "1,1",
          "--N", "3"],
         "point=t^(1); a1*t^(1)\nachieved=1; 1\nresidual_bounds=inf\n"),
    ):
        out, err = io.StringIO(), io.StringIO()
        assert (cli.run(argv, out, err), out.getvalue(), err.getvalue()) == (
            0, want, "")
