"""End-to-end acceptance gate.

One test per acceptance criterion; each prints a single PASS/FAIL line
(visible with pytest -s, or in captured output on failure) and enforces
its runtime bound where one is stated.
"""

import functools
import io
import itertools
import json
import math
import random
import time
from fractions import Fraction
from itertools import combinations, permutations

from troplift import ideals
from troplift.cli import run as cli_run
from troplift.errors import NonMemberError
from troplift.ideals import (
    IdealPresentation,
    dimension,
    eliminate,
    ideals_equal,
    normal_form,
    presentation,
)
from troplift.lifting import (
    LiftProblem,
    descend,
    lift_point,
    newton_puiseux,
    rational_span,
    verify_lift,
)
from troplift.parsing import parse_poly
from troplift.polyring import INF, OrderDescriptor, PolyRing, inject
from troplift.scalars import NumberField, ValueScalar, as_value
from troplift.series import ValuedSeries, substitute
from troplift.tropical import trop_member
from troplift.valfan import CosetValuationHandle, tensor_combine


def criterion(num, title):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print("ACCEPTANCE %2d %-52s FAIL" % (num, title))
                raise
            print("ACCEPTANCE %2d %-52s PASS" % (num, title))
        return wrapper
    return deco


def spoly(f, g, order):
    """The S-polynomial of f and g under the order."""
    return ideals._spoly(ideals._record(f, order), ideals._record(g, order))


def _fresh_ideal(names, texts, mode="global", w=None):
    ring = PolyRing(NumberField(), names)
    gens = [parse_poly(t, ring) for t in texts]
    return ring, presentation(ring, gens, mode, w)


def _binomial_half(k):
    """Coefficient of t^k in (1+t)^(1/2), as an exact fraction."""
    num = Fraction(1)
    for i in range(k):
        num *= Fraction(1, 2) - i
    return num / math.factorial(k)


# -- corpus shared by criteria 3 and 10 -------------------------------------

_CORPUS = [
    (("x", "y"), ["x + y"]),
    (("x", "y"), ["y^2 - x^3"]),
    (("x", "y"), ["y^2 - x^2 - x^3"]),
    (("x", "y"), ["x*y"]),
    (("x", "y"), ["y - x^2"]),
    (("x", "y"), ["y^3 - x^4"]),
    (("x", "y", "z"), ["x + y + z"]),
    (("x", "y", "z"), ["x + y + z", "x - z"]),
    (("x", "y", "z"), ["x*y - z^2"]),
    (("x", "y", "z"), ["y - x^2", "z - x^3"]),
]


def _grid(nvars):
    if nvars == 2:
        return list(itertools.product(range(1, 9), repeat=2))
    return list(itertools.product(range(1, 5), repeat=3))


@functools.lru_cache(maxsize=1)
def _corpus_membership():
    """[(names, texts, dim, [(w, member)])] for the whole corpus."""
    out = []
    for names, texts in _CORPUS:
        _, I = _fresh_ideal(names, texts)
        rows = [(w, trop_member(I, w).member) for w in _grid(len(names))]
        out.append((names, tuple(texts), dimension(I), rows))
    return out


# -- pair corpus shared by criteria 5 and 6 ---------------------------------

def _random_local_poly(ring, rng, terms=3, deg=3):
    entries = {}
    for _ in range(terms):
        mono = tuple(rng.randint(0, deg) for _ in range(ring.nvars()))
        if sum(mono) == 0 or sum(mono) > deg:
            continue
        c = rng.randint(-4, 4)
        if c:
            entries[mono] = Fraction(c)
    if not entries:
        return None
    return ring.from_terms(list(entries.items()))


@functools.lru_cache(maxsize=1)
def _pair_corpus():
    """20 pairs of local ideals in disjoint variables with weights."""
    rng = random.Random(20260826)
    pairs = []
    while len(pairs) < 20:
        field = NumberField()
        nx = rng.randint(1, 3)
        ny = rng.randint(1, 3)
        RX = PolyRing(field, tuple("x%d" % i for i in range(1, nx + 1)))
        RY = PolyRing(field, tuple("y%d" % i for i in range(1, ny + 1)))
        fx = [_random_local_poly(RX, rng) for _ in range(rng.randint(1, 2))]
        fy = [_random_local_poly(RY, rng) for _ in range(rng.randint(1, 2))]
        fx = [f for f in fx if f is not None]
        fy = [f for f in fy if f is not None]
        if not fx or not fy:
            continue
        w1 = tuple(ValueScalar(rng.randint(1, 3)) for _ in range(nx))
        w2 = tuple(ValueScalar(rng.randint(1, 3)) for _ in range(ny))
        I = presentation(RX, fx, "local", w1)
        J = presentation(RY, fy, "local", w2)
        pairs.append((I, J, w1, w2))
    return pairs


@criterion(1, "cusp golden lift (t^2, t^3), exact zero residual")
def test_criterion_01_cusp_golden_lift():
    start = time.perf_counter()
    ring, I = _fresh_ideal(("x", "y"), ["y^2 - x^3"], "local", (2, 3))
    result = lift_point(LiftProblem(I, (2, 3), 10))
    assert result.achieved == (ValueScalar(2), ValueScalar(3))
    residual = substitute(I.generators[0], result.point)
    assert residual.terms == ()
    assert residual.truncation is INF
    assert result.residuals == (INF,)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, "took %.3fs" % elapsed


@criterion(2, "node golden lift matches the binomial oracle")
def test_criterion_02_node_binomial_oracle():
    ring, I = _fresh_ideal(("x", "y"), ["y^2 - x^2 - x^3"], "local", (1, 1))
    result = lift_point(LiftProblem(I, (1, 1), 5))
    x, y = result.point
    assert x.terms == ((ValueScalar(1), Fraction(1)),)
    # y = +- t * (1+t)^(1/2); the oracle is the exact binomial series
    sign = 1 if y.coefficient(1) == 1 else -1
    assert y.coefficient(1) == sign
    for k in range(5):
        expected = sign * _binomial_half(k)
        exponent = ValueScalar(k + 1)
        got = y.coefficient(exponent)
        if got is None:
            got = Fraction(0)
        assert got == expected, "t^%d: %s vs %s" % (k + 1, got, expected)
    residual = substitute(I.generators[0], result.point)
    v = residual.valuation()
    from troplift.series import valuation_at_least

    assert valuation_at_least(v, ValueScalar(5))


@criterion(3, "corpus round trip: member iff lift succeeds, verified")
def test_criterion_03_corpus_round_trip():
    start = time.perf_counter()
    checked = 0
    lifted = 0
    for names, texts, _dim, rows in _corpus_membership():
        assert len(rows) >= 50
        for w, member in rows:
            # a fresh scalar context per lift, as lifts grow their field
            ring, I = _fresh_ideal(names, list(texts), "local", w)
            try:
                result = lift_point(LiftProblem(I, w, 3))
                succeeded = True
            except NonMemberError:
                succeeded = False
            assert member == succeeded, (texts, w)
            if succeeded:
                assert verify_lift(result).ok(), (texts, w)
                lifted += 1
            checked += 1
    elapsed = time.perf_counter() - start
    assert checked == 640
    assert lifted >= 50
    assert elapsed < 60.0, "took %.1fs" % elapsed


@criterion(4, "descent chain: one step on 3 vars, two steps on 4 vars")
def test_criterion_04_descent_chain():
    ring, I = _fresh_ideal(("x1", "x2", "x3"), ["x1 + x2 + x3"], "local",
                           (1, 1, 1))
    result = lift_point(LiftProblem(I, (1, 1, 1), 6))
    assert len(result.descents) == 1
    step = result.descents[0]
    assert step.nonzerodivisor_ok and step.additivity_ok and step.monomial_free_ok
    assert step.dim_before == 2 and step.dim_after == 1
    assert result.achieved == (ValueScalar(1),) * 3
    assert verify_lift(result).ok()

    ring4, I4 = _fresh_ideal(("x1", "x2", "x3", "x4"),
                             ["x1 + x2 + x3 + x4"], "local", (1, 1, 1, 1))
    result4 = lift_point(LiftProblem(I4, (1, 1, 1, 1), 6))
    assert len(result4.descents) == 2
    assert all(s.ok() for s in result4.descents)
    dims = [(s.dim_before, s.dim_after) for s in result4.descents]
    assert dims == [(3, 2), (2, 1)]
    assert result4.achieved == (ValueScalar(1),) * 4
    assert verify_lift(result4).ok()


@criterion(5, "tensor certificates on 20 random disjoint pairs")
def test_criterion_05_tensor_certificates():
    for I, J, w1, w2 in _pair_corpus():
        combined, cert = tensor_combine(I, J, w1, w2)
        assert cert.initial_match
        if cert.left_monomial_free and cert.right_monomial_free:
            assert cert.combined_monomial_free
        assert cert.ok()
        assert combined.ring.nvars() == I.ring.nvars() + J.ring.nvars()


@criterion(6, "basis stability and product = intersection on pairs")
def test_criterion_06_stability_and_product_intersection():
    for I, J, w1, w2 in _pair_corpus():
        nx, ny = I.ring.nvars(), J.ring.nvars()
        field = NumberField()
        big = PolyRing(field, I.ring.vars + J.ring.vars)
        # stability: a standard basis keeps reducing its S-pairs to zero
        # after disjoint variables join the ring
        w_all = tuple(w1) + tuple(w2)
        order = OrderDescriptor(w_all, "local")
        lifted = [inject(g, big, list(range(nx))) for g in I.standard_basis()]
        lifted_ideal = IdealPresentation(big, lifted, order)
        for f, g in combinations(lifted, 2):
            assert normal_form(spoly(f, g, order), lifted_ideal).is_zero
        lifted_j = [
            inject(g, big, list(range(nx, nx + ny)))
            for g in J.standard_basis()
        ]
        lifted_j_ideal = IdealPresentation(big, lifted_j, order)
        for f, g in combinations(lifted_j, 2):
            assert normal_form(spoly(f, g, order), lifted_j_ideal).is_zero
        # product = intersection, computed independently by elimination
        ext = PolyRing(field, ("t_",) + I.ring.vars + J.ring.vars)
        FX = [inject(g, ext, list(range(1, nx + 1))) for g in I.generators]
        FY = [
            inject(g, ext, list(range(nx + 1, nx + ny + 1)))
            for g in J.generators
        ]
        product = [f * g for f in FX for g in FY]
        t = ext.var(0)
        one = ext.from_terms([((0,) * ext.nvars(), Fraction(1))])
        mix = [t * f for f in FX] + [(one - t) * g for g in FY]
        inter = eliminate(ext, mix, [0])
        assert ideals_equal(
            presentation(ext, list(inter), "global"),
            presentation(ext, product, "global"),
        )


_HANDLES = [
    (("x", "y"), ["y^2 - x^3"], (2, 3)),
    (("x", "y"), ["y^2 - x^2 - x^3"], (1, 1)),
    (("x", "y"), ["x - y - y^2"], (1, 1)),
    (("x", "y", "z"), ["x + y + z"], (1, 1, 1)),
    (("x", "y", "z"), ["x*y - z^2"], (1, 1, 1)),
]


@criterion(7, "coset valuation axioms: 5 handles x 200 pairs")
def test_criterion_07_coset_valuation_axioms():
    from troplift.ideals import ideal_member
    from troplift.polyring import w_order

    for names, texts, w in _HANDLES:
        ring, I = _fresh_ideal(names, texts, "local", w)
        handle = CosetValuationHandle(I, w)
        assert handle.monomial_free
        rng = random.Random("acceptance:%s" % (texts,))
        for _ in range(200):
            g = _random_local_poly(ring, rng, terms=3, deg=2)
            h = _random_local_poly(ring, rng, terms=3, deg=2)
            if g is None or h is None:
                continue
            vg, vh = handle.value(g), handle.value(h)
            vp = handle.value(g * h)
            if vg is INF or vh is INF:
                assert vp is INF
            else:
                assert vp == vg + vh
            vs = handle.value(g + h)
            lo = min(vg, vh)
            if lo is INF:
                assert vs is INF
            else:
                assert vs >= lo
            if vg is not INF:
                assert vg >= w_order(g, handle.data.weights)
            assert (vg is INF) == ideal_member(g, I)


def _product_poly(field, factors):
    coeffs = [ValuedSeries.constant(field, 1)]
    for s in factors:
        nxt = [ValuedSeries.zero(field)] * (len(coeffs) + 1)
        for i, c in enumerate(coeffs):
            nxt[i + 1] = nxt[i + 1] + c
            nxt[i] = nxt[i] + c * (-s)
        coeffs = nxt
    return coeffs


def truncate(s, bound):
    """The series s with everything at or above the bound forgotten."""
    return ValuedSeries(s.field, list(s.terms), min(s.truncation, as_value(bound)), s.mode)


def _same_multiset_up_to(roots, factors, cut):
    rs = [truncate(r, cut) for r in roots]
    fs = [truncate(f, cut) for f in factors]
    for perm in permutations(range(len(fs))):
        if all(rs[i] == fs[j] for i, j in enumerate(perm)):
            return True
    return False


@criterion(8, "Newton polygon recovers 100 random factorizations")
def test_criterion_08_newton_puiseux_reconstruction():
    rng = random.Random(4242)
    for trial in range(100):
        field = NumberField()
        deg = rng.randint(1, 3)
        truncated = trial >= 50
        factors = []
        for _ in range(deg):
            den = rng.choice([1, 1, 2, 3])
            terms = []
            for _ in range(rng.randint(1, 3)):
                e = Fraction(rng.randint(1, 12), den)
                c = rng.randint(-4, 4)
                if c:
                    terms.append((e, Fraction(c)))
            trunc = (
                ValueScalar(Fraction(rng.randint(18, 24), den))
                if truncated
                else INF
            )
            factors.append(ValuedSeries(field, terms, trunc, "puiseux"))
        coeffs = _product_poly(field, factors)
        N = 5 if truncated else 14
        roots = newton_puiseux(coeffs, N)
        assert len(roots) == deg, "trial %d: %d roots for degree %d" % (
            trial, len(roots), deg,
        )
        assert _same_multiset_up_to(roots, factors, ValueScalar(N)), (
            "trial %d" % trial
        )


@criterion(9, "hahn mode lifts the quadric at (1, sqrt2, (1+sqrt2)/2)")
def test_criterion_09_hahn_mode():
    rt = ValueScalar(0, 1, 2)
    mid = ValueScalar(Fraction(1, 2), Fraction(1, 2), 2)
    w = (ValueScalar(1), rt, mid)
    ring, I = _fresh_ideal(("x", "y", "z"), ["x*y - z^2"], "local", w)
    assert trop_member(presentation(ring, list(I.generators), "global"), w).member
    result = lift_point(LiftProblem(I, w, 6, mode="hahn"))
    assert result.achieved == w
    assert tuple(str(s) for s in result.point) == (
        "t^(1)", "t^(sqrt(2))", "t^(1/2+1/2*sqrt(2))"
    )
    for s in result.point:
        for e, c in s.terms:
            assert e.d in (1, 2)
            assert e.a.denominator <= 2 and e.b.denominator <= 2
    residual = substitute(I.generators[0], result.point)
    assert residual.is_exact_zero
    assert verify_lift(result).ok()


@criterion(10, "Abhyankar bound r <= dim(I) on all member points")
def test_criterion_10_abhyankar_bound():
    points = 0
    for names, texts, dim, rows in _corpus_membership():
        for w, member in rows:
            if not member:
                continue
            span = rational_span(w)
            assert span.rank <= dim, (texts, w, span.rank, dim)
            points += 1
    # the irrational member point of the hahn criterion as well
    rt = ValueScalar(0, 1, 2)
    mid = ValueScalar(Fraction(1, 2), Fraction(1, 2), 2)
    ring, I = _fresh_ideal(("x", "y", "z"), ["x*y - z^2"])
    span = rational_span((ValueScalar(1), rt, mid))
    assert span.rank == 2
    assert span.rank <= dimension(I)
    points += 1
    assert points >= 50


_GOLDEN_ARGVS = [
    ["trop-member", "--vars", "x,y", "--ideal", "y^2-x^3", "--w", "2,3"],
    ["trop-member", "--vars", "x,y", "--ideal", "x+y", "--w", "1,2"],
    ["lift", "--vars", "x,y", "--ideal", "y^2-x^3", "--w", "2,3",
     "--N", "10", "--json"],
    ["lift", "--vars", "x,y", "--ideal", "y^2-x^2-x^3", "--w", "1,1",
     "--N", "5", "--json"],
    ["lift", "--vars", "x,y,z", "--ideal", "x+y+z", "--w", "1,1,1",
     "--N", "6", "--seed", "1", "--json"],
    ["lift", "--vars", "x,y,z", "--ideal", "x*y-z^2",
     "--w", "1,sqrt(2),(1+sqrt(2))/2", "--N", "4", "--mode", "hahn",
     "--d", "2", "--json"],
    ["init-ideal", "--vars", "x,y", "--ideal", "x+y;x-y^2", "--w", "1,1",
     "--json"],
    ["coset-val", "--vars", "x,y", "--ideal", "x-y-y^2", "--w", "1,1",
     "--g", "x-y", "--json"],
    ["cone", "--vars", "x,y", "--ideal", "y^2-x^3", "--w", "2,3", "--json"],
    ["trop-hyper", "--vars", "x,y", "--ideal", "y^2-x^2-x^3", "--json"],
    ["trop-enum", "--vars", "x,y", "--ideal", "y^2-x^3", "--seed", "7",
     "--json"],
    ["tensor", "--vars", "x1,x2", "--ideal", "x1+x2", "--w", "1,1",
     "--vars2", "y1,y2", "--ideal2", "y1+y2", "--w2", "2,2", "--json"],
    ["verify", "--vars", "x,y", "--ideal", "y^2-x^3", "--w", "2,3",
     "--N", "10", "--point", "t^(2); t^(3)", "--json"],
    ["np-solve", "--coeffs=-t^(2)-t^(3);0;1", "--N", "8", "--json"],
]


def _run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    code = cli_run(argv, out, err)
    return code, out.getvalue(), err.getvalue()


@criterion(11, "CLI goldens byte-identical across two runs")
def test_criterion_11_cli_determinism():
    for argv in _GOLDEN_ARGVS:
        first = _run_cli(argv)
        second = _run_cli(argv)
        assert first == second, argv
        assert first[0] in (0, 1), (argv, first)
        if "--json" in argv:
            for line in first[1].splitlines():
                json.loads(line)
