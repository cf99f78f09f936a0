"""Standard and Groebner bases, ideal predicates, torus witness points."""

import heapq
import io
import random
from fractions import Fraction
from itertools import combinations

import pytest

from test_acceptance import _CORPUS, _grid, spoly
from troplift import cli, ideals, scalars
from troplift.errors import InternalInvariantError, UsageError, WitnessSearchError
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
    torus_point,
)
from troplift.parsing import parse_poly
from troplift.polyring import (
    OrderDescriptor,
    Polynomial,
    PolyRing,
    expo_add,
    expo_deg,
    expo_divides,
    expo_lcm,
    expo_sub,
    leading_term,
    move,
    poly_str,
    substitute_scalars,
    w_order,
)
from troplift.scalars import (
    NumberField,
    ValueScalar,
    as_field_element,
    scalar_str,
)
from troplift.tropical import trop_member
from troplift.valfan import initial_ideal


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
        assert divide(spoly(f, g, order), lead_records(basis, order), order)[1].is_zero


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
    assert normal_form(_p(R, "x + y"), _ideal(R, ["x", "y"])).is_zero
    assert normal_form(_p(R, "x^2"), _ideal(R, ["y"])) == _p(R, "x^2")
    local = _ideal(R, ["x - y - y^2"], "local", (ValueScalar(1), ValueScalar(1)))
    assert normal_form(_p(R, "x - y"), local) == _p(R, "y^2")


def test_normal_form_idempotent_and_membership():
    R = _ring("x", "y", "z")
    rng = random.Random(31)
    I = _ideal(R, ["x*y - z^2", "x + z"])
    basis = I.standard_basis()
    for _ in range(40):
        mono = tuple(rng.randint(0, 2) for _ in range(3))
        f = R.from_terms([(mono, Fraction(rng.randint(-4, 4) or 1))])
        g = f + basis[0] * R.var(rng.randint(0, 2))
        r = normal_form(g, I)
        assert normal_form(r, I) == r
        assert ideal_member(g - r, I)


def _random_poly(R, rng, monomials):
    terms = [(m, Fraction(rng.randint(-5, 5), rng.randint(1, 3))) for m in monomials]
    return R.from_terms(terms)


def _check_division(f, divisors, order):
    records = lead_records(divisors, order)
    quots, rem = divide(f, records, order)
    assert len(quots) == len(records)
    total = rem
    for q, (d, _, _) in zip(quots, records):
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


def _divide_by_max_scan(f, records, order):
    """divide as it was, the reference for the heap pass: each step rescans
    the running polynomial for its largest monomial and reduces it by the
    first record whose leading monomial divides it."""
    quots = [{} for _ in records]
    rem = {}
    h = f
    while not h.is_zero:
        m = max(h.coeffs, key=order.key)
        c = h.coeffs[m]
        for q, (g, mg, cg) in zip(quots, records):
            if expo_divides(mg, m):
                q[expo_sub(m, mg)] = c / cg
                h = h - g.mul_term(expo_sub(m, mg), c / cg)
                break
        else:
            rem[m] = c
            h = h - Polynomial(f.ring, {m: c})
    return [Polynomial(f.ring, q) for q in quots], Polynomial(f.ring, rem)


def _assert_same_division(f, divisors, order):
    records = lead_records(divisors, order)
    quots, rem = divide(f, records, order)
    want_quots, want_rem = _divide_by_max_scan(f, records, order)
    assert [q.coeffs for q in quots] == [q.coeffs for q in want_quots], str(f)
    assert rem.coeffs == want_rem.coeffs, str(f)


_SQRT2 = ValueScalar(0, 1, 2)


def test_divide_matches_max_scan_global():
    rng = random.Random(2026)
    R = _ring("x", "y", "z")
    weights = [(0, 0, 0), (1, 0, 2), (2, 1, 1), (1, _SQRT2, 0)]

    def monos(k, top):
        return [tuple(rng.randint(0, top) for _ in range(3)) for _ in range(k)]

    for _ in range(150):
        w = rng.choice(weights)
        order = OrderDescriptor([ValueScalar.of(x) for x in w], "global")
        f = _random_poly(R, rng, monos(rng.randint(1, 8), 5))
        k = rng.randint(1, 4)
        divisors = [_random_poly(R, rng, monos(rng.randint(1, 3), 2)) for _ in range(k)]
        _assert_same_division(f, divisors, order)


def test_divide_matches_max_scan_weight_homogeneous_local():
    rng = random.Random(2027)
    R = _ring("x", "y", "z")
    w = (1, 2, 3)
    order = OrderDescriptor([ValueScalar(x) for x in w], "local")

    def level(k):
        # the monomials x^a y^b z^c with a + 2b + 3c = k
        return [(k - 2 * b - 3 * c, b, c)
                for c in range(k // 3 + 1) for b in range((k - 3 * c) // 2 + 1)]

    def sample(k, most):
        monos = level(k)
        return rng.sample(monos, min(len(monos), rng.randint(1, most)))

    for _ in range(150):
        f = _random_poly(R, rng, sample(rng.randint(3, 9), 6))
        divisors = [
            _random_poly(R, rng, sample(rng.randint(1, 4), 3))
            for _ in range(rng.randint(1, 4))
        ]
        _assert_same_division(f, divisors, order)


def _old_spair_loop(gens, order, nf, pair):
    """The S-pair loop as it was before Lazard's method, the reference for
    both engines: the normal form and the pair selection are parameters, and
    no chain criterion skips a pair."""
    G = []
    for g in gens:
        if not g.is_zero:
            rec = ideals._entry(g, order)
            if all(rec[0] != r[0] for r in G):
                G.append(rec)
    pairs = []

    def add_pairs(k):
        for i in range(k):
            heapq.heappush(pairs, pair(order, G[i], G[k], i, k))

    for k in range(len(G)):
        add_pairs(k)
    reductions = 0
    guard = 0
    while pairs:
        guard += 1
        if guard > 20000:
            raise InternalInvariantError("standard basis computation did not terminate")
        key, skip = heapq.heappop(pairs)
        if skip:
            continue
        i, j = key[-2:]
        h = nf(ideals._spoly(G[i], G[j]), G, order)
        reductions += 1
        if not h.is_zero:
            G.append(ideals._entry(h, order))
            add_pairs(len(G) - 1)
    return ideals._minimalize(G), reductions


def _global_pair(order, a, b, i, j):
    """Pair key by degree of the lcm, and whether the pair is skipped:
    coprime leading monomials give an S-polynomial reducing to zero."""
    m = expo_lcm(a[1], b[1])
    return (expo_deg(m), m, i, j), m == expo_add(a[1], b[1])


def _level(m, order):
    """The weight level of m under a local order: a positive multiple of
    <w, m>, the negated first entry of its key."""
    return -order.key(m)[0]


def _local_pair(order, a, b, i, j):
    """Pair key by weight level, then degree, of the lcm; no pair is
    skipped."""
    m = expo_lcm(a[1], b[1])
    return (_level(m, order), expo_deg(m), m, i, j), False


def _ecart(f, order):
    """Highest minus lowest weight level of a nonzero f; the Mora divisor
    selection key."""
    levels = [_level(m, order) for m in f.coeffs]
    return max(levels) - min(levels)


def _mora_nf(f, records, order):
    """Mora's weak normal form, the reference for local membership and the
    local normal form: u*f = sum q_i g_i + r with u a local unit and the
    leading monomial of r outside the leading ideal; zero exactly for
    members when the records are those of a standard basis.  The T-set
    holds (ecart, record) pairs."""
    T = [(_ecart(rec[0], order), rec) for rec in records]
    h = f
    for _ in range(50000):
        if h.is_zero:
            return h
        m, c = leading_term(h, order)
        cands = [(e, i) for i, (e, rec) in enumerate(T) if expo_divides(rec[1], m)]
        if not cands:
            return h
        eh = _ecart(h, order)
        eg, (g, mg, cg) = T[min(cands)[1]]
        if eg > eh:
            T.append((eh, (h, m, c)))
        h = h - g.mul_term(expo_sub(m, mg), c / cg)
    raise AssertionError("Mora reduction did not terminate")


def _mora_std_by_mora(gens, order):
    """Mora's algorithm, the local engine before Lazard's method: the
    tangent-cone normal form inside the loop and every pair reduced."""
    G, reductions = _old_spair_loop(gens, order, _mora_nf, _local_pair)
    return ideals._finish(G, reductions, order)


def _buchberger_by_rounds(gens, order):
    """_buchberger as it was, the reference for the one-pass finish and the
    chain criterion: S-pairs by max-scan division, no chain criterion, then
    whole interreduction rounds until nothing changes, then the basis in
    ascending order."""
    def nf(f, records, order):
        return _divide_by_max_scan(f, records, order)[1]

    G, reductions = _old_spair_loop(gens, order, nf, _global_pair)
    changed = True
    rounds = 0
    while changed and rounds < 100:
        changed = False
        rounds += 1
        for i in range(len(G)):
            r = nf(G[i][0], G[:i] + G[i + 1 :], order)
            if r.is_zero:
                G.pop(i)
                changed = True
                break
            rec = ideals._entry(r, order)
            if rec[0] != G[i][0]:
                G[i] = rec
                changed = True
    G.sort(key=lambda r: order.key(r[1]))
    return [r[0] for r in G], reductions, ideals._is_reduced(G)


def test_buchberger_matches_round_interreduction():
    rng = random.Random(2028)
    rings = [(_ring("x", "y"), 3), (_ring("x", "y", "z"), 2)]
    weights = [(0, 0, 0), (1, 0, 2), (0, 1, 1), (1, _SQRT2, 0)]
    for _ in range(80):
        R, count = rng.choice(rings)
        w = rng.choice(weights)[: R.nvars()]
        order = OrderDescriptor([ValueScalar.of(x) for x in w], "global")
        gens = list(_random_ideal(R, rng, count, 3, 2).generators)
        basis, reductions, reduced = ideals._buchberger(gens, order)
        want, want_reductions, want_reduced = _buchberger_by_rounds(gens, order)
        assert [g.coeffs for g in basis] == [g.coeffs for g in want], [str(g) for g in gens]
        assert reduced == want_reduced
        assert reduced
        assert reductions <= want_reductions


def test_ideal_quotient_rejects_inexact_division(monkeypatch):
    R = _ring("x", "y")
    # an intersection with (x) holding y, which x does not divide
    monkeypatch.setattr(
        ideals, "eliminate", lambda ring, gens, idx: [move(_p(R, "y"), ring, [0, 1])]
    )
    with pytest.raises(InternalInvariantError, match="inexact division"):
        ideal_quotient(_ideal(R, ["x*y"]), _p(R, "x"))


def _tail_reduce_by_resorting(idx, G, order, max_steps=200):
    """Reference tail reduction: each step re-sorts the whole element and
    reduces its largest tail monomial divisible by a leading monomial."""
    g, lead_m, lead_c = G[idx]
    others = G[:idx] + G[idx + 1 :]
    if not others:
        return g, lead_m, lead_c
    for _ in range(max_steps):
        target = None
        for m in sorted(g.coeffs, key=order.key, reverse=True):
            if m == lead_m:
                continue
            for og, om, oc in others:
                if expo_divides(om, m):
                    target = (m, og, om, oc)
                    break
            if target:
                break
        if target is None:
            break
        m, og, om, oc = target
        g = g - og.mul_term(expo_sub(m, om), g.coeffs[m] / oc)
    return g, lead_m, lead_c


def _assert_same_tail_reduction(G, order):
    for idx in range(len(G)):
        got = ideals._tail_reduce(idx, G, order)
        want = _tail_reduce_by_resorting(idx, G, order)
        assert got[0].coeffs == want[0].coeffs, (idx, str(got[0]), str(want[0]))
        assert got[1:] == want[1:]


def _random_local_gens(R, rng, count, terms, deg):
    gens = []
    for _ in range(count):
        monos = {tuple(rng.randint(0, deg) for _ in range(R.nvars())) for _ in range(terms)}
        monos.discard((0,) * R.nvars())
        f = _random_poly(R, rng, sorted(monos))
        if not f.is_zero:
            gens.append(f)
    return gens


def _random_local_order(rng, n):
    w = tuple(ValueScalar(Fraction(rng.randint(1, 6), rng.randint(1, 2))) for _ in range(n))
    return OrderDescriptor(w, "local")


def _lazard_records(monkeypatch, gens, order):
    """The records Lazard's method hands to the tail reduction."""
    handed = []
    monkeypatch.setattr(ideals, "_finish", lambda G, reductions, order: handed.append(G))
    ideals._mora_std(gens, order)
    monkeypatch.undo()
    return handed[0]


def test_tail_reduction_matches_resorting_loop(monkeypatch):
    rng = random.Random(89)
    # records of raw generators: long reductions, some up to the step cap
    R3 = _ring("x", "y", "z")
    for _ in range(20):
        order = _random_local_order(rng, 3)
        gens = _random_local_gens(R3, rng, rng.randint(2, 4), rng.randint(2, 5), 3)
        _assert_same_tail_reduction([ideals._entry(g, order) for g in gens], order)
    # the records Lazard's method hands to the tail reduction
    R2 = _ring("x", "y")
    for _ in range(20):
        order = _random_local_order(rng, 2)
        gens = _random_local_gens(R2, rng, 2, 3, 3)
        if gens:
            _assert_same_tail_reduction(_lazard_records(monkeypatch, gens, order), order)


def test_tail_reduction_step_cap(monkeypatch):
    """x + y; x - y^2 at (1,1) reduces until the 200-step cap stops it."""
    R = _ring("x", "y")
    order = OrderDescriptor((ValueScalar(1), ValueScalar(1)), "local")
    gens = [_p(R, "x + y"), _p(R, "x - y^2")]
    G = _lazard_records(monkeypatch, gens, order)
    _assert_same_tail_reduction(G, order)
    reduced = [str(ideals._tail_reduce(i, G, order)[0]) for i in range(len(G))]
    assert "y^201 + x" in reduced


def _local_observations(ring, gens, w):
    """Leading monomials of the local standard basis at w, the initial
    ideal's generators as printed, and tropical membership of w."""
    I = presentation(ring, gens, "local", w)
    lms = [leading_term(g, I.order)[0] for g in I.standard_basis()]
    inits = [poly_str(g) for g in initial_ideal(I, w).generators]
    return lms, inits, trop_member(I, w).member


def _random_local_pair(R, rng):
    """Two random polynomials in the maximal ideal of k[x, y] and a local
    weight, rational or with sqrt(2) in its first entry."""
    gens = []
    for _ in range(2):
        terms = {}
        for _ in range(rng.randint(2, 4)):
            m = (rng.randint(0, 3), rng.randint(0, 3))
            if m != (0, 0):
                terms[m] = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
        f = R.from_terms(list(terms.items()))
        if not f.is_zero:
            gens.append(f)
    if rng.random() < 0.25:
        w = (ValueScalar(rng.randint(1, 3), rng.randint(0, 1), 2), ValueScalar(rng.randint(1, 3)))
    else:
        w = tuple(ValueScalar(Fraction(rng.randint(1, 6), rng.randint(1, 2))) for _ in range(2))
    return gens, w


# draws of _random_local_pair (seed 7) on which Mora's algorithm, the
# reference, runs for more than 0.5 s
_SLOW_FOR_MORA = {39}


def _lazard_mora_inputs():
    for names, texts in _CORPUS:
        ring = _ring(*names)
        gens = [_p(ring, t) for t in texts]
        for w in _grid(len(names)):
            yield ring, gens, tuple(ValueScalar(x) for x in w)
    rng = random.Random(7)
    R = _ring("x", "y")
    for draw in range(100):
        gens, w = _random_local_pair(R, rng)
        if gens and draw not in _SLOW_FOR_MORA:
            yield R, gens, w


def test_lazard_matches_mora(monkeypatch):
    """Local bases by Lazard's method against Mora's algorithm: the same
    leading monomials, initial ideals and membership."""
    for ring, gens, w in _lazard_mora_inputs():
        got = _local_observations(ring, gens, w)
        with monkeypatch.context() as m:
            m.setattr(ideals, "_mora_std", _mora_std_by_mora)
            want = _local_observations(ring, gens, w)
        assert got == want, ([str(g) for g in gens], [str(x) for x in w])


# (draw, element) pairs of test_local_membership_matches_mora on which the
# reference, Mora's weak normal form, runs for more than 0.5 s
_SLOW_FOR_MORA_NF = {(24, 4)}


def test_local_membership_matches_mora():
    """Membership by leading ideals and the initial-form rewriting against
    Mora's weak normal form, on seeded local ideals and elements, members
    among them: the same members, and normal forms of the same weighted
    order, which is the coset's largest.  Mora's reference runs for
    seconds against the long tails the 200-step cap leaves, so it is
    compared where the basis is reduced; combinations of the generators
    are members whatever the basis, and on every element normal_form is
    zero exactly on the members."""
    rng = random.Random(97)
    checked = members = 0
    for draw in range(40):
        R = _ring(*("x", "y", "z")[: rng.randint(2, 3)])
        order = _random_local_order(rng, R.nvars())
        gens = _random_local_gens(R, rng, rng.randint(1, 3), rng.randint(2, 4), 3)
        if not gens:
            continue
        I = presentation(R, gens, "local", order.weights)
        basis = I.standard_basis()
        records = lead_records(basis, order)
        reduced = ideals._is_reduced(records)

        def poly(top, most):
            monos = [tuple(rng.randint(0, top) for _ in range(R.nvars()))
                     for _ in range(rng.randint(1, most))]
            return _random_poly(R, rng, monos)

        for k in range(6):
            # a member, a member plus a term of high weight, or any element
            f = poly(2, 3) if k % 3 == 2 else sum((g * poly(1, 2) for g in gens), R.zero())
            if k % 3 == 1:
                f = f + poly(4, 1) * R.var(0) ** 2
            member, got = ideal_member(f, I), normal_form(f, I)
            assert got.is_zero == member and (member or k % 3), (
                [str(g) for g in gens], str(f))
            if not reduced or (draw, k) in _SLOW_FOR_MORA_NF:
                continue
            want = _mora_nf(f, records, order)
            assert member == want.is_zero, ([str(g) for g in gens], str(f))
            assert w_order(got, order.weights) == w_order(want, order.weights)
            checked += 1
            members += want.is_zero
    assert checked >= 90 and members >= 40, (checked, members)


def test_local_normal_form_of_a_member_decides_on_the_generators():
    """The local basis of this ideal at (5/2, 1) reaches degree 604; its
    normal form of a member is 0 at once, as membership is decided on the
    generators rather than on that basis."""
    R = _ring("x", "y")
    g1 = _p(R, "x^3*y + 2/3*x^2*y^2 + 4*x^2")
    g2 = _p(R, "-1/3*x^3*y^2 + x*y - 4*y^2")
    I = presentation(R, [g1, g2], "local", (Fraction(5, 2), 1))
    assert normal_form(R.var(0) * g1 + R.var(1) ** 2 * g2, I).is_zero


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


def _saturate_by_elimination(I, g):
    """(I : g^infinity) by the Rabinowitsch trick on I's own generators,
    the reference for saturate's stripping and principal shortcut."""
    ring = I.ring
    big = PolyRing(ring.field, ring.vars + ("s_",))
    vmap = list(range(ring.nvars()))
    s = big.var(ring.nvars())
    gens = [move(f, big, vmap) for f in I.generators]
    gens.append(big.one() - s * move(g, big, vmap))
    elim = eliminate(big, gens, [ring.nvars()])
    back = [move(f, ring, vmap + [None]) for f in elim]
    return presentation(ring, back, "global")


def _saturation_draws(seed, count):
    """Seeded (I, g): 2 or 3 variables, 1-3 generators each times a random
    monomial, coefficients in Q(sqrt(2)) in every third draw, and g a
    monomial with some zero exponents, sometimes a constant."""
    rng = random.Random(seed)
    for k in range(count):
        R = _ring(*"xyz"[: rng.choice((2, 3))])
        n = R.nvars()
        r2 = _p(R, "sqrt(2)*x").coeffs[(1,) + (0,) * (n - 1)] if k % 3 == 0 else 0
        gens = []
        for _ in range(rng.choice((1, 1, 2, 3))):
            shift = tuple(rng.randint(0, 2) for _ in range(n))
            terms = []
            for _ in range(rng.randint(1, 3)):
                mono = tuple(rng.randint(0, 2) for _ in range(n))
                c = rng.choice((-2, -1, 1, 3)) + rng.randint(0, 1) * r2
                terms.append((expo_add(mono, shift), c))
            gens.append(R.from_terms(terms))
        g = R.monomial(tuple(rng.randint(0, 1) for _ in range(n)), rng.choice((1, 2)))
        yield presentation(R, gens, "global"), g


def _count_buchberger(monkeypatch):
    """The list of the arguments of every _buchberger call from here on."""
    calls, buchberger = [], ideals._buchberger
    monkeypatch.setattr(
        ideals, "_buchberger", lambda *a: calls.append(a) or buchberger(*a)
    )
    return calls


def test_saturate_matches_the_elimination(monkeypatch):
    """Generators, basis and unit flag agree with the Rabinowitsch trick on
    the unstripped generators, in order; saturate and the unit test run at
    most the one elimination, and none for a principal ideal."""
    principal = 0
    for I, g in _saturation_draws(59, 60):
        want = _saturate_by_elimination(I, g)
        calls = _count_buchberger(monkeypatch)
        got = saturate(I, g)
        unit = got.is_unit_ideal()
        monkeypatch.undo()
        principal += len(I.generators) == 1
        assert len(calls) <= (len(I.generators) > 1)
        assert [str(f) for f in got.generators] == [str(f) for f in want.generators]
        assert got.standard_basis() == want.standard_basis()
        assert unit == want.is_unit_ideal()
    assert principal >= 20


def test_saturation_keeps_its_basis():
    """The stored basis is a fresh _buchberger of the generators, in order."""
    for I, g in _saturation_draws(61, 40):
        sat = saturate(I, g)
        assert sat._basis is not None
        fresh = ideals._buchberger(sat.generators, sat.order)[0]
        assert list(sat.standard_basis()) == fresh
        assert [str(f) for f in sat.standard_basis()] == [str(f) for f in fresh]


def test_principal_saturation_computes_no_basis(monkeypatch):
    R = _ring("x", "y", "z")
    calls = _count_buchberger(monkeypatch)
    sat = saturate(_ideal(R, ["x^3*y - 2*x^2*y*z^2"]), _p(R, "x*z"))
    assert [str(f) for f in sat.generators] == ["y*z^2 - 1/2*x*y"]
    assert not sat.is_unit_ideal()
    assert dimension(sat) == 2
    assert ideal_member(_p(R, "x^2*y - 2*x*y*z^2"), sat)
    assert contains_monomial(_ideal(R, ["x^2*y - 2*x*y*z^2"])) == (False, None)
    assert saturate(_ideal(R, ["x*y + y^2", "x^2"]), _p(R, "x")).is_unit_ideal()
    assert calls == []
    # several generators: one elimination, and no basis after it
    sat = saturate(_ideal(R, ["x + y", "x - y"]), _p(R, "z"))
    assert not sat.is_unit_ideal() and dimension(sat) == 1
    assert len(calls) == 1


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
    # witnesses past (x*y)^64: x^70*y is the initial ideal at (1,1) of
    # x^70*y - x^70*y^2, whose saturation is (1 - y)
    assert contains_monomial(_ideal(R, ["x^65"])) == (True, _p(R, "x^65"))
    assert contains_monomial(_ideal(R, ["x^70*y"])) == (True, _p(R, "x^70*y"))
    assert contains_monomial(_ideal(R, ["x^70*y - x^70*y^2"])) == (False, None)


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


def test_fresh_variables_avoid_the_ring_names():
    """The local basis, saturate and ideal_quotient each add a fresh
    variable (h_, s_, t_); in a ring that already has those names, the
    answers equal those of the same ring with its variables renamed."""
    plain = _ring("x", "y", "z", "u")
    taken = PolyRing(plain.field, ("h_", "_h_", "s_", "t_"))
    same = list(range(4))

    def both(texts):
        gens = [_p(plain, t) for t in texts]
        return gens, [move(g, taken, same) for g in gens]

    def back(polys):
        return [move(g, plain, same) for g in polys]

    w = (1, 2, 1, 3)
    gens, renamed = both(["x^2 - y^3 + z*u", "y*z - x^3 + u^2"])
    want = presentation(plain, gens, "local", w).standard_basis()
    assert back(presentation(taken, renamed, "local", w).standard_basis()) == list(want)
    gens, renamed = both(["x*y - z*u", "x^2*z - y*u^2", "y*z + u"])
    (g, f), (g2, f2) = both(["x + y", "z*u - x"])
    for op, a, b in ((saturate, g, g2), (ideal_quotient, f, f2)):
        want = op(presentation(plain, gens, "global"), a).generators
        got = op(presentation(taken, renamed, "global"), b).generators
        assert back(got) == list(want), op.__name__


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


def test_torus_point_factors_each_eliminant_factor_once(monkeypatch):
    """The lift of x^2+y^2+z^2 at (1,1,1) adjoins a root of z^2 + 2 from
    the factorization of its eliminant, without factoring it again: no
    eliminant is factored twice at one tower height.  The calls are keyed
    by their monic polynomial, with the number of norms each one built.
    The Newton walk meets z^2 + 2 again over Q(a1); its roots_in_extension
    call factors it once, and the split by a square root of its
    discriminant builds no norm."""
    calls = []
    norms = []
    factor = scalars.factor_univariate
    norm = scalars._bivariate_norm

    def counting(caller):
        def counting_factor(field, coeffs):
            cs = [as_field_element(field, c) for c in coeffs]
            while not cs[-1]:
                cs.pop()
            monic = tuple(scalar_str(c / cs[-1]) for c in cs)
            before = len(norms)
            out = factor(field, coeffs)
            calls.append((caller, monic, field.height(), len(norms) - before))
            return out

        return counting_factor

    monkeypatch.setattr(scalars, "factor_univariate", counting("scalars"))
    monkeypatch.setattr(ideals, "factor_univariate", counting("ideals"))
    monkeypatch.setattr(scalars, "_bivariate_norm", lambda *args: norms.append(args) or norm(*args))
    argv = ["lift", "--vars", "x,y,z", "--ideal", "x^2+y^2+z^2", "--w", "1,1,1",
            "--N", "3"]
    assert cli.run(argv, io.StringIO(), io.StringIO()) == 0
    eliminant = [call[:3] for call in calls if call[0] == "ideals"]
    assert len(eliminant) == len(set(eliminant)), calls
    z2 = ("2", "0", "1")
    assert calls == [("ideals", z2, 0, 0), ("ideals", z2, 1, 0), ("scalars", z2, 1, 0)]


def test_torus_point_splits_a_factor_over_a_grown_field():
    """y = sqrt(2) forces x = 0, so that branch fails after adjoining
    sqrt(2); y^2 - 8 then splits over the grown field and is not adjoined
    as a reducible level."""
    R = _ring("x", "y")
    witness = torus_point(_ideal(R, ["(y^2-2)*(y^2-8)", "6*x-y^2+2"]))
    assert [scalar_str(c) for c in witness.point] == ["1", "-2*a1"]
    assert [[scalar_str(c) for c in level.minpoly] for level in R.field.levels] == [
        ["-2", "0", "1"]
    ]


def _old_torus_point(J, seed=0, max_attempts=16, start_attempt=0):
    """torus_point as it was with max_attempts and start_attempt: the
    reference for torus_attempts."""
    flag, wit = contains_monomial(J)
    if flag:
        raise UsageError(f"ideal contains the monomial {wit}; no torus point")
    ring = J.ring
    n = ring.nvars()
    Jg = ideals._as_global(J)
    basis = Jg.standard_basis()
    if not basis:
        values = ideals._slice_values(seed, start_attempt, n)
        return ideals.TorusWitness(tuple(values), ring.field, seed, start_attempt)
    indep = ideals._independent_set(Jg)
    for attempt in range(start_attempt, start_attempt + max_attempts):
        values = ideals._slice_values(seed, attempt, len(indep))
        assignment = {i: v for i, v in zip(indep, values)}
        remaining = [i for i in range(n) if i not in assignment]
        found = ideals._solve_zero_dim(ring, list(basis), remaining, assignment)
        if found is None:
            continue
        point = tuple(found[i] for i in range(n))
        if not all(point):
            continue
        ok = True
        for g in J.generators:
            if not substitute_scalars(g, found).is_zero:
                ok = False
                break
        if ok:
            return ideals.TorusWitness(point, ring.field, seed, attempt + 1)
    raise WitnessSearchError(
        f"no torus point found in {max_attempts} attempts (seed {seed})"
    )


def _point_text(point):
    return None if point is None else tuple(scalar_str(c) for c in point)


def test_torus_attempts_match_the_old_restarted_search():
    rng = random.Random(20261018)
    # the all-ones attempt 0 gives z = 0 on x - y + z: no point there
    texts = [["x*y - z^2", "x + y + z"], ["x^2 - 2*y^2"], ["x - y + z"]]
    for _ in range(3):
        a, b, c = (rng.choice([-3, -2, -1, 1, 2, 3]) for _ in range(3))
        texts.append([f"{a}*x*y {b:+d}*z^2 {c:+d}*x*z"])
        texts.append([f"x*y {a:+d}*z^2", f"{b}*x {c:+d}*y + z"])
    for gens in texts:
        seed = rng.randint(0, 50)
        # separate fields: root adjunction extends the field of the ring
        J_old = _ideal(_ring("x", "y", "z"), gens)
        J_new = _ideal(_ring("x", "y", "z"), gens)
        if contains_monomial(J_old)[0]:
            continue
        old = []
        for a in range(25):
            try:
                wit = _old_torus_point(J_old, seed, max_attempts=1, start_attempt=a)
                old.append(_point_text(wit.point))
            except WitnessSearchError:
                old.append(None)
        new = []
        for attempt, point in ideals.torus_attempts(J_new, seed):
            new.append(_point_text(point))
            if attempt == 24:
                break
        assert new == old, gens
        first = next((k for k, p in enumerate(old[:16]) if p is not None), None)
        if first is None:
            with pytest.raises(WitnessSearchError):
                torus_point(J_new, seed)
        else:
            wit = torus_point(J_new, seed)
            assert _point_text(wit.point) == old[first]
            assert wit.attempts == first + 1
            later = ideals.torus_attempts(J_new, seed, start=wit.attempts)
            assert next(later)[0] == first + 1


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
            s = spoly(f, g, I.order)
            assert divide(s, lead_records(basis, I.order), I.order)[1].is_zero


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
        lifted = [move(g, big, [0, 1]) for g in basis]
        order = OrderDescriptor((ValueScalar(0),) * 4, "global")
        for f, g in combinations(lifted, 2):
            s = spoly(f, g, order)
            assert divide(s, lead_records(lifted, order), order)[1].is_zero


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
        FX = [move(g, big, [1, 2]) for g in I.generators]
        FY = [move(g, big, [3, 4]) for g in J.generators]
        product = [f * g for f in FX for g in FY]
        t = big.var(0)
        one = big.from_terms([((0, 0, 0, 0, 0), Fraction(1))])
        mix = [t * f for f in FX] + [(one - t) * g for g in FY]
        inter = eliminate(big, mix, [0])
        lhs = presentation(big, list(inter), "global")
        rhs = presentation(big, product, "global")
        assert ideals_equal(lhs, rhs)
        pairs += 1
