"""Ideal presentations and standard basis computations.

One standard basis engine, Buchberger's S-pair loop with full division, the
coprime skip and the chain criterion, serves both kinds of order.  Local
orders reach it by Lazard's method (Greuel-Pfister, *A Singular Introduction
to Commutative Algebra*, 1.7): the generators are homogenized by total degree
with a fresh variable, their Groebner basis is taken under total degree, then
the local order, and the fresh variable is set to 1.  Both finish alike: each
tail is divided once by the other minimal basis elements, fully for global
orders, which gives the reduced basis, and for at most 200 reductions for
local ones.  One division routine, ``divide``, a descending heap pass that
tracks quotients, serves normal forms, exact division, w-homogeneous
division and the tail reductions alike.  Normal forms, membership and the
leading-ideal helpers take an ``IdealPresentation``, so the generators, the
order and the cached basis travel together.  Local membership is decided by
leading ideals on the generators, and the local ``normal_form`` rewrites
initial forms.
Everything downstream (quotients, dimension, monomial detection, torus
points) reduces to this engine, and so does saturation, except by a monomial
when the generators, stripped of their monomial factors, span a principal
ideal: that ideal is the saturation, with no basis to compute.
"""

from __future__ import annotations

import heapq
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, count, islice

from .errors import (
    CapabilityError,
    InternalInvariantError,
    UsageError,
    WitnessSearchError,
)
from .polyring import (
    OrderDescriptor,
    Polynomial,
    PolyRing,
    expo_add,
    expo_deg,
    expo_divides,
    expo_lcm,
    expo_sub,
    extend,
    initial_form,
    leading_term,
    move,
    substitute_scalars,
)
from .scalars import (
    _adjoin_factor,
    _pgcd,
    _pnorm,
    adjoin_root,
    factor_univariate,
)

_MAX_REDUCTION_STEPS = 50000
_TAIL_STEP_CAP = 200
_MAX_SPAIRS = 20000


def _record(g, order):
    """(g, leading monomial, leading coefficient) of a nonzero g."""
    return (g, *leading_term(g, order))


def lead_records(polys, order: OrderDescriptor):
    """Records of the nonzero polynomials, in order, for division."""
    return [_record(g, order) for g in polys if not g.is_zero]


def _spoly(a, b):
    f, mf, cf = a
    g, mg, cg = b
    m = expo_lcm(mf, mg)
    return f.mul_term(expo_sub(m, mf), 1 / cf) - g.mul_term(expo_sub(m, mg), 1 / cg)


class IdealPresentation:
    """Finite generating set plus the order used for its standard basis.

    In local mode every generator must lie in the maximal ideal (zero
    constant term): the presented object is the ideal generated in the power
    series ring.
    """

    def __init__(self, ring: PolyRing, generators, order: OrderDescriptor):
        gens = []
        for g in generators:
            if not isinstance(g, Polynomial) or not g.ring.same(ring):
                raise UsageError("generators must be polynomials of the given ring")
            if not g.is_zero:
                gens.append(g)
        if len(order.weights) != ring.nvars():
            raise UsageError("order weight length does not match the ring")
        if order.mode == "local":
            for g in gens:
                if g.constant_term() != 0:
                    raise UsageError(
                        f"local-mode generator has a nonzero constant term: {g}"
                    )
        self.ring = ring
        self.generators = tuple(gens)
        self.order = order
        self._basis = None

    def standard_basis(self):
        if self._basis is None:
            std = _buchberger if self.order.mode == "global" else _mora_std
            self._basis = tuple(std(self.generators, self.order)[0])
        return self._basis

    def is_zero_ideal(self):
        return not self.generators

    def is_unit_ideal(self):
        for g in self.standard_basis():
            if not g.is_zero and g.total_degree() == 0:
                return True
        return False

    def with_extra(self, extra):
        return IdealPresentation(
            self.ring, list(self.generators) + list(extra), self.order
        )

    def local_at(self, w):
        """The same generators under the ring's local order at w: self when
        this presentation's order has that mode and equal weights, even if it
        is another object (a proportional weight still gets a new
        presentation)."""
        order = self.ring.order(w, "local")
        if self.order.mode == "local" and self.order.weights == order.weights:
            return self
        return IdealPresentation(self.ring, self.generators, order)

    def __repr__(self):
        gens = "; ".join(str(g) for g in self.generators) or "0"
        return f"IdealPresentation({gens} | {self.order.describe()})"


def presentation(ring, gens, mode="global", weights=None):
    if weights is None:
        if mode == "local":
            raise UsageError("local presentations need explicit weights")
        weights = (0,) * ring.nvars()
    return IdealPresentation(ring, gens, ring.order(weights, mode))


# -- division ---------------------------------------------------------------


def divide(f: Polynomial, records, order: OrderDescriptor, max_steps=None):
    """Division of f by the polynomials of the records (see lead_records):
    (quotients, remainder) with f = sum q_i g_i + remainder.

    One descending pass: the monomials of the running polynomial pop from a
    heap, largest first under the order's key, and each is reduced by the
    first record whose leading monomial divides it, or else moves to the
    remainder.  A reduction at m only creates terms below m, so each
    monomial pops once, and every quotient and remainder monomial is written
    once.  The pass ends for global orders, and for w-homogeneous input
    under a local order, since a fixed weight level carries finitely many
    monomials; then no remainder monomial is divisible by a leading
    monomial.  With max_steps the pass stops silently after that many
    reductions and the unreduced rest joins the remainder; without it, more
    than _MAX_REDUCTION_STEPS reductions raise a CapabilityError, a size
    bound like _MAX_SPAIRS.
    """
    quots = [{} for _ in records]
    rem = {}
    h = dict(f.coeffs)
    heap = []

    def push(m):
        # negated keys: heapq pops the largest monomial of the order first
        k0, k1, rev = order.key(m)
        heapq.heappush(heap, ((-k0, -k1, tuple([-e for e in rev])), m))

    for m in h:
        push(m)
    steps = 0
    while heap and steps != max_steps:
        m = heapq.heappop(heap)[1]
        c = h.pop(m, None)
        if c is None:
            continue
        for q, (g, mg, cg) in zip(quots, records):
            if expo_divides(mg, m):
                break
        else:
            rem[m] = c
            continue
        steps += 1
        if steps > _MAX_REDUCTION_STEPS:
            raise CapabilityError(
                f"division needs over {_MAX_REDUCTION_STEPS} reductions"
            )
        shift = expo_sub(m, mg)
        coef = q[shift] = c / cg
        # h -= coef * x^shift * (g minus its leading term)
        for mo, co in g.coeffs.items():
            if mo == mg:
                continue
            mt = expo_add(mo, shift)
            v = h.get(mt)
            if v is None:
                push(mt)
                h[mt] = -(co * coef)
            else:
                v = v - co * coef
                if not v:
                    del h[mt]
                else:
                    h[mt] = v
    rem.update(h)
    ring = f.ring
    return [Polynomial(ring, q) for q in quots], Polynomial(ring, rem)


def normal_form(f: Polynomial, I: IdealPresentation) -> Polynomial:
    """A normal form of f modulo I, zero exactly for the members of I.

    For a global order, the remainder of f on division by the standard
    basis.  For a local order, 0 for members of I in k[[x]] (decided on the
    generators by leading ideals); else a weak normal form with unit 1: from
    h = f on, in_w(h) is divided by the initial forms of the local standard
    basis, which ends on w-homogeneous input, and h loses the quotients
    times the basis until a remainder survives as its initial form.  Each
    step before that raises the w-order of h, which is bounded on a
    non-member's coset."""
    order = I.order
    basis = I.standard_basis()
    if order.mode == "global":
        return divide(f, lead_records(basis, order), order)[1]
    if f.is_zero or _local_member(f, I):
        return f.ring.zero()
    w = order.weights
    records, h = lead_records([initial_form(b, w) for b in basis], order), f
    for _ in range(_MAX_REDUCTION_STEPS):
        quots, rem = divide(initial_form(h, w), records, order)
        for q, b in zip(quots, basis):
            if not q.is_zero:
                h = h - q * b
        if not rem.is_zero:
            return h
    raise InternalInvariantError("initial-form rewriting did not terminate")


def _leading_ideal(I):
    """The sorted minimal generators of the leading ideal of I."""
    lms = {leading_term(g, I.order)[0] for g in I.standard_basis()}
    return sorted(m for m in lms if not any(o != m and expo_divides(o, m) for o in lms))


def _local_member(f, I):
    """Whether the nonzero f lies in the local ideal I in k[[x]]: iff in_w(f)
    is in in_w(I) and I + (f), with a basis from the generators of I (long
    basis tails are slow there), has the leading ideal of I
    (Greuel-Pfister, 1.6)."""
    w = I.order.weights
    records = lead_records([initial_form(b, w) for b in I.standard_basis()], I.order)
    if not divide(initial_form(f, w), records, I.order)[1].is_zero:
        return False
    return _leading_ideal(I.with_extra([f])) == _leading_ideal(I)


# -- standard bases ---------------------------------------------------------


def _entry(g, order):
    """The record of g made monic, as g enters a basis."""
    g, m, c = _record(g, order)
    if c != 1:
        g = g * (1 / c)
        c = g.coeffs[m]
    return g, m, c


class _Homogenized:
    """Lazard's order on a ring whose last variable homogenizes: total degree
    first, then the local order on the other variables, whose degree entry
    the last exponent replaces within one total degree."""

    mode = "global"

    def __init__(self, order):
        self.order = order

    def key(self, m):
        k, _, rev = self.order.key(m[:-1])
        return expo_deg(m), k, (m[-1],) + rev


def _spair_loop(gens, order):
    """Buchberger's S-pair loop under a global order (Greuel-Pfister, 1.7).
    Returns the minimalized basis records and the number of S-pair
    reductions.  Pairs pop by the degree of their lcm, then the lcm, then
    (i, j).  A pair is skipped when its leading monomials are coprime, or by
    the chain criterion: another leading monomial divides the lcm and both
    pairs it forms with the two are no longer pending.  More than
    _MAX_SPAIRS popped pairs raise a CapabilityError."""
    G = []
    for g in gens:
        rec = _entry(g, order)
        if all(rec[0] != r[0] for r in G):
            G.append(rec)
    pairs = []
    pending = set()

    def add_pairs(k):
        for i in range(k):
            m = expo_lcm(G[i][1], G[k][1])
            heapq.heappush(pairs, (expo_deg(m), m, i, k))
            pending.add((i, k))

    for k in range(len(G)):
        add_pairs(k)
    reductions = 0
    guard = 0
    while pairs:
        guard += 1
        if guard > _MAX_SPAIRS:
            raise CapabilityError(f"standard basis needs over {_MAX_SPAIRS} S-pairs")
        _, m, i, j = heapq.heappop(pairs)
        pending.discard((i, j))
        if m == expo_add(G[i][1], G[j][1]) or any(
            k != i and k != j and expo_divides(G[k][1], m)
            and pending.isdisjoint(((min(i, k), max(i, k)), (min(j, k), max(j, k))))
            for k in range(len(G))
        ):
            continue
        h = divide(_spoly(G[i], G[j]), G, order)[1]
        reductions += 1
        if not h.is_zero:
            G.append(_entry(h, order))
            add_pairs(len(G) - 1)
    return _minimalize(G), reductions


def _buchberger(gens, order):
    """Buchberger's algorithm: the S-pair loop, then the reduced basis in
    ascending order."""
    return _finish(*_spair_loop(gens, order), order)


def _mora_std(gens, order):
    """A local standard basis by Lazard's method: the generators homogenized
    by total degree with a fresh last variable, the S-pair loop under
    _Homogenized(order), that variable set to 1 in the minimal basis; then a
    capped tail reduction, and the basis in descending order."""
    gens = [g for g in gens if not g.is_zero]
    if not gens:
        return [], 0, True
    ring = gens[0].ring
    big = extend(ring, "h_")
    hom = []
    for g in gens:
        d = g.total_degree()
        hom.append(Polynomial(big, {m + (d - sum(m),): c for m, c in g.coeffs.items()}))
    H, reductions = _spair_loop(hom, _Homogenized(order))
    flat = [Polynomial(ring, {m[:-1]: c for m, c in h.coeffs.items()}) for h, *_ in H]
    return _finish(_minimalize([_entry(g, order) for g in flat]), reductions, order)


def _minimalize(G):
    # drop records whose leading monomial is divisible by another's; on
    # equal leading monomials keep the earliest
    out = []
    for i, (_, mi, _) in enumerate(G):
        if not any(
            j != i and expo_divides(mj, mi) and (mj != mi or j < i)
            for j, (_, mj, _) in enumerate(G)
        ):
            out.append(G[i])
    return out


def _finish(G, reductions, order):
    """The last step of both algorithms, on the minimalized records: every
    tail is divided once by the other records, and the records are sorted,
    ascending for global orders and descending for local ones.  For a
    global order the result is the reduced basis: the leading monomials do
    not change, so each tail's remainder is its unique normal form.
    Returns (basis, reductions, whether the basis is reduced)."""
    G = [_tail_reduce(i, G, order) for i in range(len(G))]
    G.sort(key=lambda r: order.key(r[1]), reverse=order.mode == "local")
    return [r[0] for r in G], reductions, _is_reduced(G)


def _tail_reduce(idx, G, order):
    """The record G[idx] with its tail replaced by the remainder of its
    division by the other records.  A local tail need not reduce in
    finitely many steps, so its division stops after _TAIL_STEP_CAP
    reductions.  The leading term stays."""
    g, lead_m, lead_c = G[idx]
    tail = dict(g.coeffs)
    del tail[lead_m]
    cap = _TAIL_STEP_CAP if order.mode == "local" else None
    _, r = divide(Polynomial(g.ring, tail), G[:idx] + G[idx + 1 :], order, cap)
    return Polynomial(g.ring, {lead_m: lead_c, **r.coeffs}), lead_m, lead_c


def _is_reduced(G):
    for i, (g, _, _) in enumerate(G):
        for m in g.coeffs:
            for j, (_, lt, _) in enumerate(G):
                if i != j and expo_divides(lt, m):
                    return False
    return True


# -- derived operations -----------------------------------------------------


def ideal_member(f: Polynomial, I: IdealPresentation) -> bool:
    """Whether f lies in I, in the power series ring when I is local."""
    if f.is_zero:
        return True
    if I.order.mode == "local":
        return _local_member(f, I)
    return normal_form(f, I).is_zero


def ideals_equal(A: IdealPresentation, B: IdealPresentation) -> bool:
    """Equality of the presented ideals (same ring); membership both ways.

    For local presentations this is equality in the power series ring.
    """
    if not A.ring.same(B.ring):
        raise UsageError("cannot compare ideals in different rings")
    return all(ideal_member(g, B) for g in A.generators) and all(
        ideal_member(g, A) for g in B.generators
    )


def eliminate(ring: PolyRing, gens, elim_indices):
    """Generators of the elimination ideal (still expressed in the full
    ring).  Uses the weight trick: weight 1 on eliminated variables, 0 on the
    rest, refined by graded revlex, which is a genuine elimination order."""
    elim = set(elim_indices)
    if not elim:
        return list(gens)
    order = ring.order([int(i in elim) for i in range(ring.nvars())], "global")
    basis, _, _ = _buchberger(list(gens), order)
    out = []
    for g in basis:
        if all(all(m[i] == 0 for i in elim) for m in g.coeffs):
            out.append(g)
    return out


def saturate(I: IdealPresentation, g: Polynomial) -> IdealPresentation:
    """(I : g^infinity), returned with a global grevlex presentation whose
    generators are its reduced basis, stored as its standard basis.

    For a monomial g = c*x^m each generator is first divided by the largest
    monomial in the variables of m that divides it, which leaves the
    saturation unchanged.  When at most one generator then remains, or one
    is a constant, it spans the saturation (k[x] is a UFD and the variables
    are primes; Greuel-Pfister, 1.8).  Otherwise the Rabinowitsch trick
    eliminates s from I + (1 - s*g), and the s-free part of that reduced
    basis is the reduced basis of the saturation, in ascending order.
    """
    if g.is_zero:
        raise UsageError("cannot saturate by zero")
    ring = I.ring
    gens = I.generators
    order = I.order  # grevlex: I's own order when it is that, with its keys
    if order.mode == "local" or any(order.weights):
        order = ring.order((0,) * ring.nvars(), "global")
    if len(g.coeffs) == 1:
        (m,) = g.coeffs
        gens = list(dict.fromkeys(_entry(_strip(f, m), order)[0] for f in gens))
        if len(gens) <= 1:
            return _reduced(ring, gens, order)
        if ring.one() in gens:
            return _reduced(ring, [ring.one()], order)
    n = ring.nvars()
    big, vmap = extend(ring, "s_"), list(range(n))
    gens = [move(f, big, vmap) for f in gens]
    gens.append(big.one() - big.var(n) * move(g, big, vmap))
    elim = eliminate(big, gens, [n])
    return _reduced(ring, [move(f, ring, vmap + [None]) for f in elim], order)


def _strip(f, m):
    """f divided by the largest monomial in the variables of m dividing it."""
    low = tuple(min(e[i] for e in f.coeffs) if k else 0 for i, k in enumerate(m))
    if not any(low):
        return f
    return Polynomial(f.ring, {expo_sub(e, low): c for e, c in f.coeffs.items()})


def _reduced(ring, basis, order):
    """The presentation of a reduced basis under the global order, given in
    ascending order, with that basis stored as its standard basis."""
    out = IdealPresentation(ring, basis, order)
    out._basis = out.generators
    return out


def ideal_quotient(I: IdealPresentation, f: Polynomial) -> IdealPresentation:
    """(I : f) via intersection with (f) and exact division."""
    if f.is_zero:
        raise UsageError("quotient by the zero polynomial")
    ring = I.ring
    n = ring.nvars()
    big, vmap = extend(ring, "t_"), list(range(n))
    t = big.var(n)
    gens = [t * move(g, big, vmap) for g in I.generators]
    gens.append((big.one() - t) * move(f, big, vmap))
    elim = eliminate(big, gens, [n])
    inter = [move(h, ring, vmap + [None]) for h in elim]
    order = ring.order((0,) * n, "global")
    divisor = lead_records([f], order)
    quots = []
    for h in inter:
        (q,), r = divide(h, divisor, order)
        if not r.is_zero:
            raise InternalInvariantError(f"inexact division: {h} by {f}")
        quots.append(q)
    return presentation(ring, quots, "global")


def _as_global(I: IdealPresentation) -> IdealPresentation:
    if I.order.mode == "global":
        return I
    return presentation(I.ring, I.generators, "global")


def contains_monomial(I: IdealPresentation):
    """Whether the ideal contains a monomial; (flag, witness monomial).

    Decided by saturating with respect to the product p of all variables:
    the ideal contains a monomial iff the saturation is the unit ideal,
    which saturate reads off its stored reduced basis.  The witness is the
    least power p^k in the ideal, found by doubling k and then bisection,
    with its exponents then lowered one by one, last variable first, each
    to the least value that keeps it a member, again by bisection:
    membership is monotone in every exponent.  For weight-homogeneous
    generators this also answers the power series question, which is the
    relevant case for initial ideals.
    """
    if I.is_zero_ideal():
        return False, None
    ring = I.ring
    n = ring.nvars()
    if not saturate(I, ring.monomial((1,) * n)).is_unit_ideal():
        return False, None

    def member(expo):
        return ideal_member(ring.monomial(expo), I)

    k = _least(lambda k: member((k,) * n), 1)
    expo = [k] * n
    for i in range(n - 1, -1, -1):
        expo[i] = _least(lambda e: member(expo[:i] + [e] + expo[i + 1 :]), 0, k)
    return True, ring.monomial(expo)


def _least(holds, low, high=None):
    """The least integer e >= low with holds(e), for a predicate monotone in
    e; with high given, holds(high) is known to be true."""
    if high is None:
        high = low
        while not holds(high):
            low, high = high + 1, 2 * high
    while low < high:
        mid = (low + high) // 2
        if holds(mid):
            high = mid
        else:
            low = mid + 1
    return high


def dimension(I: IdealPresentation) -> int:
    """Krull dimension of the quotient by the leading-term ideal trick:
    the largest variable subset meeting no leading monomial."""
    if I.is_unit_ideal():
        raise UsageError("the unit ideal has no dimension")
    if I.ring.nvars() > 16:
        raise UsageError("dimension computation capped at 16 variables")
    return len(_independent_set(I))


def _independent_set(I):
    """The first largest set of variable indices, in itertools.combinations
    order, that contains the support of no leading monomial of the standard
    basis of I."""
    n = I.ring.nvars()
    supports = [
        frozenset(i for i, e in enumerate(leading_term(g, I.order)[0]) if e)
        for g in I.standard_basis()
    ]
    for size in range(n, 0, -1):
        for S in combinations(range(n), size):
            if not any(sup <= frozenset(S) for sup in supports):
                return S
    return ()


# -- torus points -----------------------------------------------------------


@dataclass
class TorusWitness:
    point: tuple
    field: object
    seed: int
    attempts: int


def _slice_values(seed, attempt, count):
    if attempt == 0:
        return [Fraction(1)] * count
    rng = random.Random(f"torus:{seed}:{attempt}")
    span = 4 + attempt
    out = []
    for _ in range(count):
        v = 0
        while v == 0:
            v = rng.randint(-span, span)
        out.append(Fraction(v))
    return out


def _univariate_part(gens, var):
    """gcd of the univariate-in-var members among the generators."""
    acc = []
    for g in gens:
        if all(all(e == 0 for i, e in enumerate(m) if i != var) for m in g.coeffs):
            cs = {m[var]: c for m, c in g.coeffs.items()}
            acc.append([cs.get(i, Fraction(0)) for i in range(max(cs) + 1)])
    if not acc:
        return None
    g = acc[0]
    for other in acc[1:]:
        g = _pgcd(g, other)
    return _pnorm(g)


def _solve_zero_dim(ring, gens, remaining, assignment):
    """DFS back-substitution: eliminate down to a univariate polynomial in
    the last remaining variable, adjoin a nonzero root, recurse."""
    if not remaining:
        for g in gens:
            r = substitute_scalars(g, assignment)
            if not r.is_zero:
                return None
        return assignment
    var = remaining[-1]
    rest = remaining[:-1]
    cur = [substitute_scalars(g, assignment) for g in gens]
    cur = [g for g in cur if not g.is_zero]
    elim = eliminate(ring, cur, [i for i in rest])
    uni = _univariate_part(elim, var)
    if uni is None or len(uni) <= 1:
        # no univariate relation: variable is free on this slice; pick 1
        trial = dict(assignment)
        trial[var] = Fraction(1)
        return _solve_zero_dim(ring, gens, rest, trial)
    height = ring.field.height()
    _, factors = factor_univariate(ring.field, uni)
    for fac, _mult in factors:
        if len(fac) == 2 and not fac[0]:
            continue  # root zero: not a torus point
        if len(fac) == 2:
            root = (-fac[0]) / fac[1]
        elif ring.field.height() == height:  # irreducible here: not factored again
            root = _adjoin_factor(ring.field, fac)
        else:  # a failed branch grew the field, over which fac may split
            _, root = adjoin_root(ring.field, fac)
        trial = dict(assignment)
        trial[var] = root
        found = _solve_zero_dim(ring, gens, rest, trial)
        if found is not None:
            return found
    return None


def torus_point(J: IdealPresentation, seed=0) -> TorusWitness:
    """A point with all coordinates nonzero in the vanishing locus.

    The ideal must be monomial-free.  The first of the first 16 seeded
    attempts of torus_attempts that finds a point gives it.
    """
    flag, wit = contains_monomial(J)
    if flag:
        raise UsageError(f"ideal contains the monomial {wit}; no torus point")
    for attempt, point in islice(torus_attempts(J, seed), 16):
        if point is not None:
            return TorusWitness(point, J.ring.field, seed, attempt + 1)
    raise WitnessSearchError(f"no torus point found in 16 attempts (seed {seed})")


def torus_attempts(J: IdealPresentation, seed=0, start=0):
    """The seeded torus point attempts on a monomial-free ideal, from
    attempt start on: (attempt, point), with point None where the attempt
    finds no point with all coordinates nonzero.

    Attempt a substitutes its seeded rational values for a maximal
    independent variable set and solves for the rest by elimination and
    root adjunction.  The ideal is not checked for monomials here; its
    basis and independent set are computed once for the whole sequence.
    A point found is in the torus: each coordinate is a nonzero slice value,
    1, or a root of a factor with nonzero constant term.
    """
    ring = J.ring
    n = ring.nvars()
    Jg = _as_global(J)
    basis = list(Jg.standard_basis())
    indep = _independent_set(Jg)
    for attempt in count(start):
        values = _slice_values(seed, attempt, len(indep))
        assignment = dict(zip(indep, values))
        remaining = [i for i in range(n) if i not in assignment]
        found = _solve_zero_dim(ring, basis, remaining, assignment)
        yield attempt, None if found is None else tuple(found[i] for i in range(n))
