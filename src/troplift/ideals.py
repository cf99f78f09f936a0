"""Ideal presentations and standard basis computations.

One standard basis engine, the S-pair loop, serves both kinds of order;
only its normal form, its pair selection and its finishing step change
(Greuel-Pfister, *A Singular Introduction to Commutative Algebra*, 1.7 and
2.3).  Global orders use full division by the basis and end with a full
interreduction (Buchberger's algorithm).  Local orders use Mora's
tangent-cone normal form with the smallest-ecart divisor rule, which
terminates on polynomial input and decides membership in the power series
ring, and end with a capped tail reduction.  Basis elements are carried as
records of the element and its leading data, computed once.  One division
routine, ``divide``, tracks quotients and serves global normal forms,
exact division and w-homogeneous division alike.  Everything downstream
(saturation, quotients, dimension, monomial detection, torus points)
reduces to this engine.
"""

from __future__ import annotations

import heapq
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

from .errors import (
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
    inject,
    leading_term,
    project,
    substitute_scalars,
    w_order,
    w_order_max,
    wdot,
)
from .scalars import (
    ValueScalar,
    _pgcd,
    _pnorm,
    _scalar_div,
    _scalar_is_zero,
    adjoin_root,
    factor_univariate,
)

_MAX_REDUCTION_STEPS = 50000


def ecart(f: Polynomial, order: OrderDescriptor):
    """Highest minus leading weight; the Mora divisor selection key."""
    lo = w_order(f, order.weights)
    hi = w_order_max(f, order.weights)
    return hi - lo


def _record(g, order):
    """(g, leading monomial, leading coefficient, ecart) of a nonzero g; the
    ecart is only used, and only computed, for local orders."""
    m, c = leading_term(g, order)
    return g, m, c, ecart(g, order) if order.mode == "local" else None


def lead_records(polys, order: OrderDescriptor):
    """Records of the nonzero polynomials, in order, for division."""
    return [_record(g, order) for g in polys if not g.is_zero]


def _spoly(a, b):
    f, mf, cf, _ = a
    g, mg, cg, _ = b
    m = expo_lcm(mf, mg)
    one = Fraction(1)
    return f.mul_term(expo_sub(m, mf), _scalar_div(one, cf)) - g.mul_term(
        expo_sub(m, mg), _scalar_div(one, cg)
    )


def spoly(f: Polynomial, g: Polynomial, order: OrderDescriptor) -> Polynomial:
    return _spoly(_record(f, order), _record(g, order))


@dataclass(frozen=True)
class BasisCertificate:
    order_text: str
    spair_reductions: int
    reduced: bool


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
        self._certificate = None

    def standard_basis(self):
        if self._basis is None:
            if self.order.mode == "global":
                basis, reds, reduced = _buchberger(self.generators, self.order)
            else:
                basis, reds, reduced = _mora_std(self.generators, self.order)
            self._basis = tuple(basis)
            self._certificate = BasisCertificate(
                order_text=self.order.describe(),
                spair_reductions=reds,
                reduced=reduced,
            )
        return self._basis

    def certificate(self) -> BasisCertificate:
        self.standard_basis()
        return self._certificate

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

    def __repr__(self):
        gens = "; ".join(str(g) for g in self.generators) or "0"
        return f"IdealPresentation({gens} | {self.order.describe()})"


def presentation(ring, gens, mode="global", weights=None):
    if weights is None:
        if mode == "local":
            raise UsageError("local presentations need explicit weights")
        weights = (ValueScalar(0),) * ring.nvars()
    return IdealPresentation(ring, gens, OrderDescriptor(weights, mode))


# -- division ---------------------------------------------------------------


def divide(f: Polynomial, records, order: OrderDescriptor):
    """Full division of f by the polynomials of the records (see
    lead_records): (quotients, remainder) with f = sum q_i g_i + remainder
    and no remainder monomial divisible by a leading monomial.

    Each step uses the first divisor whose leading monomial divides the
    leading monomial of the running polynomial.  Terminates for global
    orders, and for w-homogeneous input under a local order, since a fixed
    weight level carries finitely many monomials.  Leading monomials
    strictly decrease, so every quotient and remainder monomial is written
    once.
    """
    quots = [{} for _ in records]
    rem = {}
    h = dict(f.coeffs)
    steps = 0
    while h:
        steps += 1
        if steps > _MAX_REDUCTION_STEPS:
            raise InternalInvariantError("division did not terminate")
        m = max(h, key=order.key)
        c = h.pop(m)
        for q, (g, mg, cg, _) in zip(quots, records):
            if expo_divides(mg, m):
                shift = expo_sub(m, mg)
                coef = _scalar_div(c, cg)
                q[shift] = coef
                # the leading term cancels c exactly; subtract the rest
                for mo, co in g.coeffs.items():
                    if mo == mg:
                        continue
                    mt = expo_add(mo, shift)
                    v = h.get(mt)
                    v = -(co * coef) if v is None else v - co * coef
                    if _scalar_is_zero(v):
                        del h[mt]
                    else:
                        h[mt] = v
                break
        else:
            rem[m] = c
    ring = f.ring
    return [Polynomial(ring, q) for q in quots], Polynomial(ring, rem)


def _full_nf(f, records, order):
    return divide(f, records, order)[1]


def _mora_nf(f, records, order):
    """Mora weak normal form: u*f = sum q_i g_i + r with u a local unit and
    the leading term of r not divisible by any basis leading term."""
    T = list(records)
    h = f
    n = 0
    while not h.is_zero:
        n += 1
        if n > _MAX_REDUCTION_STEPS:
            raise InternalInvariantError("Mora reduction did not terminate")
        m, c = leading_term(h, order)
        cands = [(rec[3], i) for i, rec in enumerate(T) if expo_divides(rec[1], m)]
        if not cands:
            return h
        eh = ecart(h, order)
        g, mg, cg, eg = T[min(cands)[1]]
        if eg > eh:
            T.append((h, m, c, eh))
        h = h - g.mul_term(expo_sub(m, mg), _scalar_div(c, cg))
    return h


def normal_form(f: Polynomial, basis, order: OrderDescriptor) -> Polynomial:
    """Remainder of f on division by the basis (weak normal form in local
    mode); zero exactly for ideal members when the basis is standard."""
    nf = _full_nf if order.mode == "global" else _mora_nf
    return nf(f, lead_records(basis, order), order)


# -- standard bases ---------------------------------------------------------


def _entry(g, order):
    """The record of g made monic, as g enters a basis."""
    g, m, c, e = _record(g, order)
    if c != 1:
        g = g * _scalar_div(Fraction(1), c)
        c = g.coeffs[m]
    return g, m, c, e


def _global_pair(order, a, b, i, j):
    """Pair key by degree of the lcm, and whether the pair is skipped:
    coprime leading monomials give an S-polynomial reducing to zero."""
    m = expo_lcm(a[1], b[1])
    return (expo_deg(m), m, i, j), m == expo_add(a[1], b[1])


def _local_pair(order, a, b, i, j):
    """Pair key by weight, then degree, of the lcm; no pair is skipped."""
    m = expo_lcm(a[1], b[1])
    return (wdot(order.weights, m), expo_deg(m), m, i, j), False


def _spair_loop(gens, order, nf, pair):
    """The standard basis algorithm, with the normal form and the pair
    selection as its parameters (Greuel-Pfister, 1.7).  Returns the
    minimalized basis records and the number of S-pair reductions.  A
    pair's key is computed once, when the pair is formed; pairs pop in key
    order, and keys end with (i, j)."""
    G = []
    for g in gens:
        if not g.is_zero:
            rec = _entry(g, order)
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
        h = nf(_spoly(G[i], G[j]), G, order)
        reductions += 1
        if not h.is_zero:
            G.append(_entry(h, order))
            add_pairs(len(G) - 1)
    return _minimalize(G), reductions


def _buchberger(gens, order):
    """Buchberger's algorithm: full division, coprime pairs skipped, and a
    fully interreduced basis in ascending order."""
    G, reductions = _spair_loop(gens, order, _full_nf, _global_pair)
    # full interreduction (terminates for global orders)
    changed = True
    rounds = 0
    while changed and rounds < 100:
        changed = False
        rounds += 1
        for i in range(len(G)):
            r = _full_nf(G[i][0], G[:i] + G[i + 1 :], order)
            if r.is_zero:
                G.pop(i)
                changed = True
                break
            rec = _entry(r, order)
            if rec[0] != G[i][0]:
                G[i] = rec
                changed = True
    G.sort(key=lambda r: order.key(r[1]))
    return [r[0] for r in G], reductions, _is_reduced(G)


def _mora_std(gens, order):
    """Mora's algorithm: tangent-cone normal form, every pair reduced, and
    a capped tail reduction; the basis is in descending order."""
    G, reductions = _spair_loop(gens, order, _mora_nf, _local_pair)
    G = [_tail_reduce_local(i, G, order) for i in range(len(G))]
    G.sort(key=lambda r: order.key(r[1]), reverse=True)
    return [r[0] for r in G], reductions, _is_reduced(G)


def _minimalize(G):
    # drop records whose leading monomial is divisible by another's; on
    # equal leading monomials keep the earliest
    out = []
    for i, (_, mi, _, _) in enumerate(G):
        if not any(
            j != i and expo_divides(mj, mi) and (mj != mi or j < i)
            for j, (_, mj, _, _) in enumerate(G)
        ):
            out.append(G[i])
    return out


def _tail_reduce_local(idx, G, order, max_steps=200):
    """Reduce the tail of G[idx] by the other records, in at most max_steps
    steps.  A tail step subtracts terms below the leading term, so the
    record keeps its leading monomial and coefficient; nothing reads the
    ecart after this step, and the returned record carries none."""
    g, lead_m, lead_c, _ = G[idx]
    others = G[:idx] + G[idx + 1 :]
    if not others:
        return g, lead_m, lead_c, None
    for _ in range(max_steps):
        target = None
        for m in sorted(g.coeffs, key=order.key, reverse=True):
            if m == lead_m:
                continue
            for og, om, oc, _ in others:
                if expo_divides(om, m):
                    target = (m, og, om, oc)
                    break
            if target:
                break
        if target is None:
            break
        m, og, om, oc = target
        g = g - og.mul_term(expo_sub(m, om), _scalar_div(g.coeffs[m], oc))
    return g, lead_m, lead_c, None


def _is_reduced(G):
    for i, (g, _, _, _) in enumerate(G):
        for m in g.coeffs:
            for j, (_, lt, _, _) in enumerate(G):
                if i != j and expo_divides(lt, m):
                    return False
    return True


# -- derived operations -----------------------------------------------------


def ideal_member(f: Polynomial, I: IdealPresentation) -> bool:
    if f.is_zero:
        return True
    return normal_form(f, I.standard_basis(), I.order).is_zero


def ideals_equal(A: IdealPresentation, B: IdealPresentation) -> bool:
    """Equality of the presented ideals (same ring); membership both ways.

    For local presentations this is equality in the power series ring.
    """
    if not A.ring.same(B.ring):
        raise UsageError("cannot compare ideals in different rings")
    return all(ideal_member(g, B) for g in A.generators) and all(
        ideal_member(g, A) for g in B.generators
    )


def _fresh_name(ring, base):
    name = base
    while name in ring.index:
        name = "_" + name
    return name


def eliminate(ring: PolyRing, gens, elim_indices):
    """Generators of the elimination ideal (still expressed in the full
    ring).  Uses the weight trick: weight 1 on eliminated variables, 0 on the
    rest, refined by graded revlex, which is a genuine elimination order."""
    elim = set(elim_indices)
    if not elim:
        return list(gens)
    ws = [ValueScalar(1) if i in elim else ValueScalar(0) for i in range(ring.nvars())]
    order = OrderDescriptor(ws, "global")
    basis, _, _ = _buchberger(list(gens), order)
    out = []
    for g in basis:
        if all(all(m[i] == 0 for i in elim) for m in g.coeffs):
            out.append(g)
    return out


def saturate(I: IdealPresentation, g: Polynomial) -> IdealPresentation:
    """(I : g^infinity) by the Rabinowitsch trick, returned with a global
    grevlex presentation."""
    if g.is_zero:
        raise UsageError("cannot saturate by zero")
    ring = I.ring
    big = PolyRing(ring.field, ring.vars + (_fresh_name(ring, "s_"),))
    vmap = list(range(ring.nvars()))
    s = big.var(big.nvars() - 1)
    gens = [inject(f, big, vmap) for f in I.generators]
    gens.append(big.one() - s * inject(g, big, vmap))
    elim = eliminate(big, gens, [big.nvars() - 1])
    small_map = vmap + [None]
    back = [project(f, ring, small_map) for f in elim]
    return presentation(ring, back, "global")


def ideal_quotient(I: IdealPresentation, f: Polynomial) -> IdealPresentation:
    """(I : f) via intersection with (f) and exact division."""
    if f.is_zero:
        raise UsageError("quotient by the zero polynomial")
    ring = I.ring
    big = PolyRing(ring.field, ring.vars + (_fresh_name(ring, "t_"),))
    vmap = list(range(ring.nvars()))
    t = big.var(big.nvars() - 1)
    gens = [t * inject(g, big, vmap) for g in I.generators]
    gens.append((big.one() - t) * inject(f, big, vmap))
    elim = eliminate(big, gens, [big.nvars() - 1])
    small_map = vmap + [None]
    inter = [project(h, ring, small_map) for h in elim]
    order = OrderDescriptor((ValueScalar(0),) * ring.nvars(), "global")
    divisor = lead_records([f], order)
    quots = []
    for h in inter:
        if h.is_zero:
            continue
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

    Decided by saturating with respect to the product of all variables.  For
    weight-homogeneous generators this also answers the power series question,
    which is the relevant case for initial ideals.
    """
    if I.is_zero_ideal():
        return False, None
    ring = I.ring
    prod = ring.monomial((1,) * ring.nvars())
    sat = saturate(_as_global(I), prod)
    if not sat.is_unit_ideal():
        return False, None
    basis = I.standard_basis()
    witness = None
    for k in range(1, 65):
        cand = prod ** k
        if normal_form(cand, basis, I.order).is_zero:
            witness = cand
            break
    if witness is None:
        raise InternalInvariantError("saturation unit but no monomial power found")
    # shrink the witness exponent by exponent, last variable first
    expo = list(witness.support()[0])
    for i in range(len(expo) - 1, -1, -1):
        while expo[i] > 0:
            trial = list(expo)
            trial[i] -= 1
            cand = ring.monomial(trial)
            if cand.is_zero or not normal_form(cand, basis, I.order).is_zero:
                break
            expo = trial
    return True, ring.monomial(expo)


def dimension(I: IdealPresentation) -> int:
    """Krull dimension of the quotient by the leading-term ideal trick:
    the largest variable subset meeting no leading monomial."""
    basis = I.standard_basis()
    if I.is_unit_ideal():
        raise UsageError("the unit ideal has no dimension")
    n = I.ring.nvars()
    if n > 16:
        raise UsageError("dimension computation capped at 16 variables")
    return len(_independent_set(basis, I.order, n))


def _independent_set(basis, order, n):
    """The first largest set of variable indices, in itertools.combinations
    order, that contains the support of no leading monomial of the basis."""
    supports = [
        frozenset(i for i, e in enumerate(leading_term(g, order)[0]) if e)
        for g in basis
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
        if g.is_zero:
            continue
        if all(all(e == 0 for i, e in enumerate(m) if i != var) for m in g.coeffs):
            cs = {}
            for m, c in g.coeffs.items():
                cs[m[var]] = c
            deg = max(cs)
            acc.append([cs.get(i, Fraction(0)) for i in range(deg + 1)])
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
    _, factors = factor_univariate(ring.field, uni)
    ordered = sorted(factors, key=lambda t: (len(t[0]), _fac_str(t[0])))
    for fac, _mult in ordered:
        if len(fac) == 2 and _scalar_is_zero(fac[0]):
            continue  # root zero: not a torus point
        if len(fac) == 2:
            root = (-fac[0]) / fac[1]
        else:
            _, root = adjoin_root(ring.field, fac)
        if _scalar_is_zero(root):
            continue
        trial = dict(assignment)
        trial[var] = root
        found = _solve_zero_dim(ring, gens, rest, trial)
        if found is not None:
            return found
    return None


def _fac_str(fac):
    from .scalars import scalar_str

    return tuple(scalar_str(c) for c in fac)


def torus_point(
    J: IdealPresentation, seed=0, max_attempts=16, start_attempt=0
) -> TorusWitness:
    """A point with all coordinates nonzero in the vanishing locus.

    The ideal must be monomial-free.  Generic rational values are substituted
    for a maximal independent variable set (deterministic, seeded), the rest
    is solved by elimination and root adjunction, rejecting zero coordinates;
    bounded retries with fresh slice values.  start_attempt skips the first
    few value choices, which is how callers ask for a different point.
    """
    flag, wit = contains_monomial(J)
    if flag:
        raise UsageError(f"ideal contains the monomial {wit}; no torus point")
    ring = J.ring
    n = ring.nvars()
    Jg = _as_global(J)
    basis = Jg.standard_basis()
    if not basis:
        values = _slice_values(seed, start_attempt, n)
        return TorusWitness(tuple(values), ring.field, seed, start_attempt)
    indep = _independent_set(basis, Jg.order, n)
    for attempt in range(start_attempt, start_attempt + max_attempts):
        values = _slice_values(seed, attempt, len(indep))
        assignment = {i: v for i, v in zip(indep, values)}
        remaining = [i for i in range(n) if i not in assignment]
        found = _solve_zero_dim(ring, list(basis), remaining, assignment)
        if found is None:
            continue
        point = tuple(found[i] for i in range(n))
        if any(_scalar_is_zero(x) for x in point):
            continue
        ok = True
        for g in J.generators:
            if not substitute_scalars(g, found).is_zero:
                ok = False
                break
        if ok:
            return TorusWitness(point, ring.field, seed, attempt + 1)
    raise WitnessSearchError(
        f"no torus point found in {max_attempts} attempts (seed {seed})"
    )
