"""Lifting points of a local tropical variety to truncated series.

The pipeline: find the rational span of the weight values, descend the
ideal by cutting with certified weight-homogeneous hyperplane sections
until its dimension equals the span rank, choose parameter coordinates
and send them to exact monomials in t, then recover the remaining
coordinates one at a time from eliminated relations through a Newton
polygon iteration.  Every step is verified with exact arithmetic and the
final point comes with residual bounds.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import comb, gcd, isqrt

from .errors import (
    CapabilityError,
    DescentWitnessError,
    InsufficientTruncationError,
    InternalInvariantError,
    NonMemberError,
    UsageError,
    WitnessSearchError,
)
from .ideals import (
    IdealPresentation,
    dimension,
    eliminate,
    ideal_quotient,
    ideals_equal,
    presentation,
    torus_point,
)
from .linalg import mat_rank, solve_linear
from .polyring import (
    INF,
    PolyRing,
    Polynomial,
    initial_form,
    poly_str,
    project,
    substitute_scalars,
)
from .scalars import ValueScalar, as_value, cmp_value, roots_in_extension
from .series import (
    AtLeast,
    ValuedSeries,
    poly_to_series_coeffs,
    substitute,
    valuation as series_valuation,
    valuation_at_least,
)
from .tropical import TropQuery, trop_member
from .valfan import initial_ideal


def _lcm(a, b):
    return a * b // gcd(a, b)


# -- rational span of the weight values -------------------------------------


@dataclass(frozen=True)
class RationalSpan:
    """Integer coordinates of the weights in a basis of their Q-span.

    weights[i] equals sum_j matrix[i][j] * gamma[j]; the matrix has full
    column rank and integer entries, and gamma is a Q-linearly
    independent tuple of positive scalars.
    """

    rank: int
    gamma: tuple
    matrix: tuple

    @property
    def r(self):
        return self.rank


def rational_span(w):
    entries = [as_value(x) for x in w]
    if INF in entries:
        raise UsageError("weights must be finite here")
    if not entries:
        raise UsageError("empty weight vector")
    pairs = [(x.a, x.b) for x in entries]
    d = 1
    for x in entries:
        if x.b != 0:
            d = x.d
            break
    rank = mat_rank(pairs, 2)
    if rank == 0:
        raise UsageError("the zero vector spans nothing")
    if rank == 1:
        base = next(p for p in pairs if p != (0, 0))
        coords = []
        for a, b in pairs:
            if base[0] != 0:
                coords.append(a / base[0])
            else:
                coords.append(b / base[1])
        denom = 1
        for c in coords:
            denom = _lcm(denom, c.denominator)
        gamma = (ValueScalar(base[0] / denom, base[1] / denom, d),)
        matrix = tuple((int(c * denom),) for c in coords)
    else:
        d1 = 1
        d2 = 1
        for a, b in pairs:
            d1 = _lcm(d1, a.denominator)
            d2 = _lcm(d2, b.denominator)
        gamma = (ValueScalar(Fraction(1, d1)), ValueScalar(0, Fraction(1, d2), d))
        matrix = tuple((int(a * d1), int(b * d2)) for a, b in pairs)
    for entry, row in zip(entries, matrix):
        total = ValueScalar(0)
        for m, g in zip(row, gamma):
            total = total + g * m
        if entry != total:
            raise InternalInvariantError("span decomposition failed to verify")
    return RationalSpan(rank, gamma, matrix)


# -- one descent step -------------------------------------------------------


@dataclass
class DescentStep:
    """Record of one certified hyperplane cut."""

    weights: tuple
    integral_weight: tuple
    slice_indices: tuple
    J: tuple
    x0: tuple
    y0: tuple
    f_tilde: Polynomial
    f: Polynomial
    nonzerodivisor_ok: bool
    additivity_ok: bool
    monomial_free_ok: bool
    dim_before: int
    dim_after: int

    def ok(self):
        return (
            self.nonzerodivisor_ok
            and self.additivity_ok
            and self.monomial_free_ok
            and self.dim_after == self.dim_before - 1
        )


def _same_initial(I, w1, w2):
    A = initial_ideal(I, w1)
    B = initial_ideal(I, w2)
    PA = presentation(I.ring, list(A.generators), "local", A.weights)
    PB = presentation(I.ring, list(B.generators), "local", B.weights)
    return ideals_equal(PA, PB)


def _sqrt_floor(dd, k):
    return Fraction(isqrt(dd << (2 * k)), 1 << k)


def _integral_weight(I, w, span):
    """A positive integer vector in the span with the same initial ideal."""
    for k in range(64):
        approx = []
        for g in span.gamma:
            if g.b == 0:
                approx.append(g.a)
            else:
                approx.append(g.a + g.b * _sqrt_floor(g.d, k))
        cand = [
            sum((Fraction(m) * ap for m, ap in zip(row, approx)), Fraction(0))
            for row in span.matrix
        ]
        if any(c <= 0 for c in cand):
            continue
        denom = 1
        for c in cand:
            denom = _lcm(denom, c.denominator)
        ints = [int(c * denom) for c in cand]
        g = 0
        for v in ints:
            g = gcd(g, v)
        if g > 1:
            ints = [v // g for v in ints]
        if _same_initial(I, w, tuple(ints)):
            return tuple(ints)
    raise DescentWitnessError(
        "no integral weight with the same initial ideal was found"
    )


def descend(I, w, seed=0):
    """Cut the ideal by one certified weight-homogeneous hyperplane.

    Requires the dimension to exceed the rank of the weight span.  Finds
    two distinct points on the sliced initial variety, separates them by
    a weight-homogeneous binomial vanishing at the first, and certifies
    that adjoining it commutes with initial ideals, cuts the dimension
    by one, and keeps the initial ideal monomial-free.  Returns the
    enlarged presentation and the step record.
    """
    ring = I.ring
    n = ring.nvars()
    w = tuple(as_value(x) for x in w)
    span = rational_span(w)
    Iw = presentation(ring, list(I.generators), "local", w)
    dim_before = dimension(Iw)
    if dim_before <= span.rank:
        raise UsageError(
            "dimension %d does not exceed the weight rank %d; nothing to cut"
            % (dim_before, span.rank)
        )
    wp = _integral_weight(Iw, w, span)
    data = initial_ideal(Iw, w)
    Jp = presentation(ring, list(data.generators), "global")

    slice_idx = []
    rows = []
    for i in range(n):
        if mat_rank(rows + [span.matrix[i]], span.rank) > len(slice_idx):
            slice_idx.append(i)
            rows.append(span.matrix[i])
        if len(slice_idx) == span.rank:
            break
    if len(slice_idx) < span.rank:
        raise InternalInvariantError("span matrix lost rank")
    rest_idx = [i for i in range(n) if i not in slice_idx]
    small = PolyRing(ring.field, tuple(ring.vars[i] for i in rest_idx))
    var_map = [None] * n
    for pos, i in enumerate(rest_idx):
        var_map[i] = pos
    ones = {i: Fraction(1) for i in slice_idx}
    sliced = []
    for g in Jp.generators:
        h = project(substitute_scalars(g, ones), small, var_map)
        if not h.is_zero:
            sliced.append(h)
    try:
        Js = presentation(small, sliced, "global")
        wit_x = torus_point(Js, seed=seed)
    except (UsageError, WitnessSearchError) as exc:
        raise DescentWitnessError(
            "no torus point on the sliced initial variety: %s" % exc
        )
    x0_rest = tuple(wit_x.point)

    failures = []
    for a in range(1, 25):
        try:
            wit_y = torus_point(Js, seed=seed, max_attempts=1, start_attempt=a)
        except WitnessSearchError:
            continue
        y0_rest = tuple(wit_y.point)
        if y0_rest == x0_rest:
            continue
        step = _try_cut(
            I, Iw, Jp, data, w, wp, span, slice_idx, rest_idx,
            x0_rest, y0_rest, dim_before, failures,
        )
        if step is not None:
            I2, record = step
            return I2, record
    raise DescentWitnessError(
        "no certified hyperplane cut found"
        + ("; tried: " + "; ".join(failures[:4]) if failures else "")
    )


def _try_cut(
    I, Iw, Jp, data, w, wp, span, slice_idx, rest_idx,
    x0_rest, y0_rest, dim_before, failures,
):
    ring = I.ring
    n = ring.nvars()
    x0 = [None] * n
    y0 = [None] * n
    for i in slice_idx:
        x0[i] = Fraction(1)
        y0[i] = Fraction(1)
    for pos, i in enumerate(rest_idx):
        x0[i] = x0_rest[pos]
        y0[i] = y0_rest[pos]
    r = span.rank
    S = [span.matrix[i] for i in slice_idx]
    system = [tuple(S[a][c] for a in range(r)) for c in range(r)]
    for pos, j in enumerate(rest_idx):
        if x0[j] == y0[j]:
            continue
        z = solve_linear(system, span.matrix[j], r)
        if z is None:
            raise InternalInvariantError("slice rows stopped spanning")
        k0 = 1
        for v in z:
            k0 = _lcm(k0, v.denominator)
        c = x0[j]
        for s in range(1, 7):
            k = k0 * s
            ck = c**k
            if y0[j] ** k == ck:
                continue
            e1 = [0] * n
            e2 = [0] * n
            e1[j] = k
            for a, i in enumerate(slice_idx):
                za = z[a] * k
                if za < 0:
                    e1[i] = int(-za)
                else:
                    e2[i] = int(za)
            ej = [0] * n
            ej[j] = k
            f_tilde = ring.from_terms([(tuple(ej), 1), (tuple([0] * n), -ck)])
            f = ring.from_terms([(tuple(e1), 1), (tuple(e2), -ck)])
            if initial_form(f, w) != f:
                raise InternalInvariantError("cut polynomial is not homogeneous")
            quotient = ideal_quotient(Jp, f)
            nzd_ok = ideals_equal(quotient, Jp)
            if not nzd_ok:
                failures.append("%s is a zerodivisor" % poly_str(f))
                continue
            I2 = presentation(ring, list(Iw.generators) + [f], "local", w)
            lhs = initial_ideal(I2, w)
            left = presentation(ring, list(lhs.generators), "local", w)
            right = presentation(
                ring, list(data.generators) + [f], "local", w
            )
            additivity_ok = ideals_equal(left, right)
            monomial_free_ok = lhs.is_monomial_free()
            dim_after = dimension(I2)
            record = DescentStep(
                weights=w,
                integral_weight=wp,
                slice_indices=tuple(slice_idx),
                J=tuple(data.generators),
                x0=tuple(x0),
                y0=tuple(y0),
                f_tilde=f_tilde,
                f=f,
                nonzerodivisor_ok=nzd_ok,
                additivity_ok=additivity_ok,
                monomial_free_ok=monomial_free_ok,
                dim_before=dim_before,
                dim_after=dim_after,
            )
            if record.ok():
                return I2, record
            failures.append(
                "%s: additivity %s, monomial-free %s, dim %d->%d"
                % (
                    poly_str(f),
                    additivity_ok,
                    monomial_free_ok,
                    dim_before,
                    dim_after,
                )
            )
    return None


# -- Newton polygon root finding --------------------------------------------

_NP_NODE_LIMIT = 4000


def _lower_hull(points):
    hull = []
    for p in points:
        while len(hull) >= 2:
            (i1, v1), (i2, v2) = hull[-2], hull[-1]
            i3, v3 = p
            lhs = (v2 - v1) * (i3 - i1)
            rhs = (v3 - v1) * (i2 - i1)
            if cmp_value(lhs, rhs) >= 0:
                hull.pop()
            else:
                break
        hull.append(p)
    return hull


def _hull_at(hull, i):
    for (i1, v1), (i2, v2) in zip(hull, hull[1:]):
        if i1 <= i <= i2:
            return v1 + (v2 - v1) * Fraction(i - i1, i2 - i1)
    raise InternalInvariantError("abscissa outside the polygon")


def _taylor_shift(coeffs, shift, field, mode):
    d = len(coeffs) - 1
    powers = [ValuedSeries.constant(field, 1, mode)]
    for _ in range(d):
        powers.append(powers[-1] * shift)
    out = []
    for j in range(d + 1):
        acc = ValuedSeries.zero(field, INF, mode)
        for i in range(j, d + 1):
            acc = acc + coeffs[i].scale(comb(i, j)) * powers[i - j]
        out.append(acc)
    return out


def newton_puiseux(coeffs, N, mode="puiseux"):
    """All roots of sum coeffs[k] z^k as series known below exponent N.

    coeffs are truncated series over a shared field; the field may grow
    while edge polynomials are split.  Returns one series per root of
    the certain part, counted with multiplicity: exact when the
    iteration terminates, truncated at an exponent >= N otherwise.
    Raises when some coefficient is not known well enough to place the
    Newton polygon.
    """
    coeffs = list(coeffs)
    if not coeffs:
        raise UsageError("no coefficients")
    field = coeffs[0].field
    for c in coeffs:
        if c.field is not field:
            raise UsageError("coefficients live over different fields")
        if c.mode != mode:
            raise UsageError("coefficient mode does not match")
    N = as_value(N)
    if N is INF:
        raise UsageError("weights must be finite here")
    budget = [_NP_NODE_LIMIT]
    acc = ValuedSeries.zero(field, INF, mode)
    return _np_rec(coeffs, N, mode, field, acc, None, budget)


def _np_rec(coeffs, N, mode, field, acc, slope_bound, budget):
    budget[0] -= 1
    if budget[0] < 0:
        raise CapabilityError("root search exceeded its node budget")
    certain = [i for i, c in enumerate(coeffs) if c.terms]
    if not certain:
        if all(c.is_exact_zero for c in coeffs):
            raise UsageError("the polynomial is identically zero")
        raise InsufficientTruncationError(
            "every coefficient vanishes below its truncation"
        )
    i_min, top = certain[0], certain[-1]
    vals = {i: coeffs[i].terms[0][0] for i in certain}
    roots = []
    if i_min > 0:
        low = coeffs[:i_min]
        if all(c.is_exact_zero for c in low):
            for _ in range(i_min):
                roots.append(acc)
        else:
            v_min = vals[i_min]
            bound = None
            for i, c in enumerate(low):
                if c.is_exact_zero:
                    continue
                cand = (c.truncation - v_min) / Fraction(i_min - i)
                if bound is None or cmp_value(cand, bound) < 0:
                    bound = cand
            if cmp_value(bound, N) < 0:
                raise InsufficientTruncationError(
                    "roots near the accumulator are only separated up to t^(%s)"
                    % bound
                )
            capped = acc.truncate(bound)
            for _ in range(i_min):
                roots.append(capped)
    if i_min == top:
        return roots
    hull = _lower_hull([(i, vals[i]) for i in certain])
    for i in range(i_min + 1, top):
        c = coeffs[i]
        if c.terms or c.is_exact_zero:
            continue
        if not cmp_value(c.truncation, _hull_at(hull, i)) > 0:
            raise InsufficientTruncationError(
                "coefficient %d is only known above the Newton polygon" % i
            )
    for (i1, v1), (i2, v2) in zip(hull, hull[1:]):
        omega = (v1 - v2) / Fraction(i2 - i1)
        if slope_bound is not None and not cmp_value(omega, slope_bound) > 0:
            continue
        if not cmp_value(omega, N) < 0:
            capped = acc.truncate(omega)
            for _ in range(i2 - i1):
                roots.append(capped)
            continue
        phi = []
        for i in range(i1, i2 + 1):
            if i in vals and vals[i] == _hull_at(hull, i):
                phi.append(coeffs[i].terms[0][1])
            else:
                phi.append(Fraction(0))
        _, phi_roots = roots_in_extension(field, phi)
        for root_c, mult in phi_roots:
            shift = ValuedSeries.monomial(field, omega, root_c, mode)
            new_coeffs = _taylor_shift(coeffs, shift, field, mode)
            branch = _np_rec(
                new_coeffs, N, mode, field, acc + shift, omega, budget
            )
            if len(branch) != mult:
                raise InternalInvariantError(
                    "edge branch returned %d roots, expected %d"
                    % (len(branch), mult)
                )
            roots.extend(branch)
    return roots


# -- the full lifting pipeline ----------------------------------------------


@dataclass
class LiftProblem:
    """What to lift: an ideal, a weight point, a precision, a mode."""

    ideal: IdealPresentation
    weights: tuple
    N: ValueScalar
    mode: str = "puiseux"

    def __post_init__(self):
        self.weights = tuple(as_value(x) for x in self.weights)
        self.N = as_value(self.N)
        if INF in self.weights + (self.N,):
            raise UsageError("weights must be finite here")
        if self.mode not in ("puiseux", "hahn"):
            raise UsageError("mode must be puiseux or hahn")
        if self.mode == "puiseux":
            for x in self.weights:
                if not x.is_rational:
                    raise UsageError(
                        "irrational weight %s needs hahn mode" % x
                    )
        for x in self.weights:
            if x.sign() <= 0:
                raise UsageError("weights must be positive")
        if self.N.sign() <= 0:
            raise UsageError("the precision target must be positive")


@dataclass
class LiftResult:
    """A lifted point with the descent trail that produced it.

    achieved lists the exact valuation of each coordinate; residuals
    lists, per generator, the valuation of the generator evaluated at
    the point (+infinity for an exact zero, a lower bound otherwise).
    """

    problem: LiftProblem
    point: tuple
    parameters: tuple
    descents: tuple
    achieved: tuple = ()
    residuals: tuple = ()

    def point_strings(self):
        return tuple(str(s) for s in self.point)


def lift_point(problem, seed=0):
    """Lift a tropical membership to a truncated series point.

    The returned point has one series per variable: parameter
    coordinates are exact monomials c * t^w, the others are found by
    eliminating down to relations and running the Newton polygon.  All
    coordinate valuations match the weights exactly and every generator
    has residual valuation at least N (exactly zero when the iteration
    terminated).  Raises NonMemberError when the weight point is outside
    the tropical variety.
    """
    I = problem.ideal
    ring = I.ring
    n = ring.nvars()
    w = problem.weights
    membership = trop_member(I, TropQuery(w))
    if not membership.member:
        raise NonMemberError(
            "the initial ideal contains the monomial %s"
            % poly_str(membership.witness_monomial),
            witness=poly_str(membership.witness_monomial),
        )
    span = rational_span(w)
    r = span.rank
    I_cur = presentation(ring, list(I.generators), "local", w)
    descents = []
    for _ in range(n + 1):
        if dimension(I_cur) <= r:
            break
        I_cur, step = descend(I_cur, w, seed=seed)
        descents.append(step)
    else:
        raise InternalInvariantError("descent failed to reduce the dimension")
    dim = dimension(I_cur)
    if dim < r:
        raise UsageError(
            "the weights span rank %d but the ideal has dimension %d" % (r, dim)
        )

    param_sets = []
    for combo in combinations(range(n), r):
        if mat_rank([span.matrix[i] for i in combo], r) < r:
            continue
        test = presentation(
            ring,
            list(I_cur.generators) + [ring.var(i) for i in combo],
            "local",
            w,
        )
        if test.is_unit_ideal():
            continue
        if dimension(test) == 0:
            param_sets.append(combo)
    if not param_sets:
        raise DescentWitnessError("no parameter coordinates found")

    slack = ValueScalar(0)
    for x in w:
        if cmp_value(x, slack) > 0:
            slack = x
    base_target = problem.N + slack + 1
    failures = []
    for attempt in range(3):
        target = base_target * (2**attempt)
        for combo in param_sets[:6]:
            for variant in range(3):
                try:
                    point = _solve_with_parameters(
                        I_cur, w, combo, target, problem.mode, seed, variant
                    )
                except (
                    InsufficientTruncationError,
                    WitnessSearchError,
                    DescentWitnessError,
                    CapabilityError,
                ) as exc:
                    failures.append(str(exc))
                    continue
                if point is not None:
                    achieved = tuple(s.valuation() for s in point)
                    residuals = tuple(
                        series_valuation(substitute(g, point))
                        for g in I.generators
                    )
                    return LiftResult(
                        problem,
                        tuple(point),
                        combo,
                        tuple(descents),
                        achieved,
                        residuals,
                    )
                failures.append(
                    "no consistent roots for parameters %s" % (combo,)
                )
    raise DescentWitnessError(
        "lifting failed"
        + ("; tried: " + "; ".join(failures[:4]) if failures else "")
    )


def _parameter_scalars(seed, variant, count):
    if variant == 0:
        return [Fraction(1)] * count
    import random

    rng = random.Random(f"lift:{seed}:{variant}")
    out = []
    for _ in range(count):
        v = 0
        while v == 0:
            v = rng.randint(-3, 3)
        out.append(Fraction(v))
    return out


def _solve_with_parameters(I_cur, w, combo, target, mode, seed, variant):
    ring = I_cur.ring
    n = ring.nvars()
    field = ring.field
    scalars = _parameter_scalars(seed, variant, len(combo))
    assignment = {}
    for i, c in zip(combo, scalars):
        assignment[i] = ValuedSeries.monomial(field, w[i], c, mode)
    remaining = [i for i in range(n) if i not in assignment]
    return _dfs_solve(I_cur, w, assignment, remaining, target, mode, set(combo))


def _dfs_solve(I_cur, w, assignment, remaining, target, mode, params):
    ring = I_cur.ring
    n = ring.nvars()
    if not remaining:
        for g in I_cur.generators:
            val = substitute(g, assignment).valuation()
            if not valuation_at_least(val, target):
                return None
        return [assignment[i] for i in range(n)]
    m = remaining[0]
    rest = remaining[1:]
    assigned = set(assignment)
    relation = _coordinate_relation(I_cur, m, assigned, params)
    if relation is None:
        return None
    coeffs = poly_to_series_coeffs(
        relation, m, {i: s for i, s in assignment.items() if i != m}
    )
    roots = newton_puiseux(coeffs, target, mode)
    seen = set()
    for root in sorted(roots, key=_root_order_key):
        if not root.terms:
            continue
        if cmp_value(root.terms[0][0], w[m]) != 0:
            continue
        key = (root.terms, root.truncation)
        if key in seen:
            continue
        seen.add(key)
        assignment2 = dict(assignment)
        assignment2[m] = root
        found = _dfs_solve(I_cur, w, assignment2, rest, target, mode, params)
        if found is not None:
            return found
    return None


def _root_order_key(root):
    # prefer roots whose leading coefficient does not start with a minus,
    # so sign-symmetric pairs come out with the positive branch first
    text = str(root)
    return (text.startswith("-"), text)


def _coordinate_relation(I_cur, m, assigned, params):
    """A generator relating coordinate m to already assigned coordinates."""
    ring = I_cur.ring
    n = ring.nvars()
    for keep in (assigned | {m}, params | {m}):
        drop = [i for i in range(n) if i not in keep]
        candidates = []
        for g in eliminate(ring, list(I_cur.generators), drop):
            deg = max((mono[m] for mono in g.coeffs), default=0)
            if deg >= 1:
                candidates.append((deg, len(g.coeffs), poly_str(g), g))
        if candidates:
            candidates.sort(key=lambda t: (t[0], t[1], t[2]))
            return candidates[0][3]
    return None


# -- verification -----------------------------------------------------------


@dataclass
class VerifyReport:
    """Outcome of checking a lifted point against its problem."""

    valuation_checks: tuple
    residual_checks: tuple
    mode_ok: bool
    positive_ok: bool

    def ok(self):
        return (
            self.mode_ok
            and self.positive_ok
            and all(entry[-1] for entry in self.valuation_checks)
            and all(entry[-1] for entry in self.residual_checks)
        )

    def to_json_dict(self):
        return {
            "ok": self.ok(),
            "valuations": [
                {"index": i, "expected": e, "observed": o, "ok": flag}
                for i, e, o, flag in self.valuation_checks
            ],
            "residuals": [
                {"generator": i, "valuation": v, "exact_zero": z, "ok": flag}
                for i, v, z, flag in self.residual_checks
            ],
            "mode_ok": self.mode_ok,
            "positive_ok": self.positive_ok,
        }


def verify_lift(problem, point=None, w=None, N=None, mode=None):
    """Re-check a lifted point: valuations, residuals, mode, positivity.

    Accepts either an already built LiftProblem (optionally with a
    LiftResult as the point) or the raw pieces (ideal, point, w, N,
    mode), from which the problem is assembled.
    """
    if isinstance(problem, LiftResult):
        if point is not None:
            raise UsageError("a lift result already carries its point")
        point = problem.point
        problem = problem.problem
    elif isinstance(problem, IdealPresentation):
        if w is None or N is None:
            raise UsageError("verifying a raw point needs both w and N")
        problem = LiftProblem(problem, tuple(w), N, mode or "puiseux")
    elif not isinstance(problem, LiftProblem):
        raise UsageError("expected a lift problem or an ideal presentation")
    if isinstance(point, LiftResult):
        point = point.point
    if point is None:
        raise UsageError("no point to verify")
    point = tuple(point)
    I = problem.ideal
    n = I.ring.nvars()
    if len(point) != n:
        raise UsageError("point length does not match the ring")
    val_checks = []
    mode_ok = True
    positive_ok = True
    for i, s in enumerate(point):
        if s.mode != problem.mode:
            mode_ok = False
        for exp, _ in s.terms:
            if exp.sign() <= 0:
                positive_ok = False
        v = s.valuation()
        if v is INF or isinstance(v, AtLeast):
            flag = False
            observed = str(v)
        else:
            flag = cmp_value(v, problem.weights[i]) == 0
            observed = str(v)
        val_checks.append((i, str(problem.weights[i]), observed, flag))
    res_checks = []
    assignment = {i: s for i, s in enumerate(point)}
    for gi, g in enumerate(I.generators):
        residual = substitute(g, assignment)
        v = residual.valuation()
        flag = valuation_at_least(v, problem.N)
        res_checks.append((gi, str(v), residual.is_exact_zero, flag))
    return VerifyReport(
        tuple(val_checks), tuple(res_checks), mode_ok, positive_ok
    )
