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
from itertools import combinations, islice
from math import comb, isqrt, lcm

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
    _entry,
    _leading_ideal,
    dimension,
    eliminate,
    ideals_equal,
    presentation,
    saturate,
    torus_attempts,
    torus_point,
)
from .linalg import mat_rank, primitive_row, rref, solve_linear
from .polyring import INF, Polynomial, initial_form, poly_str, restrict
from .scalars import (
    AlgebraicNumber,
    ValueScalar,
    _make,
    as_field_element,
    as_value,
    roots_in_extension,
)
from .series import (
    ValuedSeries,
    poly_to_series_coeffs,
    substitute,
    valuation_at_least,
)
from .tropical import TropQuery, trop_member
from .valfan import _additivity, initial_ideal


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
            denom = lcm(denom, c.denominator)
        gamma = (ValueScalar(base[0] / denom, base[1] / denom, d),)
        matrix = tuple((int(c * denom),) for c in coords)
    else:
        d1 = 1
        d2 = 1
        for a, b in pairs:
            d1 = lcm(d1, a.denominator)
            d2 = lcm(d2, b.denominator)
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


def _sqrt_floor(dd, k):
    return Fraction(isqrt(dd << (2 * k)), 1 << k)


def _integral_weight(I, data, span):
    """A positive integer vector in the span with the same initial ideal as
    I at data.weights, where data is that initial ideal."""
    w = data.weights
    initial = data.presentation
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
        ints = primitive_row(cand)
        if w == tuple(cand):
            # ints is a positive multiple of w, so it orders monomials as w
            return ints
        if ideals_equal(initial, initial_ideal(I, ints).presentation):
            return ints
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
    Iw = I.local_at(w)
    dim_before = dimension(Iw)
    if dim_before <= span.rank:
        raise UsageError(
            "dimension %d does not exceed the weight rank %d; nothing to cut"
            % (dim_before, span.rank)
        )
    data = initial_ideal(Iw, w)
    wp = _integral_weight(Iw, data, span)
    Jp = data.presentation

    # the pivot columns of the transpose: the first independent rows
    _, slice_idx = rref(list(zip(*span.matrix)), n)
    if len(slice_idx) < span.rank:
        raise InternalInvariantError("span matrix lost rank")
    ones = {i: Fraction(1) for i in slice_idx}
    small, sliced, var_map = restrict(Jp.generators, ring, ones)
    try:
        Js = presentation(small, sliced, "global")
        wit_x = torus_point(Js, seed=seed)
    except (UsageError, WitnessSearchError) as exc:
        raise DescentWitnessError(
            "no torus point on the sliced initial variety: %s" % exc
        )
    found = []

    def later_points():
        # y0 from the attempts after x0's, up to attempt 24; the attempts
        # before it found no point
        attempts = torus_attempts(Js, seed, start=wit_x.attempts)
        for _, point in islice(attempts, 25 - wit_x.attempts):
            if point is not None:
                found.append(_unslice(point, var_map))
                yield found[-1]

    x0, ys = _unslice(wit_x.point, var_map), later_points()
    failures = []
    zerodivisors_only = True
    while True:
        for y0 in ys:
            if y0 == x0:
                continue
            for f_tilde, f in _binomials(ring, span, slice_idx, x0, y0):
                if initial_form(f, w) != f:
                    raise InternalInvariantError("cut polynomial is not homogeneous")
                I2 = Iw.with_extra([f])
                nzd_ok, lhs, additivity_ok = _additivity(Jp, I2, f, w)
                if not nzd_ok:
                    failures.append("%s is a zerodivisor" % poly_str(f))
                    continue
                zerodivisors_only = False
                record = DescentStep(
                    weights=w,
                    integral_weight=wp,
                    slice_indices=tuple(slice_idx),
                    J=tuple(data.generators),
                    x0=x0,
                    y0=y0,
                    f_tilde=f_tilde,
                    f=f,
                    nonzerodivisor_ok=True,
                    additivity_ok=additivity_ok,
                    monomial_free_ok=lhs.is_monomial_free(),
                    dim_before=dim_before,
                    dim_after=dimension(I2),
                )
                if record.ok():
                    return I2, record
                failures.append(
                    "%s: additivity %s, monomial-free %s, dim %d->%d"
                    % (poly_str(f), additivity_ok, record.monomial_free_ok,
                       dim_before, record.dim_after)
                )
        # every cut through x0 was a zerodivisor, as when x0 lies on two
        # components: x0 moves to the next point found, y0 to those after it
        if not zerodivisors_only or not found:
            break
        x0, ys = found.pop(0), found
    raise DescentWitnessError(
        "no certified hyperplane cut found"
        + ("; tried: " + "; ".join(failures[:4]) if failures else "")
    )


def _unslice(rest, var_map):
    """The point with the given coordinates off the slice and 1 on it."""
    return tuple(Fraction(1) if pos is None else rest[pos] for pos in var_map)


def _binomials(ring, span, slice_idx, x0, y0):
    """Candidate cuts (f_tilde, f) through x0 that miss y0, two points that
    are 1 on the slice.  For each coordinate j where they differ and each
    k = k0*s, s = 1..6, with y0_j^k != x0_j^k: f_tilde = x_j^k - x0_j^k,
    and f makes it w-homogeneous with the monomial in the slice variables
    of exponents k*z, where row j of the span matrix is z times the slice
    rows; a negative exponent moves its variable to the x_j^k term."""
    n = ring.nvars()
    r = span.rank
    S = [span.matrix[i] for i in slice_idx]
    system = [tuple(S[a][c] for a in range(r)) for c in range(r)]
    for j in range(n):
        if x0[j] == y0[j]:
            continue
        z = solve_linear(system, span.matrix[j], r)
        if z is None:
            raise InternalInvariantError("slice rows stopped spanning")
        k0 = 1
        for v in z:
            k0 = lcm(k0, v.denominator)
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
            yield f_tilde, f


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
            if lhs >= rhs:
                hull.pop()
            else:
                break
        hull.append(p)
    return hull


def _ratio(a, n):
    """a / n for a positive int n, and an int when n divides the int a."""
    if a.__class__ is int and not a % n:
        return a // n
    return a / Fraction(n)


def _grid(coeffs, mode):
    """The maps into and out of the walk's exponent units: e -> e*L in
    puiseux mode, the identity in hahn mode.  L = L0*lcm(1..d), with L0 the
    common denominator of the exponents and truncations and d the degree: a
    root of a degree-d polynomial over k((t^(1/L0))) has ramification index
    at most d, so its exponents, and the slopes and shifts that reach them,
    are ints.  A value off the grid, such as a separation bound, stays an
    exact Fraction; an irrational one stays a ValueScalar."""
    if mode == "hahn":
        return as_value, as_value
    L0 = 1
    for c in coeffs:
        for x in (c.truncation, *(e for e, _ in c.terms)):
            if x is not INF and not x.b:
                L0 = lcm(L0, x.a.denominator)
    L = L0 * lcm(*range(1, len(coeffs)))

    def into(x):
        if x is INF or x.b:
            return x if x is INF else x * L
        q = x.a * L
        return q.numerator if q.denominator == 1 else q

    def back(x):
        if x is INF or x.__class__ is ValueScalar:
            return x if x is INF else x / L
        return object.__new__(ValueScalar)._build(Fraction(x, L), Fraction(0), 1)

    return into, back


def _taylor_shift(coeffs, c, omega, q=1):
    """Coefficients of q^d * p(z + (c/q)*t^omega) for p = sum coeffs[i] z^i
    of degree d.

    Coefficients are (truncation, sorted nonzero terms) pairs in the
    walk's exponent units.  Coefficient j is the sum over i >= j of
    comb(i, j) * c^(i-j) * q^(d-i+j) * t^((i-j)*omega) * coeffs[i]; it is
    known below the least truncation_i + (i-j)*omega.  With ints c and q
    an int polynomial stays one.  Terms at or above that bound are skipped
    before their coefficients are multiplied, and the rest are summed in
    one dict keyed by exponent, an int on the puiseux grid.
    """
    d = len(coeffs) - 1
    c_pows, w_pows = [1], [omega * k for k in range(d + 1)]
    for _ in range(d):
        c_pows.append(c_pows[-1] * c)
    if q != 1:
        c_pows = [x * q ** (d - k) for k, x in enumerate(c_pows)]
    out = []
    for j in range(d + 1):
        trunc = INF
        for i in range(j, d + 1):
            trunc = min(trunc, coeffs[i][0] + w_pows[i - j])
        sums = {}
        for i in range(j, d + 1):
            offset, scale = w_pows[i - j], None
            for e, a in coeffs[i][1]:
                if i > j:  # else the offset is 0 and the scale q^d
                    e = e + offset
                if trunc is not INF and e >= trunc:
                    break  # terms are sorted, so the rest lie above too
                if i > j or q != 1:
                    if scale is None:
                        scale = comb(i, j) * c_pows[i - j]
                    a = a * scale
                sums[e] = sums[e] + a if e in sums else a
        out.append((trunc, [(e, sums[e]) for e in sorted(sums) if sums[e]]))
    return out


def _primitive(coeffs):
    """The polynomial times the lcm of its term denominators and divided by
    its content, with int terms, when every term is rational; else coeffs.
    A nonzero constant factor moves no root, truncation or term."""
    values = [a for _, terms in coeffs for _, a in terms]
    if not all(a.__class__ is int or a.__class__ is Fraction for a in values):
        return coeffs
    ints = iter(primitive_row(values))
    return [(trunc, [(e, next(ints)) for e, _ in terms]) for trunc, terms in coeffs]


def newton_puiseux(coeffs, N, mode="puiseux"):
    """All roots of sum coeffs[k] z^k as series known below exponent N.

    coeffs are truncated series over a shared field; the field may grow
    while edge polynomials are split.  Returns one series per root of
    the certain part, counted with multiplicity: exact when the
    iteration terminates, truncated at an exponent >= N otherwise.
    Raises when some coefficient is not known well enough to place the
    Newton polygon.  The walk runs on (truncation, terms) pairs in the
    exponent units of _grid; a ValueScalar is built only for the exponents
    of a returned root or an error message.  When every coefficient is
    rational, the walk runs on the primitive int polynomial (_primitive).
    Of a conjugate pair of simple edge roots on a quadratic level that the
    node adjoined, only the first is walked (_np_node); the second costs
    its source's node count against the node budget.
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
        raise UsageError("the precision target must be finite")
    if N.sign() <= 0:
        raise UsageError("the precision target must be positive")
    into, back = _grid(coeffs, mode)
    N = into(N)
    coeffs = _primitive(
        [(into(c.truncation), [(into(e), a) for e, a in c.terms]) for c in coeffs]
    )
    # depth-first walk of the Newton polygon tree on an explicit stack of
    # (node generator, budget left after it), so the depth is bounded by the
    # node budget alone.  A node yields a child, and is sent its roots and
    # the number of nodes its subtree took, or yields the node count of a
    # mirrored branch, which is charged as if that branch were walked.
    budget = _NP_NODE_LIMIT
    stack, request, sent = [], (coeffs, (), None), None
    while True:
        if request.__class__ is tuple:
            budget -= 1
            stack.append((_np_node(*request, N, field, back), budget))
        elif request is not None:
            budget -= request
        if budget < 0:
            raise CapabilityError("root search exceeded its node budget")
        try:
            request, sent = stack[-1][0].send(sent), None
        except StopIteration as done:
            _, left = stack.pop()
            if not stack:
                return [
                    object.__new__(ValuedSeries)._build(
                        field, [(back(e), a) for e, a in acc], back(t), mode
                    )
                    for acc, t in done.value
                ]
            request, sent = None, (done.value, left - budget + 1)


def _conjugate(field, level, x):
    """sigma(x) for the automorphism theta -> -m1 - theta of a level of
    degree 2, theta^2 + m1*theta + m0 = 0, which fixes the levels below
    it; x lies at a level <= level."""
    if x.__class__ is not AlgebraicNumber or x.level < level:
        return x
    (c0, c1), m1 = x.coeffs, field.levels[level - 1].minpoly[1]
    return _make(field, level, (c0 - c1 * m1, -c1))


def _mirror(field, level, branch):
    """The branch of sigma(theta) from the branch of theta, for sigma the
    conjugation of a quadratic level (_conjugate): the same exponents and
    truncations, each coefficient mapped by sigma."""
    return [
        (tuple((e, _conjugate(field, level, a)) for e, a in acc), trunc)
        for acc, trunc in branch
    ]


def _np_node(coeffs, acc, slope_bound, N, field, back):
    """One node of the Newton polygon tree, as a generator: it yields
    (coeffs, acc, slope bound) for each child branch in turn, is sent that
    branch's roots and node count, and returns the roots of the node as
    (acc, truncation) pairs.  Exponents are in the walk's units (back maps
    them out).

    acc holds the (exponent, coefficient) terms chosen above the node.
    Slopes strictly increase along a branch and edge roots are nonzero, so
    appending keeps it sorted, and each root is built from it once.

    A linear edge polynomial is solved here by one division; the others
    go to roots_in_extension, whose factor_univariate call splits a
    quadratic by a square root of its discriminant, with no norm and no
    Zassenhaus step over a tower of quadratic levels.  The node polynomial matters only up to a nonzero
    constant factor: edge roots come from monic factors, and only
    exponents and indices reach an error text.  A root a/b shifts by
    (a, b), so int coefficients stay ints, made primitive again for b > 1;
    the hull is compared cross-multiplied over each edge, with no Fraction.

    Conjugate edge roots are walked once.  Let theta be a simple edge root
    on a level L that this node's roots_in_extension adjoined, with a
    minimal polynomial of degree 2.  Its conjugate sigma(theta)
    (_conjugate) is an edge root too, as sigma fixes the node polynomial,
    which lies below L.  A simple root's branch is a chain of linear
    edges that adjoins nothing, so when its coefficients lie at levels
    <= L, the branch of sigma(theta) is its image under sigma (_mirror).
    The second root of the pair then yields its source's node count
    instead of a child.  A multiple root, a root on a level of degree > 2
    and a root on a level that existed before the edge was split are
    walked."""
    certain = [i for i, (_, terms) in enumerate(coeffs) if terms]
    if not certain:
        if all(trunc is INF for trunc, _ in coeffs):
            raise UsageError("the polynomial is identically zero")
        raise InsufficientTruncationError(
            "every coefficient vanishes below its truncation"
        )
    i_min, top = certain[0], certain[-1]
    vals = {i: coeffs[i][1][0][0] for i in certain}
    roots = []
    if i_min > 0:  # the coefficients below i_min have no terms
        bound = min(
            (
                _ratio(trunc - vals[i_min], i_min - i)
                for i, (trunc, _) in enumerate(coeffs[:i_min])
                if trunc is not INF
            ),
            default=INF,
        )
        if bound < N:
            raise InsufficientTruncationError(
                "roots near the accumulator are only separated up to t^(%s)"
                % back(bound)
            )
        roots.extend([(acc, bound)] * i_min)
    if i_min == top:
        return roots
    hull = _lower_hull([(i, vals[i]) for i in certain])
    edges = list(zip(hull, hull[1:]))
    for (i1, v1), (i2, v2) in edges:
        for i in range(i1 + 1, i2):
            trunc, terms = coeffs[i]
            if terms or trunc is INF:
                continue
            if (trunc - v1) * (i2 - i1) <= (v2 - v1) * (i - i1):
                raise InsufficientTruncationError(
                    "coefficient %d is only known above the Newton polygon" % i
                )
    for (i1, v1), (i2, v2) in edges:
        omega = _ratio(v1 - v2, i2 - i1)
        if slope_bound is not None and omega <= slope_bound:
            continue
        if omega >= N:
            roots.extend([(acc, omega)] * (i2 - i1))
            continue
        phi = []
        for i in range(i1, i2 + 1):
            if i in vals and (vals[i] - v1) * (i2 - i1) == (v2 - v1) * (i - i1):
                phi.append(coeffs[i][1][0][1])
            else:
                phi.append(0)
        height = field.height()
        if len(phi) == 2:  # a linear edge: one division, nothing adjoined
            a0, a1 = phi
            if a0.__class__ is int and a1.__class__ is int:
                root_c = Fraction(-a0, a1)
            else:
                root_c = -as_field_element(field, a0) / as_field_element(field, a1)
            fld, phi_roots = field, [(root_c, 1)]
        else:
            fld, phi_roots = roots_in_extension(field, phi)
        mirrors = {}  # sigma(theta) -> (L, branch of theta, its node count)
        for root_c, mult in phi_roots:
            if mirrors and root_c in mirrors:
                level, branch, nodes = mirrors.pop(root_c)
                yield nodes
                roots.extend(_mirror(fld, level, branch))
                continue
            if root_c.__class__ is Fraction:
                a, b = root_c.numerator, root_c.denominator
                new_coeffs = _taylor_shift(coeffs, a, omega, b)
                if b > 1:  # z -> z + a*t^omega is invertible over Z
                    new_coeffs = _primitive(new_coeffs)
            else:
                new_coeffs = _taylor_shift(coeffs, root_c, omega)
            branch, nodes = yield new_coeffs, acc + ((omega, root_c),), omega
            if len(branch) != mult:
                raise InternalInvariantError(
                    "edge branch returned %d roots, expected %d"
                    % (len(branch), mult)
                )
            roots.extend(branch)
            level = root_c.level if root_c.__class__ is AlgebraicNumber else 0
            if (
                mult == 1
                and level > height
                and fld.levels[level - 1].degree == 2
                and all(
                    a.__class__ is not AlgebraicNumber or a.level <= level
                    for _, a in branch[0][0]
                )
            ):
                mirrors[_conjugate(fld, level, root_c)] = level, branch, nodes
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
    coordinates are the exact monomials t^w, the others are found by
    eliminating down to relations and running the Newton polygon.  All
    coordinate valuations match the weights exactly and every generator
    has residual valuation at least N (exactly zero when the iteration
    terminated).  Raises NonMemberError when the weight point is outside
    the tropical variety.

    The lift runs in the saturation of the ideal by the product of the
    variables when that is larger: it has the same torus points and
    tropical variety, without the components inside coordinate
    hyperplanes.  Each parameter set is solved once, with unit
    parameters: the initial ideal is homogeneous for the grading of w, so
    its torus points can be moved to any parameter values.
    """
    I = problem.ideal
    ring = I.ring
    n = ring.nvars()
    w = problem.weights
    I_cur = I.local_at(w)
    membership = trop_member(I_cur, TropQuery(w))
    if not membership.member:
        raise NonMemberError(
            "the initial ideal contains the monomial %s"
            % poly_str(membership.witness_monomial),
            witness=poly_str(membership.witness_monomial),
        )
    sat = saturate(I_cur, ring.monomial((1,) * n))
    monic = {_entry(g, sat.order)[0] for g in I_cur.generators}
    if not monic.issuperset(sat.generators):  # else sat = I_cur
        local = presentation(ring, sat.generators, "local", w)
        # equal leads: equal ideals, as I_cur is in sat
        if _leading_ideal(local) != _leading_ideal(I_cur):
            I_cur = local
    span = rational_span(w)
    r = span.rank
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
        test = I_cur.with_extra([ring.var(i) for i in combo])
        if test.is_unit_ideal():
            continue
        if dimension(test) == 0:
            param_sets.append(combo)
    if not param_sets:
        raise DescentWitnessError("no parameter coordinates found")

    target = problem.N + max(w) + 1
    failures = []
    for combo in param_sets[:6]:
        assignment = {
            i: ValuedSeries.monomial(ring.field, w[i], 1, problem.mode)
            for i in combo
        }
        remaining = [i for i in range(n) if i not in assignment]
        try:
            point = _dfs_solve(I_cur, w, assignment, remaining, target, problem.mode)
        except CapabilityError as exc:
            failures.append(str(exc))
            continue
        if point is None:
            failures.append("no consistent roots for parameters %s" % (combo,))
            continue
        achieved = tuple(s.valuation() for s in point)
        residuals = tuple(
            substitute(g, point).valuation() for g in I.generators
        )
        return LiftResult(
            problem, tuple(point), combo, tuple(descents), achieved, residuals
        )
    raise DescentWitnessError("lifting failed; tried: " + "; ".join(failures))


def _dfs_solve(I_cur, w, assignment, remaining, target, mode):
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
    relation = _coordinate_relation(I_cur, m, assigned)
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
        if root.terms[0][0] != w[m]:
            continue
        key = (root.terms, root.truncation)
        if key in seen:
            continue
        seen.add(key)
        assignment2 = dict(assignment)
        assignment2[m] = root
        found = _dfs_solve(I_cur, w, assignment2, rest, target, mode)
        if found is not None:
            return found
    return None


def _root_order_key(root):
    # prefer roots whose leading coefficient does not start with a minus,
    # so sign-symmetric pairs come out with the positive branch first
    text = str(root)
    return (text.startswith("-"), text)


def _coordinate_relation(I_cur, m, assigned):
    """The simplest generator relating coordinate m to the assigned ones:
    an element of the elimination ideal onto them and m that involves m,
    least in degree in m, then in length, then in text."""
    ring = I_cur.ring
    drop = [i for i in range(ring.nvars()) if i != m and i not in assigned]
    candidates = []
    for g in eliminate(ring, list(I_cur.generators), drop):
        deg = max((mono[m] for mono in g.coeffs), default=0)
        if deg >= 1:
            candidates.append((deg, len(g.coeffs), poly_str(g), g))
    if not candidates:
        return None
    return min(candidates, key=lambda c: c[:3])[3]


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


def verify_lift(problem, point=None):
    """Re-check a lifted point: valuations, residuals, mode, positivity.

    Takes a LiftResult, whose own problem and point are checked, or a
    LiftProblem and a point.
    """
    if isinstance(problem, LiftResult):
        if point is not None:
            raise UsageError("a lift result already carries its point")
        point = problem.point
        problem = problem.problem
    elif not isinstance(problem, LiftProblem):
        raise UsageError("expected a lift result or a lift problem")
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
        v, w_i = s.valuation(), problem.weights[i]
        val_checks.append((i, str(w_i), str(v), v == w_i))
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
