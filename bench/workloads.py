"""The four workloads: seeded inputs, the operations, and their checks.

An operation is one call a library or CLI user would make.  Its run()
builds a fresh NumberField and ring, parses its input text and calls
troplift; its check() compares the output with an answer from oracles.py
and returns an error message, or None when the output is right.
Operations listed with an expected error are the known faults: they must
raise exactly that error, and they count as failed operations.

troplift is called through module attributes (lifting.lift_point, ...),
so that the tracer's wrappers see every call.
"""

from __future__ import annotations

import io
import json
import os
import random
import subprocess
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

import oracles as O
import speed
from oracles import Series, Tower, Value

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

from troplift import cli, errors, ideals, lifting, parsing, polyring, scalars, series
from troplift import tropical, valfan

WORKLOADS = ("tropical", "lift", "newton", "cli")


@dataclass
class Op:
    label: str
    run: Callable[[], object]
    check: Callable[[object], "str | None"]
    expect_error: type | None = None
    # (output, wall seconds) -> seconds at the reference speed, for work that
    # runs outside this process; None: the worker's own speed samples apply
    normalize: Callable[[object, float], float] | None = None


@dataclass
class Workload:
    name: str
    ops: list
    warm_up: list


def _ring(names):
    return polyring.PolyRing(scalars.NumberField(), names)


def _ideal(names, texts, mode, w=None):
    ring = _ring(names)
    gens = [parsing.parse_poly(t, ring) for t in texts]
    return ring, ideals.presentation(ring, gens, mode, w)


def _query(w):
    return tuple(polyring.INF if x is None else Fraction(x) for x in w)


# -- the acceptance corpus, as data -----------------------------------------


@dataclass(frozen=True)
class CorpusIdeal:
    names: tuple
    texts: tuple
    rule: str  # principal, linear or curve

    @property
    def polys(self):
        return [O.parse_poly_text(t, self.names) for t in self.texts]

    def member(self, w):
        if self.rule == "principal":
            return O.principal_member(self.polys[0], w)
        if self.rule == "linear":
            n = len(self.names)
            forms = [[p.get(tuple(int(i == j) for j in range(n)), 0) for i in range(n)]
                     for p in self.polys]
            return O.linear_member(forms, w)
        return O.curve_member((1, 2, 3), w)

    def grid(self):
        n = len(self.names)
        top = 8 if n == 2 else 4
        out = [()]
        for _ in range(n):
            out = [p + (k,) for p in out for k in range(1, top + 1)]
        return out


XY, XYZ = ("x", "y"), ("x", "y", "z")
CORPUS = [
    CorpusIdeal(XY, ("x + y",), "principal"),
    CorpusIdeal(XY, ("y^2 - x^3",), "principal"),
    CorpusIdeal(XY, ("y^2 - x^2 - x^3",), "principal"),
    CorpusIdeal(XY, ("x*y",), "principal"),
    CorpusIdeal(XY, ("y - x^2",), "principal"),
    CorpusIdeal(XY, ("y^3 - x^4",), "principal"),
    CorpusIdeal(XYZ, ("x + y + z",), "principal"),
    CorpusIdeal(XYZ, ("x + y + z", "x - z"), "linear"),
    CorpusIdeal(XYZ, ("x*y - z^2",), "principal"),
    CorpusIdeal(XYZ, ("y - x^2", "z - x^3"), "curve"),
]


# -- tropical ----------------------------------------------------------------


def _member_op(ideal, w):
    def run():
        _, I = _ideal(ideal.names, ideal.texts, "global")
        return tropical.trop_member(I, _query(w))

    def check(out):
        want = ideal.member(w)
        if out.member != want:
            return "trop_member%s on %s: %s, expected %s" % (w, ideal.texts, out.member, want)
        return None

    return Op("trop_member %s %s" % (ideal.texts, w), run, check)


def _rows_ok(rows, n):
    return all(len(r) == n and all(isinstance(v, int) for v in r) for r in rows)


def _cone_op(ideal, w):
    def run():
        _, I = _ideal(ideal.names, ideal.texts, "global")
        return valfan.groebner_cone(I, w)

    def check(cone):
        n = len(w)
        if not (_rows_ok(cone.eq, n) and _rows_ok(cone.ineq, n)):
            return "groebner_cone rows are not integer vectors"
        if not O.cone_contains(cone.eq, cone.ineq, w):
            return "groebner_cone at %s does not contain %s" % (w, w)
        if ideal.rule == "principal":
            # the equalities tie together exactly the monomials attaining the minimum
            f = ideal.polys[0]
            vals = {m: sum(a * b for a, b in zip(m, w)) for m in f}
            low = [m for m in f if vals[m] == min(vals.values())]
            diffs = [[a - b for a, b in zip(low[0], m)] for m in low[1:]]
            if O.rank(list(cone.eq)) != O.rank(diffs) or O.rank(list(cone.eq) + diffs) != O.rank(diffs):
                return "groebner_cone equalities at %s do not match the initial form" % (w,)
        return None

    return Op("groebner_cone %s %s" % (ideal.texts, w), run, check)


def _probe_points(rng, n, count):
    return [tuple(rng.randint(1, 12) for _ in range(n)) for _ in range(count)]


def _hyper_op(ideal, probes):
    def run():
        ring = _ring(ideal.names)
        return tropical.trop_hypersurface(parsing.parse_poly(ideal.texts[0], ring))

    def check(cones):
        f = ideal.polys[0]
        for c in cones:
            if not c.member or not O.principal_member(f, c.sample):
                return "trop_hypersurface cone sample %s is not on the hypersurface" % (c.sample,)
        for w in probes:
            inside = any(O.cone_contains(c.cone.eq, c.cone.ineq, w) for c in cones)
            if O.principal_member(f, w) and not inside:
                return "trop_hypersurface misses the member weight %s" % (w,)
        return None

    return Op("trop_hypersurface %s" % (ideal.texts,), run, check)


def _enum_op(ideal, walk_seed, probes):
    def run():
        _, I = _ideal(ideal.names, ideal.texts, "global")
        return tropical.trop_enumerate(I, 128, seed=walk_seed)

    def check(out):
        cones, truncated = out
        if truncated:
            return "trop_enumerate truncated on %s" % (ideal.texts,)
        for c in cones:
            if any(x <= 0 for x in c.sample):
                return "trop_enumerate sample %s is not positive" % (c.sample,)
            if c.member != ideal.member(c.sample):
                return "trop_enumerate labels %s wrongly" % (c.sample,)
        for w in probes:
            if not any(O.cone_contains(c.cone.eq, c.cone.ineq, w) for c in cones):
                return "trop_enumerate covers no cone containing %s" % (w,)
        return None

    return Op("trop_enumerate %s seed %d" % (ideal.texts, walk_seed), run, check)


def _query_classes(ideal):
    """The grid {1..9, inf}^n without the all-inf point, split by
    (member, has an inf entry)."""
    n = len(ideal.names)
    grid = [()]
    for _ in range(n):
        grid = [w + (x,) for w in grid for x in [None] + list(range(1, 10))]
    classes = {}
    for w in grid[1:]:
        classes.setdefault((ideal.member(w), None in w), []).append(w)
    return classes


# Queries per ideal and class (member, has an inf entry).  The points are
# drawn once, with a fixed seed; a run's seed scales each by a factor k in
# 1..4, which keeps membership and nearly all of the cost, so that the cost
# of the list does not depend on the seed.
_QUERY_MIX = {(True, False): 8, (True, True): 2, (False, False): 8, (False, True): 2}


def _base_queries(ideal):
    rng = random.Random("tropical-base:%s" % (ideal.texts,))
    classes = _query_classes(ideal)
    out = []
    for (member, has_inf), count in _QUERY_MIX.items():
        pool = classes.get((member, has_inf)) or classes[(member, not has_inf)]
        out.extend(rng.choice(pool) for _ in range(count))
    return out


def build_tropical(seed):
    rng = random.Random("tropical:%d" % seed)
    ops = []
    for ideal in CORPUS:
        n = len(ideal.names)
        for w in _base_queries(ideal):
            k = rng.randint(1, 4)
            ops.append(_member_op(ideal, tuple(None if x is None else k * x for x in w)))
        for w in _probe_points(rng, n, 2):
            ops.append(_cone_op(ideal, w))
        # walk seed 0: a seeded start can land on a lower-dimensional cone, where
        # the walk stops early and misses cones (see CHANGES.md)
        ops.append(_enum_op(ideal, 0, _probe_points(rng, n, 6)))
        if ideal.rule == "principal":
            ops.append(_hyper_op(ideal, _probe_points(rng, n, 12)))
    rng.shuffle(ops)
    warm = [_member_op(CORPUS[1], (2, 3)), _enum_op(CORPUS[0], 0, [])]
    return Workload("tropical", ops, warm)


# -- lift ----------------------------------------------------------------------

_LIFT_ERRORS = (errors.CapabilityError, errors.NonMemberError, errors.UsageError)


def _lift_op(names, texts, w, N, mode="puiseux", expect_error=None, node=False):
    """lift_point then verify_lift; w entries are ints, Fractions or
    (a, b, d) triples for a + b*sqrt(d)."""
    polys = [O.parse_poly_text(t, names) for t in texts]

    def scalar(x):
        return scalars.ValueScalar(*x) if isinstance(x, tuple) else x

    def run():
        weights = tuple(scalar(x) for x in w)
        ring, I = _ideal(names, texts, "local", weights)
        result = lifting.lift_point(lifting.LiftProblem(I, weights, N, mode))
        return ring, result, lifting.verify_lift(result)

    def check(out):
        ring, result, report = out
        if not report.ok():
            return "verify_lift rejects the lift of %s at %s" % (texts, w)
        tower = Tower.of_field(ring.field)
        point = [Series.of_program(tower, s) for s in result.point]
        for i, (s, x) in enumerate(zip(point, w)):
            want = Value(*x) if isinstance(x, tuple) else Value(x)
            if s.valuation() is None or s.valuation() != want:
                return "coordinate %d of %s at %s has valuation %s" % (i, texts, w, s.valuation())
        for g in polys:
            if not O.residual_at_least(tower, g, point, N):
                return "%s does not vanish to order %s at the lift" % (O.poly_text(g, names), N)
        if node and point[0].below(Value(N + 10)) == [(Value(w[0]), tower.embed(Fraction(1)))]:
            # x = t^a, so y = +-t^a (1 + t^a)^(1/2): the binomial series
            y = point[1].below(point[1].trunc or Value(10 * N))
            sign = 1 if y[0][1] == tower.embed(Fraction(1)) else -1
            ref = O.node_branch(w[0], len(y))
            if [(e, c) for e, c in y] != [(e, tower.embed(sign * c)) for e, c in ref if c]:
                return "node lift at %s is not the binomial series" % (w,)
        return None

    label = "lift %s at %s" % ("; ".join(texts), w)
    return Op(label, run, check, expect_error)


def _orbit(point):
    out = []
    for p in [(0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0)]:
        q = tuple(point[i] for i in p)
        if q not in out:
            out.append(q)
    return out


# x + y + z is symmetric: one seeded representative per permutation orbit of
# the light members.  The costly operations (the descent-heavy x + y + z point,
# the off-diagonal quadric point, x1+x2+x3+x4 and the three failures) are fixed
# points, so that the cost of the list does not depend on the seed.
_XYZ_ORBITS = [(1, 1, 1), (2, 2, 3), (3, 3, 4)]
_XYZ_HEAVY = (1, 1, 2)
# (1, 1, 1) is left out: it costs a sixth of the others and would move the
# median of the list from one seed to the next
_QUADRIC_DIAGONAL = [(2, 2, 2), (3, 3, 3), (4, 4, 4)]
_QUADRIC_HEAVY = (1, 3, 2)
_CUBIC_FAILS = [
    ("y^3 - 2*x^3", "Trager norm of degree 9 when splitting z^3 - 2"),
    ("y^9 - x^9 - x^10", "degree-9 edge polynomial rejected before factoring"),
    ("y^6 - 10*x^2*y^4 + 31*x^4*y^2 - 30*x^6", "Trager norms of degree 12-16"),
]


def build_lift(seed):
    rng = random.Random("lift:%d" % seed)
    N = 3
    ops = []
    picks = {("x + y",): 4, ("y^2 - x^3",): 2, ("y^2 - x^2 - x^3",): 4, ("y - x^2",): 2,
             ("y^3 - x^4",): 2}
    for ideal in CORPUS:
        members = [w for w in ideal.grid() if ideal.member(w)]
        if ideal.texts in picks:
            node = ideal.texts == ("y^2 - x^2 - x^3",)
            if node:  # (1, 1) costs a third more than the other node points
                chosen = [(1, 1)] + rng.sample(members[1:], picks[ideal.texts] - 1)
            else:
                chosen = rng.sample(members, picks[ideal.texts])
            for w in chosen:
                ops.append(_lift_op(ideal.names, ideal.texts, w, N, node=node))
        elif ideal.texts == ("x + y + z",):
            for base in _XYZ_ORBITS:
                ops.append(_lift_op(XYZ, ideal.texts, rng.choice(_orbit(base)), N))
            ops.append(_lift_op(XYZ, ideal.texts, _XYZ_HEAVY, N))
        elif ideal.rule == "linear":
            for w in rng.sample(members, 2):
                ops.append(_lift_op(XYZ, ideal.texts, w, N))
        elif ideal.texts == ("x*y - z^2",):
            ops.append(_lift_op(XYZ, ideal.texts, rng.choice(_QUADRIC_DIAGONAL), N))
            ops.append(_lift_op(XYZ, ideal.texts, _QUADRIC_HEAVY, N))
        elif ideal.rule == "curve":
            ops.append(_lift_op(XYZ, ideal.texts, members[0], N))
    ops.append(_lift_op(("x1", "x2", "x3", "x4"), ("x1 + x2 + x3 + x4",), (1, 1, 1, 1), N))
    # algebraic plane curves: the lift adjoins sqrt(d)
    d1, d2, d3 = rng.sample([2, 3, 5, 6, 7], 3)
    k = rng.randint(1, 3)
    ops.append(_lift_op(XY, ("y^2 - %d*x^2" % d1,), (k, k), N))
    ops.append(_lift_op(XY, ("y^2 - %d*x^3" % d2,), (2 * k, 3 * k), N))
    ops.append(_lift_op(XY, ("y^2 - %d*x^2 - x^3" % d3,), (1, 1), N))
    # the Hahn point of acceptance criterion 9
    hahn_w = (1, (0, 1, 2), (Fraction(1, 2), Fraction(1, 2), 2))
    ops.append(_lift_op(XYZ, ("x*y - z^2",), hahn_w, 6, mode="hahn"))
    for text, _why in _CUBIC_FAILS:
        ops.append(_lift_op(XY, (text,), (1, 1), N, expect_error=errors.DescentWitnessError))
    rng.shuffle(ops)
    warm = [_lift_op(XY, ("x + y",), (1, 1), N)]
    return Workload("lift", ops, warm)


# -- newton --------------------------------------------------------------------


def _nonzero(rng, top):
    return Fraction(rng.choice([k for k in range(-top, top + 1) if k]))


def _rational_factor(rng, lead, truncated):
    """c0 t^lead + c1 t^(lead+1) + c2 t^(lead+2), seeded coefficients; a
    truncated factor is known below t^(lead+12)."""
    terms = [(lead, _nonzero(rng, 4)), (lead + 1, _nonzero(rng, 3)), (lead + 2, _nonzero(rng, 3))]
    return O.Series.rational(Tower(), terms, Value(lead + 12) if truncated else None)


def _pair_factor(rng, d, lead):
    """(d, u): the roots +-sqrt(d) * u of z^2 - d u^2, u = c0 t^lead + c1 t^(lead+1)."""
    return d, O.Series.rational(Tower(), [(lead, _nonzero(rng, 2)), (lead + 1, _nonzero(rng, 3))])


# One pass of the newton workload: (copies, leading exponents of the rational
# factors, truncated, leading exponents of the conjugate pairs).  A shape fixes
# the Newton polygon, so its cost varies by about 5% with the seed, which picks
# the coefficients and the square classes d.  The copies are chosen so that the
# median and the 90th percentile of the operation times fall inside groups of
# shapes of nearly equal cost, not in a gap between two groups.
_H, _T = Fraction(1, 2), Fraction(1, 3)
_NEWTON_SHAPES = [
    (3, [1], False, []), (3, [_H], False, []), (3, [1], True, []), (3, [_H], True, []),
    (2, [1, 2], False, []), (2, [1, 3], False, []),
    (4, [_H, 1], False, []), (4, [_T, 1], False, []), (4, [1, 2], True, []),
    (4, [1, 3], True, []),
    (2, [], False, [1]), (2, [_H, 1], True, []), (2, [_T, 1], True, []),
    (2, [1, 2, 3], False, []), (2, [1, 2, 3], True, []),
    (1, [2], False, [1]), (1, [1], False, [2]), (1, [_H], False, [1]), (1, [1], True, [2]),
    (1, [_H], True, [1]),
    (2, [_T, 1, 2], False, []),
    (2, [_T, 1, 2], True, []), (2, [1, 2], False, [3]), (2, [1, 3], False, [2]),
    (2, [], False, [1, 2]),
    (1, [1, 3], True, [2]), (1, [_H, 3], False, [1]), (1, [1], False, [2, 3]),
]


def _newton_op(factors, pairs, N):
    one = O.Series.rational(Tower(), [(0, 1)])
    z = [one]  # coefficients of the monic product, lowest degree first
    quads = [[-(u * u * O.Series.rational(Tower(), [(0, d)])), O.Series(Tower(), []), one]
             for d, u in pairs]
    for f in factors:
        quads.append([-f, one])
    for q in quads:
        out = [O.Series(Tower(), [])] * (len(z) + len(q) - 1)
        for i, a in enumerate(z):
            for j, b in enumerate(q):
                out[i + j] = out[i + j] + a * b
        z = out
    data = [([(e.a, c) for e, c in s.terms.items()], s.trunc) for s in z]

    def run():
        fld = scalars.NumberField()
        coeffs = [
            series.ValuedSeries(fld, terms, polyring.INF if t is None else t.a, "puiseux")
            for terms, t in data
        ]
        return fld, lifting.newton_puiseux(coeffs, N)

    def check(out):
        fld, roots = out
        if len(roots) != len(factors) + 2 * len(pairs):
            return "newton_puiseux returned %d roots for degree %d" % (len(roots), len(z) - 1)
        tower = Tower.of_field(fld)
        got = [Series.of_program(tower, r) for r in roots]
        bound = Value(N)
        if not all(r.known_to(bound) for r in got):
            return "a root is not known up to t^%s" % N
        free = list(range(len(got)))
        for f in factors:
            want = [(e, tower.embed(c)) for e, c in f.below(bound)]
            hit = next((i for i in free if got[i].below(bound) == want), None)
            if hit is None:
                return "no root matches the known factor %s" % (want,)
            free.remove(hit)
        for d, u in pairs:
            hits = [i for i in free if _is_pair_root(tower, got[i], d, u, bound)]
            if len(hits) < 2:
                return "no conjugate pair of roots for sqrt(%d)*(%s)" % (d, sorted(u.terms))
            a, b = got[hits[0]].below(bound), got[hits[1]].below(bound)
            if any(ca != tower.neg(cb) for (_, ca), (_, cb) in zip(a, b)):
                return "the roots for sqrt(%d) are not conjugate" % d
            free.remove(hits[0])
            free.remove(hits[1])
        return None

    label = "newton_puiseux degree %d, %d pairs" % (len(z) - 1, len(pairs))
    return Op(label, run, check)


def _is_pair_root(tower, r, d, u, bound):
    """r = +-sqrt(d) * u below bound, for the rational series u."""
    terms = r.below(bound)
    ref = u.below(bound)
    if [e for e, _ in terms] != [e for e, _ in ref] or not terms:
        return False
    r0, u0 = terms[0][1], ref[0][1]
    if tower.mul(r0, r0) != tower.embed(d * u0 * u0):
        return False
    return all(tower.scale(c, u0) == tower.scale(r0, uc) for (_, c), (_, uc) in zip(terms, ref))


def build_newton(seed):
    rng = random.Random("newton:%d" % seed)
    ops = []
    shapes = [shape for copies, *shape in _NEWTON_SHAPES for _ in range(copies)]
    for leads, truncated, pair_leads in shapes:
        factors = [_rational_factor(rng, e, truncated) for e in leads]
        classes = rng.sample([2, 3, 5, 6, 7], len(pair_leads))
        pairs = [_pair_factor(rng, d, e) for d, e in zip(classes, pair_leads)]
        op = _newton_op(factors, pairs, 5 if truncated else 8)
        op.label += " leads %s%s pairs %s" % (
            [str(e) for e in leads], " truncated" if truncated else "", [str(e) for e in pair_leads])
        ops.append(op)
    rng.shuffle(ops)
    tower = Tower()
    warm = [_newton_op([], [(2, O.Series.rational(tower, [(1, 1)]))], 4)]
    return Workload("newton", ops, warm)


# -- cli -----------------------------------------------------------------------


def cli_command(argv):
    """The cold-start command line for one CLI invocation.  The child samples
    its own speed (speed.report_at_exit), since it runs on a core whose
    speed this process cannot see."""
    script = ("import sys; sys.path.append(%r); import speed; speed.report_at_exit(); "
              "from troplift.cli import main; main()" % str(BENCH))
    return [sys.executable, "-c", script] + argv


def cli_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def _cli_op(argv, check):
    def run():
        proc = subprocess.run(cli_command(argv), env=cli_env(), cwd=str(ROOT),
                              capture_output=True, text=True, timeout=120)
        return proc.returncode, proc.stdout, proc.stderr

    def checked(out):
        code, stdout, stderr = out
        try:
            return check(code, stdout)
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            return "cli %s: unreadable output %r (%s) stderr %r" % (argv[0], stdout, exc, stderr)

    return Op("cli " + " ".join(argv), run, checked,
              normalize=lambda out, wall: speed.child_normalized(wall, out[2]))


def _json_lines(stdout):
    return [json.loads(line) for line in stdout.splitlines() if line.strip()]


def _expect(cond, message):
    return None if cond else message


def _binomial_series_text_ok(text, a, N):
    """A CLI root or coordinate equals +-t^a (1 + t)^(1/2) below its tail."""
    terms, trunc = O.parse_series_text(text)
    if trunc is None or trunc < N:
        return False
    sign = 1 if terms[0][1] > 0 else -1
    ref = [(Fraction(a + k), sign * O.binomial_half(k)) for k in range(int(trunc - a))]
    return terms == [(e, c) for e, c in ref if c]


def build_cli_argv(seed):
    """(argv, check) pairs: the subcommands of the acceptance CLI goldens,
    with seeded inputs whose answers are worked out here by hand."""
    rng = random.Random("cli:%d" % seed)
    out = []

    a, b = rng.randint(1, 9), rng.randint(1, 9)
    member = 2 * b == 3 * a
    wit = "y^2" if 2 * b < 3 * a else "x^3"

    def trop_member_cusp(code, stdout):
        line = "w=%d,%d: member=%s" % (a, b, "true" if member else "false")
        if not member:
            line += " witness=" + wit
        return _expect(code == (0 if member else 1) and stdout == line + "\n",
                       "trop-member cusp at %d,%d printed %r" % (a, b, stdout))

    out.append((["trop-member", "--vars", "x,y", "--ideal", "y^2-x^3", "--w", "%d,%d" % (a, b)],
                trop_member_cusp))

    c, e = rng.randint(1, 9), rng.randint(1, 9)

    def trop_member_line(code, stdout):
        (obj,) = _json_lines(stdout)
        if c == e:  # the initial ideal is (x + y) itself
            (init,) = obj["witness"]["initial"]
            ok = code == 0 and obj["member"] is True and O.same_up_to_scalar(
                O.parse_poly_text(init, XY), {(1, 0): 1, (0, 1): 1})
        else:  # the lighter variable is the initial form
            ok = code == 1 and obj["member"] is False and obj["witness"] == {
                "monomial": "x" if c < e else "y"}
        return _expect(ok and obj["w"] == [str(c), str(e)],
                       "trop-member x+y at %d,%d printed %r" % (c, e, stdout))

    out.append((["trop-member", "--vars", "x,y", "--ideal", "x+y", "--w", "%d,%d" % (c, e),
                 "--json"], trop_member_line))

    k = rng.randint(1, 3)

    def lift_cusp(code, stdout):
        (obj,) = _json_lines(stdout)
        want = {"achieved": [str(2 * k), str(3 * k)], "descents": [],
                "point": ["t^(%d)" % (2 * k), "t^(%d)" % (3 * k)], "residual_bounds": ["inf"]}
        return _expect(code == 0 and obj == want, "lift cusp printed %r" % stdout)

    out.append((["lift", "--vars", "x,y", "--ideal", "y^2-x^3", "--w", "%d,%d" % (2 * k, 3 * k),
                 "--N", "10", "--json"], lift_cusp))

    def lift_node(code, stdout):
        (obj,) = _json_lines(stdout)
        x, y = obj["point"]
        return _expect(code == 0 and x == "t^(1)" and obj["achieved"] == ["1", "1"]
                       and obj["descents"] == [] and _binomial_series_text_ok(y, 1, 6),
                       "lift node printed %r" % stdout)

    out.append((["lift", "--vars", "x,y", "--ideal", "y^2-x^2-x^3", "--w", "1,1", "--N", "5",
                 "--json"], lift_node))

    def lift_plane(code, stdout):
        (obj,) = _json_lines(stdout)
        coeffs = []
        for s in obj["point"]:
            terms, trunc = O.parse_series_text(s)
            if len(terms) != 1 or terms[0][0] != 1 or trunc is not None:
                return "lift x+y+z coordinate %r is not c*t^(1)" % s
            coeffs.append(terms[0][1])
        (step,) = obj["descents"]
        return _expect(code == 0 and sum(coeffs) == 0 and all(coeffs)
                       and (step["dim_before"], step["dim_after"]) == (2, 1)
                       and all(step["certificates"].values())
                       and obj["residual_bounds"] == ["inf"],
                       "lift x+y+z printed %r" % stdout)

    out.append((["lift", "--vars", "x,y,z", "--ideal", "x+y+z", "--w", "1,1,1", "--N", "6",
                 "--seed", "1", "--json"], lift_plane))

    def lift_hahn(code, stdout):
        (obj,) = _json_lines(stdout)
        # x*y - z^2 with unit coefficients: the monomial point t^w solves it exactly
        exps = ["1", "sqrt(2)", "1/2+1/2*sqrt(2)"]
        want = {"achieved": exps, "descents": [], "point": ["t^(%s)" % x for x in exps],
                "residual_bounds": ["inf"]}
        return _expect(code == 0 and obj == want, "lift hahn printed %r" % stdout)

    out.append((["lift", "--vars", "x,y,z", "--ideal", "x*y-z^2", "--w",
                 "1,sqrt(2),(1+sqrt(2))/2", "--N", "4", "--mode", "hahn", "--d", "2", "--json"],
                lift_hahn))

    p, q = rng.randint(1, 5), rng.randint(1, 5)

    def init_ideal(code, stdout):
        (obj,) = _json_lines(stdout)
        # (x+y, x-y^2) = (x+y, y*(1+y)) = (x, y) in the power series ring, so
        # the initial forms generate (x, y): their linear parts span x and y
        forms = [O.parse_poly_text(f, XY) for f in obj["init"]]
        linear = [[f.get((1, 0), 0), f.get((0, 1), 0)] for f in forms]
        return _expect(code == 0 and O.rank(linear) == 2 and all((0, 0) not in f for f in forms)
                       and obj["monomial_free"] is False and obj["w"] == [str(p), str(q)],
                       "init-ideal printed %r" % stdout)

    out.append((["init-ideal", "--vars", "x,y", "--ideal", "x+y;x-y^2", "--w", "%d,%d" % (p, q),
                 "--json"], init_ideal))

    # modulo x - y - y^2: x = y + y^2, so the value of g is the order in y
    g, value = rng.choice([("x-y", "2"), ("x", "1"), ("x*y", "2"), ("x^2-y^2", "3"),
                           ("x-y-y^2", "inf")])

    def coset_val(code, stdout):
        (obj,) = _json_lines(stdout)
        return _expect(code == 0 and obj["value"] == value,
                       "coset-val of %s printed %r" % (g, stdout))

    out.append((["coset-val", "--vars", "x,y", "--ideal", "x-y-y^2", "--w", "1,1", "--g", g,
                 "--json"], coset_val))

    u, v = rng.randint(1, 9), rng.randint(1, 9)

    def cone(code, stdout):
        (obj,) = _json_lines(stdout)
        axes = [[0, 1], [1, 0]]
        if 3 * u == 2 * v:
            want = {"dim": 1, "eq": [[3, -2]], "ineq": axes}
        elif 3 * u > 2 * v:  # initial form y^2, trailing x^3
            want = {"dim": 2, "eq": [], "ineq": sorted(axes + [[3, -2]])}
        else:
            want = {"dim": 2, "eq": [], "ineq": sorted(axes + [[-3, 2]])}
        return _expect(code == 0 and obj == want, "cone at %d,%d printed %r" % (u, v, stdout))

    out.append((["cone", "--vars", "x,y", "--ideal", "y^2-x^3", "--w", "%d,%d" % (u, v),
                 "--json"], cone))

    s, r = rng.choice([(2, 3), (2, 5), (3, 4), (3, 5), (2, 2)])
    binom = "y^%d-x^%d" % (s, r)

    def trop_hyper(code, stdout):
        (obj,) = _json_lines(stdout)
        # min(s*b, r*a) attained twice exactly on the ray r*a = s*b
        from math import gcd

        row = [r // gcd(r, s), -s // gcd(r, s)]
        sample = [Fraction(x) for x in obj["sample"]]
        init = O.parse_poly_text(obj["initial"][0], XY)
        return _expect(code == 0 and obj["eq"] == [row] and obj["ineq"] == [[0, 1], [1, 0]]
                       and obj["member"] is True and row[0] * sample[0] + row[1] * sample[1] == 0
                       and O.same_up_to_scalar(init, {(0, s): 1, (r, 0): -1}),
                       "trop-hyper %s printed %r" % (binom, stdout))

    out.append((["trop-hyper", "--vars", "x,y", "--ideal", binom, "--json"], trop_hyper))

    walk = rng.randint(0, 99)

    def trop_enum(code, stdout):
        objs = _json_lines(stdout)
        summary = objs[-1]
        members = [o for o in objs[:-1] if o["member"]]
        return _expect(code == 0 and summary == {"cones": 3, "members": 1, "truncated": False}
                       and len(members) == 1 and members[0]["eq"] == [[3, -2]],
                       "trop-enum printed %r" % stdout)

    out.append((["trop-enum", "--vars", "x,y", "--ideal", "y^2-x^3", "--seed", str(walk),
                 "--json"], trop_enum))

    m1, m2 = rng.randint(1, 4), rng.randint(1, 4)

    def tensor(code, stdout):
        (obj,) = _json_lines(stdout)
        want = {"combined_monomial_free": True, "initial_match": True,
                "left_monomial_free": True, "ok": True, "right_monomial_free": True}
        return _expect(code == 0 and obj == want, "tensor printed %r" % stdout)

    out.append((["tensor", "--vars", "x1,x2", "--ideal", "x1+x2", "--w", "%d,%d" % (m1, m1),
                 "--vars2", "y1,y2", "--ideal2", "y1+y2", "--w2", "%d,%d" % (m2, m2), "--json"],
                tensor))

    def verify(code, stdout):
        (obj,) = _json_lines(stdout)
        return _expect(code == 0 and obj["ok"] is True and obj["residuals"][0]["exact_zero"]
                       and [v["observed"] for v in obj["valuations"]] == [str(2 * k), str(3 * k)],
                       "verify printed %r" % stdout)

    out.append((["verify", "--vars", "x,y", "--ideal", "y^2-x^3", "--w", "%d,%d" % (2 * k, 3 * k),
                 "--N", "10", "--point", "t^(%d); t^(%d)" % (2 * k, 3 * k), "--json"], verify))

    h = rng.randint(1, 3)

    def np_solve(code, stdout):
        roots = [o["root"] for o in _json_lines(stdout)]
        # z^2 = t^(2h) (1 + t): z = +-t^h (1 + t)^(1/2)
        signs = sorted(O.parse_series_text(x)[0][0][1] for x in roots)
        return _expect(code == 0 and len(roots) == 2 and signs == [-1, 1]
                       and all(_binomial_series_text_ok(x, h, 8) for x in roots),
                       "np-solve printed %r" % stdout)

    out.append((["np-solve", "--coeffs=-t^(%d)-t^(%d);0;1" % (2 * h, 2 * h + 1), "--N", "8",
                 "--json"], np_solve))
    return out


def build_cli(seed):
    pairs = build_cli_argv(seed)
    ops = [_cli_op(argv, check) for argv, check in pairs]
    random.Random("cli-order:%d" % seed).shuffle(ops)
    return Workload("cli", ops, [ops[0]])


def build(name, seed):
    return {"tropical": build_tropical, "lift": build_lift, "newton": build_newton,
            "cli": build_cli}[name](seed)


def run_in_process(argv):
    """cli.run of one argv inside this process: (exit code, stdout)."""
    out = io.StringIO()
    code = cli.run(argv, out, io.StringIO())
    return code, out.getvalue()
