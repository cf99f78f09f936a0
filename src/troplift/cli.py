"""Command line front end.

Subcommands map one to one onto the library: init-form, init-ideal,
coset-val, cone, trop-member, trop-hyper, trop-enum, tensor, lift,
verify, np-solve.  Output is plain key=value text by default and
line-oriented JSON with --json.  Exit codes: 0 success, 1 mathematical
negative (non-member, failed verification), 2 usage error, 3 capability
limit (extension bound, witness search failure, truncation collapse).
"""

from __future__ import annotations

import argparse
import json
import sys

from .errors import CapabilityError, NonMemberError, UsageError
from .ideals import presentation
from .lifting import LiftProblem, lift_point, newton_puiseux, verify_lift
from .parsing import (
    parse_generators,
    parse_ideal_text,
    parse_point,
    parse_query,
    parse_scalar,
    parse_series,
    parse_vars,
    parse_weights,
)
from .polyring import PolyRing, initial_form, poly_str, w_order
from .scalars import _MAX_RADICAND, NumberField, _squarefree
from .tropical import trop_enumerate, trop_hypersurface, trop_member
from .valfan import (
    CosetValuationHandle,
    groebner_cone,
    initial_ideal,
    tensor_combine,
)


class _Parser(argparse.ArgumentParser):
    """Argparse that reports problems as usage errors instead of exiting."""

    def error(self, message):
        raise UsageError(message)


def _build_parser():
    top = _Parser(prog="troplift", description=__doc__, add_help=True)
    sub = top.add_subparsers(dest="command", metavar="command")

    def add(name, help_text, needs_ideal=True, needs_w=True, seeded=False):
        p = sub.add_parser(name, help=help_text, add_help=True)
        if needs_ideal:
            p.add_argument("--vars", help="comma separated variable names")
            p.add_argument(
                "--ideal",
                help="semicolon separated generators, or @file fixture",
            )
        if needs_w:
            p.add_argument("--w", help="comma separated weights, or @file of queries")
        p.add_argument("--d", type=int, help="the squarefree sqrt(d) constant")
        if seeded:
            p.add_argument("--seed", type=int, default=0, help="witness search seed")
        p.add_argument(
            "--json", action="store_true", help="line-oriented JSON output"
        )
        return p

    add("init-form", "w-initial form of a single polynomial")
    add("init-ideal", "generators of the w-initial ideal")
    p = add("coset-val", "coset valuation of a polynomial")
    p.add_argument("--g", required=True, help="the polynomial to value")
    add("cone", "the Groebner cone of the weight")
    add("trop-member", "membership of w in the local tropical variety")
    add("trop-hyper", "tropical hypersurface of one polynomial", needs_w=False)
    p = add("trop-enum", "bounded enumeration of labeled Groebner cones",
            needs_w=False, seeded=True)
    p.add_argument("--budget", type=int, default=128, help="maximal cone count")
    p = add("tensor", "combine two ideals in disjoint variables")
    p.add_argument("--vars2", help="variables of the second ideal")
    p.add_argument("--ideal2", required=True, help="second ideal generators")
    p.add_argument("--w2", required=True, help="second weight vector")
    p = add("lift", "lift a tropical point to a truncated series point",
            seeded=True)
    p.add_argument("--N", required=True, help="truncation target")
    p.add_argument("--mode", choices=("puiseux", "hahn"), default="puiseux")
    p = add("verify", "re-check a lifted point")
    p.add_argument("--N", required=True, help="truncation target")
    p.add_argument("--mode", choices=("puiseux", "hahn"), default="puiseux")
    p.add_argument("--point", required=True,
                   help="semicolon separated series, or @file")
    p = add("np-solve", "roots of a univariate polynomial over series",
            needs_ideal=False, needs_w=False)
    p.add_argument("--coeffs", required=True,
                   help="semicolon separated series c_0;...;c_d")
    p.add_argument("--N", required=True, help="truncation target")
    p.add_argument("--mode", choices=("puiseux", "hahn"), default="puiseux")
    return top


def _read_arg(value):
    """Inline text, or the contents of a file for @path arguments."""
    if value.startswith("@"):
        try:
            with open(value[1:], "r", encoding="utf-8") as handle:
                return handle.read(), True
        except OSError as exc:
            raise UsageError("cannot read %s: %s" % (value[1:], exc)) from None
    return value, False


def _load_ideal(args):
    """Ring over a new field, generators, and an optional fixture weight
    vector."""
    if getattr(args, "ideal", None) is None:
        raise UsageError("--ideal is required")
    field = NumberField()
    text, from_file = _read_arg(args.ideal)
    if from_file:
        ring, gens, _mode, weights = parse_ideal_text(text, field, d=args.d)
        if args.vars is not None and parse_vars(args.vars) != ring.vars:
            raise UsageError("--vars disagrees with the fixture header")
        return ring, gens, weights
    if args.vars is None:
        raise UsageError("--vars is required with an inline ideal")
    ring = PolyRing(field, parse_vars(args.vars))
    gens = parse_generators(text, ring)
    return ring, gens, None


def _need_w(args, fixture_w):
    if getattr(args, "w", None) is not None:
        text, from_file = _read_arg(args.w)
        if from_file:
            raise UsageError("this command takes a single inline weight vector")
        return parse_weights(text, d=args.d)
    if fixture_w is not None:
        return fixture_w
    raise UsageError("--w is required")


def _local_ideal(args):
    """Ring, weight, and the ideal presented local at the weight."""
    ring, gens, fixture_w = _load_ideal(args)
    w = _need_w(args, fixture_w)
    return ring, w, presentation(ring, gens, "local", w)


def _emit(stream, args, obj, text_lines):
    if args.json:
        stream.write(json.dumps(obj, sort_keys=True) + "\n")
    else:
        for line in text_lines:
            stream.write(line + "\n")


# -- subcommand bodies ------------------------------------------------------


def _cmd_init_form(args, out):
    ring, gens, fixture_w = _load_ideal(args)
    if len(gens) != 1:
        raise UsageError("init-form takes exactly one polynomial")
    w = _need_w(args, fixture_w)
    f = gens[0]
    obj = {"w_order": str(w_order(f, w)), "init_form": poly_str(initial_form(f, w))}
    _emit(out, args, obj, ["%s=%s" % kv for kv in obj.items()])
    return 0


def _cmd_init_ideal(args, out):
    _, w, I = _local_ideal(args)
    data = initial_ideal(I, w)
    free = data.is_monomial_free()
    obj = {
        "w": [str(x) for x in data.weights],
        "basis": [poly_str(g) for g in data.basis],
        "init": [poly_str(g) for g in data.generators],
        "monomial_free": free,
    }
    lines = ["init=%s" % poly_str(g) for g in data.generators]
    lines.append("monomial_free=%s" % _b(free))
    _emit(out, args, obj, lines)
    return 0


def _cmd_coset_val(args, out):
    ring, w, I = _local_ideal(args)
    g = parse_generators(args.g, ring)
    if len(g) != 1:
        raise UsageError("--g takes exactly one polynomial")
    handle = CosetValuationHandle(I, w)
    value = handle.value(g[0])
    _emit(
        out,
        args,
        {"g": poly_str(g[0]), "value": str(value)},
        ["value=%s" % value],
    )
    return 0


def _cmd_cone(args, out):
    _, w, I = _local_ideal(args)
    cone = groebner_cone(I, w)
    obj = cone.to_json_dict()
    obj["dim"] = dim = cone.dim()
    lines = ["eq=%s" % ",".join(str(v) for v in row) for row in cone.eq]
    lines += ["ineq=%s" % ",".join(str(v) for v in row) for row in cone.ineq]
    lines.append("dim=%d" % dim)
    _emit(out, args, obj, lines)
    return 0


def _cmd_trop_member(args, out):
    ring, gens, fixture_w = _load_ideal(args)
    if getattr(args, "w", None) is None:
        raise UsageError("--w is required")
    text, from_file = _read_arg(args.w)
    queries = []
    if from_file:
        for raw in text.splitlines():
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            queries.append(parse_query(line, d=args.d))
    else:
        queries.append(parse_query(text, d=args.d))
    I = presentation(ring, gens, "global")
    results = [trop_member(I, query) for query in queries]
    for result in results:
        payload = result.to_json_dict()
        text_line = "w=%s: member=%s" % (
            ",".join(payload["w"]),
            _b(result.member),
        )
        if not result.member and "monomial" in payload["witness"]:
            text_line += " witness=%s" % payload["witness"]["monomial"]
        _emit(out, args, payload, [text_line])
    if not from_file and not results[0].member:
        return 1
    return 0


def _cmd_trop_hyper(args, out):
    ring, gens, _fixture_w = _load_ideal(args)
    if len(gens) != 1:
        raise UsageError("trop-hyper takes exactly one polynomial")
    cones = trop_hypersurface(gens[0])
    for cone in cones:
        obj = cone.to_json_dict()
        line = "cone: eq=%s ineq=%s sample=%s" % (
            _rows_text(cone.cone.eq),
            _rows_text(cone.cone.ineq),
            ",".join(str(x) for x in cone.sample),
        )
        _emit(out, args, obj, [line])
    if not args.json:
        out.write("cones=%d\n" % len(cones))
    return 0


def _rows_text(rows):
    return "[" + ";".join(",".join(str(v) for v in row) for row in rows) + "]"


def _cmd_trop_enum(args, out):
    ring, gens, _fixture_w = _load_ideal(args)
    if args.budget <= 0:
        raise UsageError("--budget must be positive")
    I = presentation(ring, gens, "global")
    cones, truncated = trop_enumerate(I, budget=args.budget, seed=args.seed)
    members = 0
    for cone in cones:
        if cone.member:
            members += 1
        obj = cone.to_json_dict()
        line = "cone: eq=%s ineq=%s member=%s" % (
            _rows_text(cone.cone.eq),
            _rows_text(cone.cone.ineq),
            _b(cone.member),
        )
        _emit(out, args, obj, [line])
    summary = {"cones": len(cones), "members": members, "truncated": truncated}
    _emit(
        out,
        args,
        summary,
        [
            "cones=%d" % len(cones),
            "members=%d" % members,
            "truncated=%s" % _b(truncated),
        ],
    )
    return 0


def _cmd_tensor(args, out):
    ring, w1, I = _local_ideal(args)
    if args.vars2 is None:
        raise UsageError("--vars2 is required")
    ring2 = PolyRing(ring.field, parse_vars(args.vars2))
    gens2 = parse_generators(args.ideal2, ring2)
    w2 = parse_weights(args.w2, d=args.d)
    J = presentation(ring2, gens2, "local", w2)
    _combined, cert = tensor_combine(I, J, w1, w2)
    obj = {
        "initial_match": cert.initial_match,
        "left_monomial_free": cert.left_monomial_free,
        "right_monomial_free": cert.right_monomial_free,
        "combined_monomial_free": cert.combined_monomial_free,
        "ok": cert.ok(),
    }
    _emit(out, args, obj, ["%s=%s" % (k, _b(v)) for k, v in obj.items()])
    return 0 if cert.ok() else 1


def _b(flag):
    return "true" if flag else "false"


def _descent_payload(step):
    return {
        "w_prime": [str(v) for v in step.integral_weight],
        "slice": list(step.slice_indices),
        "J": [poly_str(g) for g in step.J],
        "x0": [str(v) for v in step.x0],
        "y0": [str(v) for v in step.y0],
        "f_tilde": poly_str(step.f_tilde),
        "f": poly_str(step.f),
        "certificates": {
            "nonzerodivisor": step.nonzerodivisor_ok,
            "additivity": step.additivity_ok,
            "monomial_free": step.monomial_free_ok,
        },
        "dim_before": step.dim_before,
        "dim_after": step.dim_after,
    }


def _cmd_lift(args, out):
    _, w, I = _local_ideal(args)
    N = parse_scalar(args.N, d=args.d)
    problem = LiftProblem(I, w, N, args.mode)
    result = lift_point(problem, seed=args.seed)
    obj = {
        "point": list(result.point_strings()),
        "achieved": [str(v) for v in result.achieved],
        "residual_bounds": [str(v) for v in result.residuals],
        "descents": [_descent_payload(s) for s in result.descents],
    }
    lines = [
        "point=%s" % "; ".join(result.point_strings()),
        "achieved=%s" % "; ".join(str(v) for v in result.achieved),
        "residual_bounds=%s"
        % "; ".join(str(v) for v in result.residuals),
    ]
    for step in result.descents:
        lines.append(
            "descent: f=%s dim %d->%d" % (
                poly_str(step.f), step.dim_before, step.dim_after,
            )
        )
    _emit(out, args, obj, lines)
    return 0


def _cmd_verify(args, out):
    ring, w, I = _local_ideal(args)
    N = parse_scalar(args.N, d=args.d)
    text, _from_file = _read_arg(args.point)
    point = parse_point(
        text.replace("\n", ";").strip(";"), ring.field, args.mode, d=args.d
    )
    report = verify_lift(LiftProblem(I, w, N, args.mode), point)
    obj = report.to_json_dict()
    lines = ["ok=%s" % _b(report.ok())]
    for i, expected, observed, flag in report.valuation_checks:
        lines.append(
            "valuation[%d]: expected=%s observed=%s ok=%s"
            % (i, expected, observed, _b(flag))
        )
    for gi, v, exact, flag in report.residual_checks:
        lines.append(
            "residual[%d]: valuation=%s exact_zero=%s ok=%s"
            % (gi, v, _b(exact), _b(flag))
        )
    _emit(out, args, obj, lines)
    return 0 if report.ok() else 1


def _cmd_np_solve(args, out):
    field = NumberField()
    text, _ = _read_arg(args.coeffs)
    parts = [p for p in text.replace("\n", ";").split(";") if p.strip()]
    if not parts:
        raise UsageError("--coeffs needs at least one series")
    coeffs = [parse_series(p, field, args.mode, d=args.d) for p in parts]
    N = parse_scalar(args.N, d=args.d)
    roots = newton_puiseux(coeffs, N, args.mode)
    for root in roots:
        _emit(out, args, {"root": str(root)}, ["root=%s" % root])
    if not args.json:
        out.write("roots=%d\n" % len(roots))
    return 0


_COMMANDS = {
    "init-form": _cmd_init_form,
    "init-ideal": _cmd_init_ideal,
    "coset-val": _cmd_coset_val,
    "cone": _cmd_cone,
    "trop-member": _cmd_trop_member,
    "trop-hyper": _cmd_trop_hyper,
    "trop-enum": _cmd_trop_enum,
    "tensor": _cmd_tensor,
    "lift": _cmd_lift,
    "verify": _cmd_verify,
    "np-solve": _cmd_np_solve,
}


def run(argv, stdout=None, stderr=None):
    """Parse argv, dispatch, and return the exit code."""
    out = stdout if stdout is not None else sys.stdout
    err = stderr if stderr is not None else sys.stderr
    try:
        args = _build_parser().parse_args(argv)
        if args.command is None:
            raise UsageError("a subcommand is required")
        # once per run: the squarefree test is trial division, and d above
        # the bound is reported where the weights are parsed
        if args.d is not None and args.d <= _MAX_RADICAND and not _squarefree(args.d):
            raise UsageError("d=%d is not a positive squarefree integer" % args.d)
        return _COMMANDS[args.command](args, out)
    except SystemExit as exc:  # argparse --help
        code = exc.code
        return 0 if code is None else int(code)
    except NonMemberError as exc:
        err.write("non-member: %s\n" % exc)
        return 1
    except UsageError as exc:
        err.write("usage error: %s\n" % exc)
        return 2
    except CapabilityError as exc:
        err.write("capability limit: %s\n" % exc)
        return 3


def main():
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
