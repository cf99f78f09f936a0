"""troplift benchmark: one workload, one seed, one JSON line of metrics.

    python3 bench/run.py --workload lift --seed 1 --seconds 25 --trace 0

Workloads: tropical, lift, newton, cli (see workloads.py and README.md).
With --trace 0 the last line of stdout holds the end-to-end metrics, taken
untraced; with --trace 1 it holds the per-layer metrics of a traced run.
Raw per-operation times and trace files go to bench/results/.

The run spawns bench/worker.py several times: SETUP_SAMPLES workers only set
up (their spawn-to-READY times give setup_s), and one more sets up and then
measures.  troplift is imported from src/ of this checkout; without it the
run exits with status 2 before printing any result.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RESULTS = BENCH / "results"
WORKLOADS = ("tropical", "lift", "newton", "cli")
SETUP_SAMPLES = 5
TIME_LIMIT_S = 170.0

# (name, unit, better): the end-to-end metrics, from untraced runs
END_TO_END = [
    ("setup_s", "s", "lower"),
    ("ops_per_s", "ops/s", "higher"),
    ("op_ms.p50", "ms", "lower"),
    ("op_ms.p90", "ms", "lower"),
    ("peak_rss_mb", "MiB", "lower"),
]

# (name, unit, better): the per-layer metrics of a traced run
PER_LAYER = [
    ("tropical.trop_member.calls", "count", "lower"),
    ("tropical.trop_member.self_ms", "ms", "lower"),
    ("tropical.trop_enumerate.self_ms", "ms", "lower"),
    ("tropical.trop_hypersurface.self_ms", "ms", "lower"),
    ("valfan.initial_ideal.calls", "count", "lower"),
    ("valfan.initial_ideal.self_ms", "ms", "lower"),
    ("valfan.groebner_cone.calls", "count", "lower"),
    ("valfan.groebner_cone.self_ms", "ms", "lower"),
    ("ideals.std_basis.local.computed", "count", "lower"),
    ("ideals.std_basis.local.self_ms", "ms", "lower"),
    ("ideals.std_basis.global.computed", "count", "lower"),
    ("ideals.std_basis.global.self_ms", "ms", "lower"),
    ("ideals.std_basis.memo_hits", "count", "higher"),
    ("ideals.std_basis.repeats", "count", "lower"),
    ("ideals.std_basis.spair_reductions", "count", "lower"),
    ("ideals.std_basis.unreduced", "count", "lower"),
    ("ideals.normal_form.self_ms", "ms", "lower"),
    ("ideals.saturate.self_ms", "ms", "lower"),
    ("ideals.eliminate.self_ms", "ms", "lower"),
    ("ideals.ideal_quotient.self_ms", "ms", "lower"),
    ("ideals.ideals_equal.self_ms", "ms", "lower"),
    ("ideals.contains_monomial.self_ms", "ms", "lower"),
    ("ideals.dimension.self_ms", "ms", "lower"),
    ("ideals.torus_point.self_ms", "ms", "lower"),
    ("polyring.order_key.calls", "count", "lower"),
    ("polyring.poly_mul.calls", "count", "lower"),
    ("polyring.initial_form.self_ms", "ms", "lower"),
    ("scalars.value_scalar.created", "count", "lower"),
    ("scalars.algebraic_mul.calls", "count", "lower"),
    ("scalars.factor_univariate.calls", "count", "lower"),
    ("scalars.factor_univariate.self_ms", "ms", "lower"),
    ("scalars.roots_in_extension.calls", "count", "lower"),
    ("scalars.roots_in_extension.self_ms", "ms", "lower"),
    ("scalars.adjoin_root.calls", "count", "lower"),
    ("scalars.field_height.max", "count", "lower"),
    ("series.substitute.calls", "count", "lower"),
    ("series.substitute.self_ms", "ms", "lower"),
    ("series.mul.calls", "count", "lower"),
    ("series.poly_to_series_coeffs.self_ms", "ms", "lower"),
    ("lifting.lift_point.self_ms", "ms", "lower"),
    ("lifting.descend.calls", "count", "lower"),
    ("lifting.descend.self_ms", "ms", "lower"),
    ("lifting.newton_puiseux.calls", "count", "lower"),
    ("lifting.newton_puiseux.self_ms", "ms", "lower"),
    ("lifting.verify_lift.self_ms", "ms", "lower"),
    ("linalg.find_strict_point.calls", "count", "lower"),
    ("linalg.find_strict_point.self_ms", "ms", "lower"),
    ("parsing.parse_poly.self_ms", "ms", "lower"),
    ("cli.interpreter_ms", "ms", "lower"),
    ("cli.import_troplift_ms", "ms", "lower"),
    ("cli.import_sympy_ms", "ms", "lower"),
    ("cli.run_ms", "ms", "lower"),
]


class WorkerError(RuntimeError):
    pass


def spawn(args, mode, deadline):
    """Run one worker; returns (seconds from spawn to READY, its result)."""
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--mode", mode]
    if mode == "trace":
        cmd += ["--trace-file", str(RESULTS / ("trace-%s-%d.jsonl" % (args.workload, args.seed)))]
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=str(ROOT), stdout=subprocess.PIPE, text=True)
    try:
        first = proc.stdout.readline()
        ready = time.perf_counter() - start if first.strip() == "READY" else None
        rest, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0 or ready is None:
        raise WorkerError("worker (%s) exited with status %s" % (mode, proc.returncode))
    lines = [line for line in rest.splitlines() if line.strip()]
    return ready, (json.loads(lines[-1]) if lines else None)


def percentile(values, q):
    """The q-th percentile of values, interpolated between order statistics."""
    values = sorted(values)
    pos = (len(values) - 1) * q
    lo = int(pos)
    hi = min(lo + 1, len(values) - 1)
    return values[lo] + (values[hi] - values[lo]) * (pos - lo)


def end_to_end(result, setups):
    """Metrics from times[pass][op], in seconds at the reference speed (see
    speed.py).  Each operation's time is its median over the passes; the
    throughput is the list's length over the sum of those medians."""
    per_op = [statistics.median(col) for col in zip(*result["times"])]
    return {
        "setup_s": statistics.median(setups),
        "ops_per_s": len(per_op) / sum(per_op),
        "op_ms.p50": percentile(per_op, 0.5) * 1000.0,
        "op_ms.p90": percentile(per_op, 0.9) * 1000.0,
        "peak_rss_mb": result["peak_rss_mb"],
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (ROOT / "src" / "troplift" / "__init__.py").is_file():
        print("bench: no troplift sources under %s" % (ROOT / "src"), file=sys.stderr)
        return 2
    deadline = time.monotonic() + TIME_LIMIT_S
    RESULTS.mkdir(exist_ok=True)
    try:
        setups = [spawn(args, "setup", deadline)[0] for _ in range(SETUP_SAMPLES - 1)]
        ready, result = spawn(args, "trace" if args.trace else "measure", deadline)
    except (WorkerError, subprocess.TimeoutExpired, json.JSONDecodeError) as exc:
        print("bench: %s" % exc, file=sys.stderr)
        return 1
    setups.append(ready)
    raw = dict(result, workload=args.workload, seed=args.seed, setups=setups)
    name = "%s-%s-%d.json" % ("trace" if args.trace else "raw", args.workload, args.seed)
    (RESULTS / name).write_text(json.dumps(raw) + "\n", encoding="utf-8")
    for err in result["errors"]:
        print("bench: wrong output: %s" % err, file=sys.stderr)

    if args.trace:
        wanted = PER_LAYER
        values = {name: result["metrics"].get(name, 0) for name, _, _ in PER_LAYER}
    else:
        wanted = END_TO_END
        values = end_to_end(result, setups)
    metrics = {name: {"value": values[name], "unit": unit} for name, unit, _ in wanted}
    print(json.dumps({"correct": result["correct"], "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
