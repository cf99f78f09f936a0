"""One benchmark process: set up a workload, then measure or trace it.

    python3 bench/worker.py --workload lift --seed 3 --seconds 25 --mode measure

Set-up (imports, input generation, warm-up) ends with the line READY on
stdout; the parent process times it from spawn.  In mode `setup` the worker
then exits.  In mode `measure` it runs whole passes over the operation list
for about --seconds and prints one JSON line with the per-operation times.
In mode `trace` it runs traced passes (see tracing.py) and prints the
per-layer metrics.  Every output is checked against oracles.py.
"""

from __future__ import annotations

import argparse
import json
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback

import speed
import workloads as W
from tracing import SPANS, Tracer

SPEED = speed.SpeedProbe()


class Outcome:
    """Counts and check failures across the passes of one run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors = []

    def record(self, op, out, exc):
        self.attempted += 1
        if op.expect_error is not None and isinstance(exc, op.expect_error):
            self.failed += 1
            return
        if exc is not None:
            self.failed += 1
            self.errors.append("%s raised %s: %s" % (op.label, type(exc).__name__, exc))
            return
        problem = op.check(out)
        if problem is not None:
            self.errors.append("%s: %s" % (op.label, problem))

    @property
    def correct(self):
        return not self.errors


def _call(op):
    """Run one operation; an exception is its outcome, recorded by Outcome."""
    try:
        return op.run(), None
    except Exception as exc:  # noqa: BLE001 - one operation must not end the run
        if not isinstance(exc, W.errors.TropliftError):
            traceback.print_exc()
        return None, exc


def _pass_order(n, seed, index):
    order = list(range(n))
    random.Random("pass:%d:%d" % (seed, index)).shuffle(order)
    return order


def measure(wl, seed, seconds, outcome):
    """Whole passes until about `seconds` have gone: a new pass starts while
    at least half a pass fits.  Returns (wall, normalized): seconds per
    [pass][op], as measured and at the reference speed (see speed.py)."""
    spans = []
    SPEED.start()
    start = time.perf_counter()
    while True:
        row = [None] * len(wl.ops)
        results = []
        for i in _pass_order(len(wl.ops), seed, len(spans)):
            op = wl.ops[i]
            t0 = time.perf_counter()
            out, exc = _call(op)
            t1 = time.perf_counter()
            own = None if op.normalize is None or out is None else op.normalize(out, t1 - t0)
            row[i] = (t0, t1, own)
            results.append((op, out, exc))
        for op, out, exc in results:
            outcome.record(op, out, exc)
        spans.append(row)
        elapsed = time.perf_counter() - start
        if elapsed + 0.5 * elapsed / len(spans) > seconds:
            break
    time.sleep(2 * speed.INTERVAL_S)  # samples after the last operation
    SPEED.stop()
    wall = [[t1 - t0 for t0, t1, _ in row] for row in spans]
    normalized = [
        [SPEED.normalized(t0, t1) if own is None else own for t0, t1, own in row]
        for row in spans
    ]
    return wall, normalized


def in_process_cli_ops(seed):
    """The cli workload's invocations, run through cli.run in this process."""
    return [
        W.Op("cli.run " + " ".join(argv), lambda argv=argv: W.run_in_process(argv),
             lambda out, check=check: check(*out))
        for argv, check in W.build_cli_argv(seed)
    ]


def _median_ms(samples):
    return statistics.median(samples) * 1000.0


def _wall(cmd, env=None):
    start = time.perf_counter()
    proc = subprocess.run(cmd, env=env, cwd=str(W.ROOT), capture_output=True, text=True,
                          timeout=120)
    return time.perf_counter() - start, proc


def cli_layer_metrics(seed):
    """Cold-start costs of the CLI, untraced: bare interpreter, imports
    (from -X importtime), and the in-process cli.run of the argv list."""
    interp = [_wall([sys.executable, "-c", "pass"])[0] for _ in range(5)]
    own, sym = [], []
    for _ in range(3):
        _, proc = _wall([sys.executable, "-X", "importtime", "-c", "import troplift"],
                        env=W.cli_env())
        cumulative = {}
        for line in proc.stderr.splitlines():
            parts = line.split("|")
            if len(parts) == 3 and parts[1].strip().isdigit():
                cumulative[parts[2].strip()] = int(parts[1])
        own.append(cumulative["troplift"] / 1e6)
        sym.append(cumulative.get("sympy", 0) / 1e6)  # 0 once troplift imports it lazily
    ops = in_process_cli_ops(seed)
    runs = []
    for _ in range(3):
        t0 = time.perf_counter()
        for op in ops:
            _call(op)
        runs.append(time.perf_counter() - t0)
    return {
        "cli.interpreter_ms": _median_ms(interp),
        "cli.import_troplift_ms": _median_ms(own),
        "cli.import_sympy_ms": _median_ms(sym),
        "cli.run_ms": _median_ms(runs),
    }


def trace(wl, seed, seconds, outcome, trace_path):
    """Span passes over the workload's in-process operations followed by the
    CLI argv list in-process, then one count-only pass of the same."""
    probe = in_process_cli_ops(seed)
    own = probe if wl.name == "cli" else wl.ops
    extra = [] if wl.name == "cli" else probe
    tracer = Tracer()
    per_pass, pass_seconds = [], []
    start = time.perf_counter()
    while True:
        tracer.install_spans()
        t0 = time.perf_counter()
        results = []
        for i, op in enumerate(own):
            tracer.op = i
            results.append((op, *_call(op)))
        pass_seconds.append(time.perf_counter() - t0)
        for i, op in enumerate(extra, len(own)):
            tracer.op = i
            out, exc = _call(op)
            if exc is not None or op.check(out) is not None:
                outcome.errors.append("cli probe %s failed" % op.label)
        tracer.uninstall()
        for op, out, exc in results:
            outcome.record(op, out, exc)
        per_pass.append(tracer.span_totals())
        if len(per_pass) == 1:
            _write_spans(trace_path, tracer.spans, len(own))
        tracer.spans.clear()
        elapsed = time.perf_counter() - start
        if elapsed + 0.5 * elapsed / len(per_pass) > seconds:
            break
    tracer.install_counts()
    for i, op in enumerate(own + extra):
        tracer.begin_op(i)
        _call(op)
    tracer.uninstall()

    metrics = {}
    for _module, _attr, name in SPANS:
        calls = per_pass[0].get(name, (0, 0.0))[0]
        self_ms = statistics.median(p.get(name, (0, 0.0))[1] for p in per_pass) * 1000.0
        metrics[name + (".computed" if name.startswith("ideals.std_basis") else ".calls")] = calls
        metrics[name + ".self_ms"] = self_ms
    metrics.update(tracer.counts)
    metrics.update(cli_layer_metrics(seed))
    summary = {"passes": len(per_pass), "ops": len(own),
               "traced_ops_per_s": len(own) / statistics.median(pass_seconds)}
    return metrics, summary


def _write_spans(path, spans, n_own):
    base = spans[0][1] if spans else 0.0
    with open(path, "w", encoding="utf-8") as fh:
        for idx, (name, start, end, parent, op) in enumerate(spans):
            fh.write(json.dumps({
                "id": idx, "name": name, "parent": parent, "op": op,
                "phase": "workload" if op < n_own else "cli-probe",
                "start_ms": (start - base) * 1000.0, "dur_ms": (end - start) * 1000.0,
            }) + "\n")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=W.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--mode", required=True, choices=("setup", "measure", "trace"))
    ap.add_argument("--trace-file")
    args = ap.parse_args()

    wl = W.build(args.workload, args.seed)
    warm = Outcome()
    for op in wl.warm_up:
        out, exc = _call(op)
        warm.record(op, out, exc)
    print("READY", flush=True)
    if args.mode == "setup":
        return 0 if warm.correct else 1

    outcome = Outcome()
    outcome.errors.extend(warm.errors)
    result = {}
    if args.mode == "measure":
        result["wall"], result["times"] = measure(wl, args.seed, args.seconds, outcome)
        result["labels"] = [op.label for op in wl.ops]
        who = resource.RUSAGE_CHILDREN if wl.name == "cli" else resource.RUSAGE_SELF
        result["peak_rss_mb"] = resource.getrusage(who).ru_maxrss / 1024.0
    else:
        result["metrics"], result["summary"] = trace(
            wl, args.seed, args.seconds, outcome, args.trace_file)
    result.update(attempted=outcome.attempted, failed=outcome.failed,
                  correct=outcome.correct, errors=outcome.errors[:20])
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Exception:
        traceback.print_exc()
        sys.exit(1)
