"""One fresh benchmark process; ``run.py`` starts it, reads its last stdout line.

Modes:

* ``cold``: set up (import ``seqwarp`` and build every spec of the
  workload), run the first op once, report both times.
* ``warm``: the same set-up and cold op (the first pass is the cold one),
  then warm passes in slices that ``run.py`` requests on stdin between its
  cold processes, until the warm passes add up to ``--seconds``.
* ``trace``: set-up and passes with the tracer installed (at least the cold
  pass and one warm pass, and until half of ``--seconds``), then untraced
  warm passes for the rest of the time, to measure the tracing overhead.

Every op's output is checked: an op fails when it raises, when its verdict
is not the expected pass, or when its output bytes differ from the first
pass over the same input in this process.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import statistics
import sys
import time
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# Untraced time allowed inside an op beyond the tracing overhead: the timer
# calls and the op closure around the traced calls.
SELFTIME_SLACK_S = 1e-4


class Checker:
    """Runs ops, times them, and records failures by input."""

    def __init__(self):
        self.digests: dict[str, str] = {}
        self.attempted = 0
        self.failed = 0
        self.failures: dict[str, list[str]] = {}
        self.unexpected: list[str] = []

    def run(self, op) -> float:
        """Run one op and check its output; return its wall time in seconds."""
        import workloads

        self.attempted += 1
        start = time.perf_counter()
        try:
            result = op.run()
            elapsed = time.perf_counter() - start
            text, failing = op.check(result)
        except Exception as exc:  # a raising op is a failed op, not a crash
            elapsed = time.perf_counter() - start
            self._fail(op.input_id, [f"raised {type(exc).__name__}: {exc}"], unexpected=True)
            return elapsed
        problems = list(failing)
        digest = hashlib.sha256(text.encode()).hexdigest()
        first = self.digests.setdefault(op.input_id, digest)
        mismatch = first != digest
        if mismatch:
            problems.append("output bytes differ between passes")
        if problems:
            self._fail(
                op.input_id, problems,
                unexpected=mismatch or workloads.unexpected(op.input_id, failing),
            )
        return elapsed

    def _fail(self, input_id: str, problems: list[str], unexpected: bool) -> None:
        self.failed += 1
        self.failures[input_id] = problems
        if unexpected and input_id not in self.unexpected:
            self.unexpected.append(input_id)

    def result(self) -> dict:
        return {
            "attempted": self.attempted,
            "failed": self.failed,
            "failures": self.failures,
            "unexpected": self.unexpected,
        }


def _run_pass(ops, checker: Checker, on_op=None) -> tuple[float, list[float]]:
    start = time.perf_counter()
    times = []
    for op in ops:
        if on_op is not None:
            on_op(op)
        times.append(checker.run(op))
    return time.perf_counter() - start, times


def _versions() -> dict:
    import numpy

    return {"python": sys.version.split()[0], "numpy": numpy.__version__}


def cold_or_warm(workload: str, seed: int, warm: bool) -> dict:
    start = time.perf_counter()
    import workloads

    ops = workloads.build(workload, seed)
    setup_s = time.perf_counter() - start
    checker = Checker()
    out = {"setup_s": setup_s, **_versions()}
    if not warm:
        out["cold_op_s"] = checker.run(ops[0])
        return {**out, **checker.result()}
    cold_pass, cold_times = _run_pass(ops, checker)
    out["cold_op_s"] = cold_times[0]
    print("ready", flush=True)
    # run.py interleaves its cold processes with the warm passes, so that all
    # samples of a run span the same stretch of time.  Each stdin line is a
    # cumulative target of warm pass time; this process idles in between.
    passes, op_times = [], []
    for line in sys.stdin:
        target = float(line)
        while not passes or sum(passes) < target:
            elapsed, times = _run_pass(ops, checker)
            passes.append(elapsed)
            op_times.extend(times)
        print("done", flush=True)
    out.update(
        cold_pass_s=cold_pass,
        pass_times=passes,
        op_times=op_times,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    )
    return {**out, **checker.result()}


def trace(workload: str, seed: int, seconds: float) -> dict:
    """Traced set-up and passes, then untraced passes; the per-layer metrics."""
    from seqwarp import chart

    import workloads
    from tracer import LAYERS, SPAN_NAMES, Tracer

    tracer = Tracer()
    cache = [chart._derived.cache_info()]
    tracer.install()
    try:
        start = time.perf_counter()
        ops = workloads.build(workload, seed)  # op 0 is the set-up
        op_pass = {0: "setup"}
        op_wall: dict[int, float] = {}
        checker = Checker()
        traced = []

        def next_op(_op):
            tracer.op += 1
            op_pass[tracer.op] = len(traced)

        while len(traced) < 2 or time.perf_counter() - start < seconds / 2:
            first_op = tracer.op + 1
            elapsed, times = _run_pass(ops, checker, next_op)
            traced.append(elapsed)
            for offset, t in enumerate(times):
                op_wall[first_op + offset] = t
            if len(traced) == 2:  # the hit ratio covers set-up, cold and first warm pass
                cache.append(chart._derived.cache_info())
    finally:
        tracer.uninstall()
    untraced = []
    while not untraced or time.perf_counter() - start < seconds:
        untraced.append(_run_pass(ops, checker)[0])

    per_op = tracer.per_op()
    passes: dict[object, dict[str, list[float]]] = defaultdict(lambda: defaultdict(lambda: [0, 0.0]))
    counts: dict[object, dict[str, int]] = defaultdict(lambda: defaultdict(int))
    gaps = []
    for op, rows in per_op.items():
        for name, (calls, own, _) in rows.items():
            passes[op_pass[op]][name][0] += calls
            passes[op_pass[op]][name][1] += own
        if op in op_wall:
            gaps.append(op_wall[op] - sum(row[2] for row in rows.values()))
    for op, counter in tracer.counts.items():
        for name, n in counter.items():
            counts[op_pass[op]][name] += n

    warm = list(range(1, len(traced)))
    metrics = {}

    def combine(values_by_pass):
        return values_by_pass("setup") + values_by_pass(0) + statistics.median(
            values_by_pass(p) for p in warm
        )

    for name in SPAN_NAMES:
        metrics[f"{name}.calls"] = combine(lambda p: passes[p][name][0])
        metrics[f"{name}.self_s"] = combine(lambda p: passes[p][name][1])
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = combine(
            lambda p: sum(v[1] for k, v in passes[p].items() if k.startswith(layer + "."))
        )
        metrics[f"{layer}.einsum.calls"] = combine(lambda p: counts[p][f"{layer}.einsum.calls"])
    for counter in ("chart.frames_built", "warped.frames_built", "jets.eval_jet.order1.calls"):
        metrics[counter] = combine(lambda p: counts[p][counter])
    points_per_pass = sum(op.points for op in ops)
    for layer in ("chart", "warped"):
        metrics[f"{layer}.frames_per_point"] = counts[warm[0]][f"{layer}.frames_built"] / points_per_pass
    hits = cache[-1].hits - cache[0].hits
    misses = cache[-1].misses - cache[0].misses
    metrics["chart.derived_cache.hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    traced_pass = statistics.median(traced[p] for p in warm)
    untraced_pass = statistics.median(untraced)
    metrics["trace.pass_s"] = traced_pass
    metrics["trace.untraced_pass_s"] = untraced_pass
    metrics["trace.overhead_s"] = traced_pass - untraced_pass
    # The self times of an op's spans add up to the op's wall time, less the
    # benchmark's glue around the call and the wrappers' own bookkeeping,
    # which the tracing overhead bounds.  The mean is checked, so that one
    # collector pause landing in the glue does not fail the run.
    metrics["trace.selftime_gap_s"] = statistics.fmean(gaps)
    gap_limit = max(metrics["trace.overhead_s"], 0.0) / len(ops) + SELFTIME_SLACK_S

    out_dir = Path(__file__).resolve().parent / "out"
    out_dir.mkdir(exist_ok=True)
    span_file = out_dir / f"spans-{workload}-seed{seed}.npz"
    tracer.write(span_file)
    return {
        "metrics": metrics,
        "traced_passes": len(traced),
        "untraced_passes": len(untraced),
        "selftime_ok": min(gaps) >= 0.0 and metrics["trace.selftime_gap_s"] <= gap_limit,
        "layers": LAYERS,
        "spans": len(tracer.spans),
        "span_file": str(span_file.relative_to(ROOT)),
        **_versions(),
        **checker.result(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("cold", "warm", "trace"))
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    args = parser.parse_args(argv)
    sys.path.insert(0, str(ROOT / "src"))
    if args.mode == "trace":
        result = trace(args.workload, args.seed, args.seconds)
    else:
        result = cold_or_warm(args.workload, args.seed, args.mode == "warm")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
