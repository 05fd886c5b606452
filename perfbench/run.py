"""seqwarp benchmark: end-to-end metrics per workload, per-layer metrics when traced.

Run from the repository root:

    python3 perfbench/run.py --workload catalog --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --workload catalog --seed 0 --seconds 20 --trace 1
    python3 perfbench/run.py --workload all --seed 0 --seconds 20

Each number comes from fresh single-threaded worker processes (see
``worker.py``).  The last stdout line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the metric names and
units are the ones ``BENCHMARK.json`` declares.  The lines before it are the
same figures for a reader, with the provenance of the run.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

WORKLOADS = ("catalog", "dim_sweep", "torus", "classify")

# Fresh processes that only set up and run the cold op, besides the warm
# process; also the number of slices the warm passes are cut into.  torus
# has fewer because its cold op takes seconds.
COLD_RUNS = {"catalog": 8, "dim_sweep": 8, "torus": 3, "classify": 8}

# op_tail_s percentile per workload: the highest one with at least ten warm
# ops beyond it at the seed commit.  It is fixed so that a faster commit,
# which fits more ops in a run, reports the same percentile.  torus and
# dim_sweep run too few ops for any percentile to have ten beyond; they
# report the median.
TAIL_PERCENTILE = {"catalog": 75, "dim_sweep": 50, "torus": 50, "classify": 99}

# A run must end within this many seconds of starting.
DEADLINE_S = 170.0

THREAD_ENV = {
    name: "1"
    for name in (
        "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
        "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
    )
}


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def _start(mode: str, workload: str, seed: int, seconds: float, **kwargs) -> subprocess.Popen:
    cmd = [
        sys.executable, str(HERE / "worker.py"), mode,
        "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
    ]
    env = {**os.environ, **THREAD_ENV, "PYTHONHASHSEED": "0"}
    return subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True, **kwargs)


def _result(proc: subprocess.Popen, output: str, what: str) -> dict:
    if proc.returncode != 0:
        raise BenchError(f"{what} exited with {proc.returncode}")
    return json.loads(output.strip().splitlines()[-1])


def _worker(mode: str, workload: str, seed: int, seconds: float, deadline: float) -> dict:
    """Run one worker to completion and return its result."""
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("out of time before starting a worker")
    with _start(mode, workload, seed, seconds) as proc:
        try:
            output, _ = proc.communicate(timeout=remaining)
        except subprocess.TimeoutExpired as exc:
            proc.kill()
            proc.wait()
            raise BenchError(f"{mode} worker for {workload} overran the deadline") from exc
    return _result(proc, output, f"{mode} worker for {workload}")


def _expect(proc: subprocess.Popen, word: str, workload: str) -> None:
    line = proc.stdout.readline()
    if line.strip() != word:
        raise BenchError(f"warm worker for {workload} stopped before {word!r}")


def _git_sha() -> str:
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def metric_unit(name: str) -> str:
    """Unit of a per-layer metric, from its name."""
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_ratio", "_per_point")):
        return "ratio"
    return "count"


def _tail(values: list[float], percentile: float) -> tuple[float, int]:
    """Nearest-rank percentile and the number of samples above its rank."""
    ordered = sorted(values)
    rank = max(1, math.ceil(percentile / 100.0 * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


def measure(workload: str, seed: int, seconds: float, deadline: float) -> dict:
    """End-to-end figures of one workload.

    The warm process sets up and runs its cold pass, then alternates with
    the cold processes: one cold process, then a slice of warm passes, and
    so on.  Host speed here drifts over tens of seconds; interleaving makes
    every metric of a run sample the same stretch of time.
    """
    slices = COLD_RUNS[workload]
    colds = []
    with _start("warm", workload, seed, seconds, stdin=subprocess.PIPE) as proc:
        watchdog = threading.Timer(max(0.0, deadline - time.monotonic()), proc.kill)
        watchdog.start()
        try:
            _expect(proc, "ready", workload)
            for i in range(slices):
                colds.append(_worker("cold", workload, seed, 0, deadline))
                proc.stdin.write(f"{seconds * (i + 1) / slices}\n")
                proc.stdin.flush()
                _expect(proc, "done", workload)
            proc.stdin.close()
            output = proc.stdout.read()
            proc.wait()
        except BrokenPipeError as exc:
            raise BenchError(f"warm worker for {workload} stopped early") from exc
        finally:
            watchdog.cancel()
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    warm = _result(proc, output, f"warm worker for {workload}")
    runs = colds + [warm]
    ops = warm["op_times"]
    tail, beyond = _tail(ops, TAIL_PERCENTILE[workload])
    return {
        "values": {
            "setup_s": statistics.median(r["setup_s"] for r in runs),
            "cold_op_s": statistics.median(r["cold_op_s"] for r in runs),
            "pass_s": statistics.median(warm["pass_times"]),
            "op_p50_s": statistics.median(ops),
            "op_tail_s": tail,
            "peak_rss_mb": warm["peak_rss_mb"],
            "failed_frac": warm["failed"] / warm["attempted"],
        },
        "notes": {
            "setup_s": f"median of {len(runs)} fresh processes",
            "cold_op_s": f"median of {len(runs)} fresh processes",
            "pass_s": f"median of {len(warm['pass_times'])} warm passes",
            "op_p50_s": f"median of {len(ops)} warm ops",
            "op_tail_s": f"p{TAIL_PERCENTILE[workload]} of {len(ops)} warm ops, {beyond} beyond",
            "peak_rss_mb": "warm process",
            "failed_frac": f"{warm['failed']}/{warm['attempted']} ops",
        },
        "python": warm["python"],
        "numpy": warm["numpy"],
        "attempted": warm["attempted"],
        "failed": warm["failed"],
        "failures": warm["failures"],
        "unexpected": sorted({i for r in runs for i in r["unexpected"]}),
    }


def _print_failures(result: dict) -> None:
    for input_id, problems in sorted(result["failures"].items()):
        tag = "UNEXPECTED" if input_id in result["unexpected"] else "known defect"
        print(f"  failed: {input_id}: {', '.join(problems)} ({tag})")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    if args.trace and len(names) > 1:
        parser.error("--trace 1 needs a single workload")
    deadline = time.monotonic() + DEADLINE_S * len(names)

    if not (ROOT / "src" / "seqwarp" / "__init__.py").is_file():
        print(f"error: no seqwarp sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    end_to_end = {m["name"]: m["unit"] for m in declared["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in declared["per_layer"]}
    print(
        f"seqwarp benchmark  seed {args.seed}  seconds {args.seconds:g}  trace {args.trace}"
        f"  git {_git_sha()}  nproc {len(os.sched_getaffinity(0))}"
    )

    try:
        if args.trace:
            result = _worker("trace", args.workload, args.seed, args.seconds, deadline)
            print(f"{args.workload}: python {result['python']}, numpy {result['numpy']}")
            print(
                f"  {result['traced_passes']} traced passes, {result['untraced_passes']} untraced,"
                f" {result['spans']} spans written to {result['span_file']}"
            )
            _print_failures(result)
            metrics = result["metrics"]
            print("  layer self time, set-up + cold pass + median warm pass:")
            for layer in sorted(result["layers"], key=lambda n: -metrics[f"{n}.self_s"]):
                print(f"    {layer:12s} {metrics[f'{layer}.self_s']:.4f} s")
            # every metric the trace yields, also those BENCHMARK.json leaves
            # out because they are 0 on some workload
            for name, value in metrics.items():
                print(f"  {name:46s} {value:.6g} {metric_unit(name)}")
            correct = not result["unexpected"] and result["selftime_ok"]
            line = {name: {"value": metrics[name], "unit": unit} for name, unit in per_layer.items()}
            attempted, failed = result["attempted"], result["failed"]
        else:
            correct, attempted, failed, line = True, 0, 0, {}
            for workload in names:
                result = measure(workload, args.seed, args.seconds, deadline)
                print(f"{workload}: python {result['python']}, numpy {result['numpy']}")
                for name, value in result["values"].items():
                    unit = end_to_end.get(name, "ratio")
                    print(f"  {name:12s} {value:12.6f} {unit:6s} {result['notes'][name]}")
                _print_failures(result)
                correct = correct and not result["unexpected"]
                attempted += result["attempted"]
                failed += result["failed"]
                prefix = f"{workload}." if len(names) > 1 else ""
                for name, unit in end_to_end.items():
                    line[prefix + name] = {"value": result["values"][name], "unit": unit}
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": line}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
