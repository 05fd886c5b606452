"""Repeat the benchmark over several seeds and summarise each end-to-end metric.

    python3 perfbench/seeds.py --workloads catalog,torus --seeds 0-9 --seconds 20 \
        [--out perfbench/out/seeds.json]

For every workload and metric it prints the median over the seeds and the
quartile spread, (Q3 - Q1) / median with Q1 and Q3 from
``statistics.quantiles(values, n=4)``, next to the metric's bound in
``BENCHMARK.json``.  A benchmark is steady when each spread but that of
``setup_s`` stays well inside its bound.  Runs go one after another, never
side by side, so that they do not slow each other.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", required=True, help="comma-separated names")
    parser.add_argument("--seeds", required=True, help="a range like 0-9 or a list like 1,4,7")
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--out", help="write the values and the summary here as JSON")
    args = parser.parse_args(argv)
    bounds = {
        m["name"]: m["bound"]
        for m in json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["end_to_end"]
    }
    report = {}
    for workload in args.workloads.split(","):
        values: dict[str, list[float]] = {}
        failed: list[float] = []
        for seed in _seeds(args.seeds):
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"],
                cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True,
            )
            line = json.loads(proc.stdout.strip().splitlines()[-1])
            if not line["correct"]:
                print(proc.stdout, end="")
                raise SystemExit(f"{workload} seed {seed}: output check failed")
            for name, metric in line["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
            failed.append(line["failed"] / line["attempted"])
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{n} {m['value']:.4g}" for n, m in line["metrics"].items())
                + f", failed_frac {failed[-1]:.3g}", flush=True)
        summary = {}
        for name, vals in values.items():
            q1, _, q3 = statistics.quantiles(vals, n=4)
            median = statistics.median(vals)
            summary[name] = {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median}
            print(f"  {workload:10s} {name:12s} median {median:10.5g}  spread "
                  f"{summary[name]['spread']:.3f}  bound {bounds[name]}")
        report[workload] = {"values": values, "summary": summary, "failed_frac": failed}
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
