"""Print one ``name sha256`` line per output of the package, to compare bytes.

Run from a checkout, with the numpy the package needs:

    python3 tools/report_digests.py --seed 0 --seed 4 > digests.txt

The outputs are:

* ``examples run``, ``classify`` and ``verify --points 1`` of every catalog
  spec, and ``verify --points 4`` of ``tests/data/torus_1p1.json`` and of
  ``tests/data/torus_skew.json``, whose inner chart's metric mentions both
  grid coordinates;
* the output text of every op of the four benchmark workloads
  (``perfbench/workloads.py``) at each ``--seed``.

Each command runs in a process of its own, through ``seqwarp.cli.main``, so
its bytes are the CLI's.  It gives two lines: ``<name>.report``, the file
that ``-o`` wrote (``-`` when there is none), and ``<name>.console``, the
exit code, stdout and stderr.  A benchmark op gives one line, the digest of
its output text.

After printing every line, the tool exits 1 when a command exited with
anything but 0, or an op's verdict failed an identity that
``workloads.KNOWN_DEFECTS`` does not name for it; each such output is named
on stderr.  An exception an op raises ends the tool with its traceback, so
under ``PYTHONWARNINGS=error::RuntimeWarning`` a numpy warning does too.

The package and the benchmark are imported from this checkout's ``src`` and
``perfbench``, or from those of ``--root CHECKOUT``; the spec files of
``tests/data`` are always this checkout's, so that an older checkout runs
the same specs.  Two checkouts, or one checkout under two values of
``PYTHONHASHSEED``, print the same lines exactly where their outputs are
the same bytes; ``diff`` names the rest.  ``--dump DIR`` also writes each output's bytes to ``DIR/<name>``;
``tools/report_diff.py`` reads those to print the fields that moved.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

MAIN = "import sys; from seqwarp.cli import main; sys.exit(main(sys.argv[1:]))"


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _cli(
    name: str, argv: list[str], root: Path, tmp: Path, problems: list[str]
) -> list[tuple[str, bytes | None]]:
    """The report and console outputs of ``seqwarp <argv> -o <file>``, run in
    a new process on the package of ``root``; the report is None when no file
    was written, and an exit code other than 0 is added to ``problems``."""
    report = tmp / f"{name.replace('/', '.')}.json"
    path = os.pathsep.join(filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")]))
    run = subprocess.run(
        [sys.executable, "-c", MAIN, *argv, "-o", str(report)],
        capture_output=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    if run.returncode != 0:
        problems.append(f"{name}: exit {run.returncode}\n{run.stderr.decode(errors='replace')}")
    console = b"exit %d\n%b\0%b" % (run.returncode, run.stdout, run.stderr)
    written = report.read_bytes() if report.exists() else None
    return [(f"{name}.report", written), (f"{name}.console", console)]


def cli_outputs(root: Path, tmp: Path, problems: list[str]) -> list[tuple[str, bytes | None]]:
    from seqwarp.cli import catalog_names, catalog_path

    outputs = []
    for name in catalog_names():
        path = str(catalog_path(name))
        outputs += _cli(f"examples_run/{name}", ["examples", "run", name], root, tmp, problems)
        outputs += _cli(f"classify/{name}", ["classify", path], root, tmp, problems)
        outputs += _cli(
            f"verify_points_1/{name}", ["verify", path, "--points", "1"], root, tmp, problems
        )
    for torus in ("torus_1p1", "torus_skew"):
        path = str(ROOT / "tests" / "data" / f"{torus}.json")
        outputs += _cli(
            f"verify_points_4/{torus}", ["verify", path, "--points", "4"], root, tmp, problems
        )
    return outputs


def benchmark_outputs(seed: int, problems: list[str]) -> list[tuple[str, bytes]]:
    import workloads

    outputs = []
    for workload in ("catalog", "dim_sweep", "torus", "classify"):
        for op in workloads.build(workload, seed):
            name = f"bench/{workload}/seed{seed}/{op.input_id}"
            text, failing = op.check(op.run())
            if failing and workloads.unexpected(op.input_id, failing):
                problems.append(f"{name}: fails {', '.join(failing)}")
            outputs.append((name, text.encode()))
    return outputs


def main_digests(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--seed", type=int, action="append", default=[], help="benchmark seed (repeatable)"
    )
    parser.add_argument(
        "--root", type=Path, default=ROOT, help="checkout whose package runs (default: this one)"
    )
    parser.add_argument("--dump", type=Path, help="also write each output's bytes under DIR")
    args = parser.parse_args(argv)
    root = args.root.resolve()
    sys.path[:0] = [str(root / "src"), str(root / "perfbench")]
    problems: list[str] = []
    with tempfile.TemporaryDirectory() as tmp:
        outputs = cli_outputs(root, Path(tmp), problems)
    for seed in args.seed:
        outputs += benchmark_outputs(seed, problems)
    print("\n".join(f"{name} {'-' if data is None else _sha(data)}" for name, data in outputs))
    for name, data in outputs if args.dump else ():
        if data is not None:
            (args.dump / name).parent.mkdir(parents=True, exist_ok=True)
            (args.dump / name).write_bytes(data)
    for problem in problems:
        print(f"report_digests: {problem}", file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main_digests())
