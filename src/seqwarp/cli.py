"""Command-line interface.

Subcommands::

    seqwarp verify SPEC [--points N] [--seed S] [--tol KEY=VALUE ...] [-o OUT]
    seqwarp classify SPEC [--at coord=value,...] [-o OUT]
    seqwarp examples list
    seqwarp examples run NAME [verify options]
    seqwarp examples run-all [verify options]

Exit codes: 0 when every gating identity passes, 1 on an identity
failure, 2 on input problems (bad schema, degenerate metric, unknown
example).  The JSON report is deterministic for a fixed spec and seed.
"""

from __future__ import annotations

import argparse
import sys
from importlib import resources
from pathlib import Path

from .specfile import ManifoldSpec, SpecError, check_run_parameter, load_spec
from .verify import VerificationInputError, run_classify, run_verify

__all__ = ["main", "catalog_names", "catalog_spec"]


def catalog_names() -> list[str]:
    root = resources.files("seqwarp") / "catalog"
    return sorted(p.name[: -len(".json")] for p in root.iterdir() if p.name.endswith(".json"))


def catalog_path(name: str) -> Path:
    path = resources.files("seqwarp") / "catalog" / f"{name}.json"
    if not path.is_file():
        raise SpecError("", f"unknown example {name!r}; available: {', '.join(catalog_names())}")
    return Path(str(path))


def catalog_spec(name: str) -> ManifoldSpec:
    return load_spec(catalog_path(name))


def _parse_tolerances(pairs: list[str]) -> dict[str, float]:
    out = {}
    for pair in pairs:
        key, sep, value = pair.partition("=")
        if not sep:
            raise SpecError("--tol", f"expected KEY=VALUE, got {pair!r}")
        try:
            number = float(value)
        except ValueError:
            raise SpecError("--tol", f"{value!r} is not a number") from None
        out[key] = check_run_parameter(f"tolerances.{key}", number, "--tol")
    return out


def _parse_at(text: str | None) -> dict[str, float]:
    if not text:
        return {}
    out = {}
    for chunk in text.split(","):
        key, sep, value = chunk.partition("=")
        if not sep:
            raise SpecError("--at", f"expected coord=value, got {chunk!r}")
        try:
            out[key.strip()] = float(value)
        except ValueError:
            raise SpecError("--at", f"{value!r} is not a number") from None
    return out


def _write_report(text: str, out: str | None) -> None:
    if out:
        try:
            Path(out).write_text(text, encoding="utf-8")
        except OSError as exc:
            raise SpecError("--output", f"cannot write {out}: {exc}") from exc


def _verify_one(spec: ManifoldSpec, args) -> int:
    report = run_verify(
        spec,
        points=args.points,
        seed=args.seed,
        tolerances=_parse_tolerances(args.tol),
    )
    print(f"== {spec.name} ({spec.kind}) ==")
    for line in report.summary_lines():
        print(line)
    _write_report(report.to_json(), args.output)
    return 0 if report.overall_pass else 1


def _cmd_verify(args) -> int:
    return _verify_one(load_spec(args.spec), args)


def _cmd_classify(args) -> int:
    spec = load_spec(args.spec)
    result = run_classify(spec, _parse_at(args.at))
    point = ", ".join(f"{k}={v:g}" for k, v in result["point"].items())
    print(f"== {spec.name} at ({point}) ==")
    qe = result["ambient"]["quasi_einstein"]
    qcc = result["ambient"]["quasi_constant_curvature"]
    print(
        f"ambient: verdict={qe['verdict']}  alpha={_fmt(qe['alpha'])}  "
        f"beta={_fmt(qe['beta'])}  |A|={_fmt(qe['A_norm'])}  residual={_fmt(qe['residual'])}"
    )
    print(
        f"ambient curvature ansatz: passed={qcc['passed']}  a={_fmt(qcc['a'])}  "
        f"b={_fmt(qcc['b'])}  residual={_fmt(qcc['residual'])}"
    )
    for label in ("m1", "m2", "m3"):
        fit = result["factors"][label]
        print(
            f"{label} ({fit['manifold']}): verdict={fit['verdict']}  "
            f"alpha={_fmt(fit['alpha'])}  beta={_fmt(fit['beta'])}"
        )
    import json

    _write_report(json.dumps(result, indent=2) + "\n", args.output)
    return 0


def _fmt(value) -> str:
    return "n/a" if value is None else f"{value:.6g}"


def _cmd_examples(args) -> int:
    if args.action == "list":
        for name in catalog_names():
            print(name)
        return 0
    if args.action == "run":
        if not args.name:
            raise SpecError("examples run", "missing example name")
        return _verify_one(catalog_spec(args.name), args)
    # run-all
    worst = 0
    for name in catalog_names():
        code = _verify_one(catalog_spec(name), args)
        worst = max(worst, code)
        print()
    return worst


def _add_verify_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--points", type=int, default=None, help="sample-point count")
    parser.add_argument("--seed", type=int, default=None, help="sampling seed")
    parser.add_argument(
        "--tol",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="tolerance override (repeatable)",
    )
    parser.add_argument("-o", "--output", default=None, help="write the JSON report here")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="seqwarp",
        description="verify and classify sequential warped product metrics",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="run the identity suite over a spec file")
    p_verify.add_argument("spec", help="path to a spec JSON file")
    _add_verify_options(p_verify)
    p_verify.set_defaults(func=_cmd_verify)

    p_classify = sub.add_parser("classify", help="structure fits at one point")
    p_classify.add_argument("spec", help="path to a spec JSON file")
    p_classify.add_argument("--at", default=None, metavar="coord=value,...")
    p_classify.add_argument("-o", "--output", default=None)
    p_classify.set_defaults(func=_cmd_classify)

    p_examples = sub.add_parser("examples", help="bundled example catalog")
    p_examples.add_argument("action", choices=["list", "run", "run-all"])
    p_examples.add_argument("name", nargs="?", default=None)
    _add_verify_options(p_examples)
    p_examples.set_defaults(func=_cmd_examples)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (SpecError, VerificationInputError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
