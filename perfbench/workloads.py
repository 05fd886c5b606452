"""Inputs and ops of the seqwarp benchmark workloads.

Importing this module imports ``seqwarp``; the worker times that import as
part of set-up.  ``build(workload, seed)`` returns the ops of one pass.  The
same seed always yields the same ops, and a pass repeated in one process
must reproduce every output byte for byte.

Every op calls the package through the ``seqwarp`` namespace, so the tracer
sees the calls it wraps there.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import seqwarp

CATALOG_DIR = Path(seqwarp.__file__).resolve().parent / "catalog"

# The verdict every input of these workloads should get: each is a valid
# metric, so the whole identity suite must pass.  Inputs listed here fail at
# the seed because of a documented program defect (ROADMAP open item 1: the
# closed-form Ricci drops the M1-M2 cross block when h mixes both factors).
# They still count as failed ops; only a failure outside this list makes the
# run incorrect.
KNOWN_DEFECTS = {
    "generic_outer_warp": frozenset({"oracle_lemma3_ricci", "ricci_cross_blocks"}),
}

# Flat lines with a warping h that mixes the first two factors, so the
# mixed Hessian of h does not cancel.
GENERIC_SPEC = {
    "kind": "swp",
    "factors": [
        {"name": "line_x", "coords": ["x"], "metric": [["1"]]},
        {"name": "line_u", "coords": ["u"], "metric": [["1"]]},
        {"name": "line_w", "coords": ["w"], "metric": [["1"]]},
    ],
    "warpings": {"f": "exp(0.3*x)", "h": "2 + sin(x)*cos(u)"},
    "sampling": {"points": 30},
}

TWO_PI = 6.283185307179586

# Circle x circle with a round-sphere fiber: both base factors are periodic
# and 1 + 1 <= MAX_TORUS_DIM, so run_verify adds both torus averages.
TORUS_SPEC = {
    "kind": "swp",
    "factors": [
        {"name": "circle_x", "coords": ["x"], "metric": [["1"]], "periodic": {"x": TWO_PI}},
        {"name": "circle_u", "coords": ["u"], "metric": [["1"]], "periodic": {"u": TWO_PI}},
        {
            "name": "sphere",
            "coords": ["theta", "phi"],
            "metric": [["1", "0"], ["0", "sin(theta)^2"]],
        },
    ],
    "warpings": {"f": "2 + sin(x)", "h": "(2 + sin(x))*(2 + cos(u))"},
    "sampling": {
        "boxes": {
            "x": [0.0, TWO_PI],
            "u": [0.0, TWO_PI],
            "theta": [0.4, 2.7],
            "phi": [0.15, 6.1],
        }
    },
}
TORUS_POINTS = 4

# dim_sweep: factor dimension k -> sample points per op.  The op count per
# k is fixed so that one pass stays a few seconds at the seed.
SWEEP_POINTS = {2: 3, 3: 2, 4: 1}

CLASSIFY_QUERIES_PER_SPEC = 4


@dataclass(frozen=True)
class Op:
    """One timed call into the package and the check of its output.

    ``run`` is the timed call.  ``check`` turns its result into the output
    text whose bytes must repeat across passes and the gating identities
    that failed (empty when the verdict is the expected pass).  ``points``
    is the number of sample points the op evaluates.
    """

    input_id: str
    run: Callable[[], object]
    check: Callable[[object], tuple[str, list[str]]]
    points: int


def _check_verify(result) -> tuple[str, list[str]]:
    report, text = result
    failing = [r.name for r in report.identities if not r.informational and not r.passed]
    return text, failing


def _verify_op(input_id: str, spec, points: int | None, seed: int) -> Op:
    def run():
        report = seqwarp.run_verify(spec, points=points, seed=seed)
        return report, report.to_json()

    return Op(input_id, run, _check_verify, spec.points if points is None else points)


def _check_classify(result) -> tuple[str, list[str]]:
    return json.dumps(result, sort_keys=True, allow_nan=False), []


def sweep_spec_dict(k: int) -> dict:
    """Three k-dimensional factors with non-diagonal coordinate-dependent metrics.

    Each factor metric is 1.5 + 0.3 sin(c_i)^2 on the diagonal and
    0.1 cos(c_i + c_j) off it, diagonally dominant and so positive definite
    for k <= 4.  ``h = f (2 + sin b0)`` keeps the M1-M2 mixed Hessian of h
    zero, so the verdict does not depend on the defect ``catalog`` covers.
    """

    def block(prefix: str, name: str) -> dict:
        coords = [f"{prefix}{i}" for i in range(k)]
        metric = [
            [
                f"1.5 + 0.3*sin({ci})^2" if i == j else f"0.1*cos({ci} + {cj})"
                for j, cj in enumerate(coords)
            ]
            for i, ci in enumerate(coords)
        ]
        return {"name": name, "coords": coords, "metric": metric}

    return {
        "kind": "swp",
        "factors": [block("a", "base"), block("b", "middle"), block("c", "fiber")],
        "warpings": {"f": "exp(0.3*a0)", "h": "exp(0.3*a0)*(2 + sin(b0))"},
        "sampling": {"points": SWEEP_POINTS[k]},
    }


def catalog_paths() -> list[Path]:
    return sorted(CATALOG_DIR.glob("*.json"))


def _classify_ops(seed: int) -> list[Op]:
    rng = np.random.default_rng(seed)
    ops = []
    for path in catalog_paths():
        spec = seqwarp.load_spec(path)
        coords = spec.product.coords
        lo = np.array([spec.boxes[c][0] for c in coords])
        hi = np.array([spec.boxes[c][1] for c in coords])
        for q in range(CLASSIFY_QUERIES_PER_SPEC):
            point = lo + (hi - lo) * rng.random(len(coords))
            at = {c: float(v) for c, v in zip(coords, point)}

            def run(path=path, at=at):
                return seqwarp.run_classify(seqwarp.load_spec(path), at=at)

            ops.append(Op(f"{path.stem}#{q}", run, _check_classify, 1))
    return ops


def build(workload: str, seed: int) -> list[Op]:
    """Build every spec of ``workload`` and return the ops of one pass."""
    if workload == "catalog":
        ops = [_verify_op(p.stem, seqwarp.load_spec(p), None, seed) for p in catalog_paths()]
        generic = seqwarp.spec_from_dict(GENERIC_SPEC, name="generic_outer_warp")
        ops.append(_verify_op("generic_outer_warp", generic, None, seed))
        return ops
    if workload == "dim_sweep":
        return [
            _verify_op(
                f"sweep_dim{3 * k}",
                seqwarp.spec_from_dict(sweep_spec_dict(k), name=f"sweep_dim{3 * k}"),
                None,
                seed,
            )
            for k in SWEEP_POINTS
        ]
    if workload == "torus":
        spec = seqwarp.spec_from_dict(TORUS_SPEC, name="torus_1p1")
        return [_verify_op("torus_1p1", spec, TORUS_POINTS, seed)]
    if workload == "classify":
        return _classify_ops(seed)
    raise ValueError(f"unknown workload {workload!r}")


def unexpected(input_id: str, failing: list[str]) -> bool:
    """True when a failed verdict is not explained by a documented defect."""
    known = KNOWN_DEFECTS.get(input_id)
    return known is None or not set(failing) <= known
