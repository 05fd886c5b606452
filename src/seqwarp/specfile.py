"""Manifold spec files: the JSON surface of the verification CLI.

A spec file declares factor charts (coordinates, metric entry strings,
optional periods), the two warping expressions, a sampling plan (boxes,
point count, seed), optional tolerance overrides, and optionally planted
rank-one decomposition parameters.  ``load_spec`` validates everything up
front and reports failures with a field path, so a bad file never reaches
the geometry layer.

Schema sketch::

    {
      "kind": "swp" | "ssst" | "grw",
      "factors": [
        {"name": "...", "coords": ["x", ...],
         "metric": [["expr", ...], ...],
         "dim": 2,                      # optional, checked against coords
         "periodic": {"x": 6.2831}},    # optional periods
        ...                             # 3 factors for swp, 2 otherwise
      ],
      "warpings": {"f": "expr", "h": "expr"},
      "time": {"coord": "t", "interval": [lo, hi]},   # ssst / grw only
      "sampling": {"points": 30, "seed": 0, "boxes": {"x": [lo, hi], ...}},
      "tolerances": {"oracle": 1e-7, ...},            # optional overrides
      "planted": {"alpha": 1.0, "beta": -1.0, "u": {"w": 1.0}}  # optional
    }

Every ``planted`` value is a finite number; a bool is not a number.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .chart import FactorManifold, GeometryError
from .classify import DEFAULT_FIT_TOL, TORUS_TOL
from .expressions import Expr, ExpressionError, parse
from .spacetime import D3_TOL, GRWSpec, SSSTSpec, build_grw, build_ssst
from .warped import SequentialWarpedProduct

__all__ = [
    "DEFAULT_TOLERANCES",
    "ManifoldSpec",
    "SpecError",
    "check_run_parameter",
    "load_spec",
    "spec_from_dict",
]

KINDS = ("swp", "ssst", "grw")
DEFAULT_POINTS = 30
DEFAULT_SEED = 0
DEFAULT_BOX = (-1.0, 1.0)
DEFAULT_TOLERANCES = {
    "oracle": 1e-7,  # closed form vs chart oracle, normalized by max-abs + 1
    "symmetry": 1e-9,  # curvature symmetries and first Bianchi, normalized
    "bianchi": 1e-7,  # contracted Bianchi and Hessian divergence, normalized
    "cross_ricci": 1e-10,  # off-block ambient Ricci entries, absolute
    "reduction": 1e-12,  # constant-warping block reduction, absolute
    "fit": DEFAULT_FIT_TOL,  # structure fits and derived factor identities
    "torus": TORUS_TOL,  # torus-averaged field identities
    "d3": D3_TOL,  # time-time curvature identity of the static form
}


class SpecError(ValueError):
    """Invalid spec file; the message starts with the offending field path,
    if there is one."""

    def __init__(self, path: str, message: str):
        super().__init__(f"{path}: {message}" if path else message)
        self.path = path


@dataclass(frozen=True)
class ManifoldSpec:
    """A validated spec: the assembled product plus the sampling plan."""

    name: str
    kind: str
    product: SequentialWarpedProduct
    boxes: dict[str, tuple[float, float]]
    points: int
    seed: int
    tolerances: dict[str, float]
    planted: tuple[float, float, np.ndarray] | None
    digest: str

    def sample_points(self, count: int | None = None, seed: int | None = None) -> np.ndarray:
        from .chart import sample_box

        rng = np.random.default_rng(self.seed if seed is None else seed)
        n = self.points if count is None else count
        return sample_box(self.boxes, self.product.coords, n, rng)

    def center_point(self) -> np.ndarray:
        return np.array(
            [0.5 * (self.boxes[c][0] + self.boxes[c][1]) for c in self.product.coords]
        )


def check_run_parameter(name: str, value, path: str):
    """``value`` as the run parameter ``name``, or ``SpecError(path)``.

    ``points`` is a positive integer and ``seed`` a non-negative one;
    ``tolerances.<key>`` names a key of ``DEFAULT_TOLERANCES`` and takes a
    positive finite number.  Spec files, ``--tol`` and ``run_verify`` all
    check their run parameters here; a bool is not a number.
    """
    group, _, key = name.partition(".")
    if group == "tolerances":
        if key not in DEFAULT_TOLERANCES:
            known = ", ".join(sorted(DEFAULT_TOLERANCES))
            raise SpecError(path, f"unknown tolerance {key!r}; expected one of {known}")
        if not _finite_number(value) or value <= 0:
            raise SpecError(path, f"expected a positive finite number, got {value!r}")
        return float(value)
    least = 1 if name == "points" else 0
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < least:
        kind = "positive" if least else "non-negative"
        raise SpecError(path, f"expected a {kind} integer, got {value!r}")
    return int(value)


def _expect(data: dict, key: str, kind, path: str, default=None, required: bool = False):
    if key not in data:
        if required:
            raise SpecError(f"{path}.{key}" if path else key, "missing required field")
        return default
    value = data[key]
    if kind is not None and (not isinstance(value, kind) or kind is int and isinstance(value, bool)):
        raise SpecError(f"{path}.{key}" if path else key, f"expected {kind.__name__}")
    return value


def _parse_expr(text, coords, path: str) -> Expr:
    if not isinstance(text, str):
        raise SpecError(path, "expected an expression string")
    try:
        return parse(text, coords)
    except ExpressionError as exc:
        raise SpecError(path, str(exc)) from exc


def _parse_factor(data, index: int) -> FactorManifold:
    path = f"factors[{index}]"
    if not isinstance(data, dict):
        raise SpecError(path, "expected an object")
    name = _expect(data, "name", str, path, default=f"factor{index + 1}")
    coords = _expect(data, "coords", list, path, required=True)
    if not coords or not all(isinstance(c, str) for c in coords):
        raise SpecError(f"{path}.coords", "expected a non-empty list of names")
    if len(set(coords)) != len(coords):
        raise SpecError(f"{path}.coords", "duplicate coordinate name")
    dim = _expect(data, "dim", int, path)
    if dim is not None and dim != len(coords):
        raise SpecError(f"{path}.dim", f"dim {dim} does not match {len(coords)} coordinates")
    matrix = _expect(data, "metric", list, path, required=True)
    m = len(coords)
    if len(matrix) != m or any(not isinstance(row, list) or len(row) != m for row in matrix):
        raise SpecError(f"{path}.metric", f"expected a {m}x{m} matrix of expression strings")
    entries = []
    for i, row in enumerate(matrix):
        parsed_row = []
        for j, cell in enumerate(row):
            parsed_row.append(_parse_expr(cell, coords, f"{path}.metric[{i}][{j}]"))
        entries.append(tuple(parsed_row))
    periods = None
    periodic = _expect(data, "periodic", dict, path)
    if periodic:
        for cname, period in periodic.items():
            where = f"{path}.periodic.{cname}"
            if cname not in coords:
                raise SpecError(where, "not a coordinate of this factor")
            if not _finite_number(period):
                raise SpecError(where, f"expected a positive finite number, got {period!r}")
            if period <= 0:
                raise SpecError(where, "period must be positive")
        periods = tuple(float(periodic[c]) if c in periodic else None for c in coords)
    try:
        return FactorManifold(
            name=name,
            coords=tuple(coords),
            metric=tuple(entries),
            signature="riemannian",
            periods=periods,
        )
    except GeometryError as exc:
        raise SpecError(path, str(exc)) from exc


def _finite_number(value) -> bool:
    """Whether ``value`` is a number within the float range; a bool is not a number."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:  # an integer beyond the float range
        return False


def _planted_number(data: dict, key: str, path: str = "planted") -> float:
    """``data[key]`` as a finite float, or ``SpecError`` naming ``path.key``."""
    value = _expect(data, key, None, path, required=True)
    if not _finite_number(value):
        raise SpecError(f"{path}.{key}", f"expected a finite number, got {value!r}")
    return float(value)


def _parse_time(data: dict) -> tuple[str, tuple[float, float]]:
    block = _expect(data, "time", dict, "", required=True)
    coord = _expect(block, "coord", str, "time", default="t")
    interval = _expect(block, "interval", list, "time", default=[-1.0, 1.0])
    if len(interval) != 2 or not all(_finite_number(v) for v in interval):
        raise SpecError("time.interval", "expected [lo, hi] of finite numbers")
    lo, hi = float(interval[0]), float(interval[1])
    if not lo < hi:
        raise SpecError("time.interval", "expected lo < hi")
    return coord, _finite_span(lo, hi, "time.interval")


def _finite_span(lo: float, hi: float, path: str) -> tuple[float, float]:
    """``(lo, hi)``, or ``SpecError(path)`` when its width or midpoint
    overflows: sampling reads ``hi - lo`` and ``lo + hi``."""
    if not (math.isfinite(hi - lo) and math.isfinite(lo + hi)):
        raise SpecError(path, "hi - lo or lo + hi overflows the float range")
    return lo, hi


def spec_from_dict(data: dict, name: str = "spec") -> ManifoldSpec:
    """Validate a spec dictionary and assemble the warped product."""
    if not isinstance(data, dict):
        raise SpecError("", "spec must be a JSON object")
    kind = _expect(data, "kind", str, "", required=True)
    if kind not in KINDS:
        raise SpecError("kind", f"expected one of {KINDS}, got {kind!r}")

    raw_factors = _expect(data, "factors", list, "", required=True)
    expected = 3 if kind == "swp" else 2
    if len(raw_factors) != expected:
        raise SpecError("factors", f"kind {kind!r} needs exactly {expected} factors")
    factors = [_parse_factor(f, i) for i, f in enumerate(raw_factors)]

    warpings = _expect(data, "warpings", dict, "", required=True)
    f_text = _expect(warpings, "f", str, "warpings", required=True)
    h_text = _expect(warpings, "h", str, "warpings", required=True)

    time_box = {}
    f_coords, h_coords = factors[0].coords, factors[0].coords + factors[1].coords
    if kind != "swp":
        tcoord, interval = _parse_time(data)
        time_box = {tcoord: interval}
        if kind == "grw":
            f_coords, h_coords = (tcoord,), (tcoord,) + factors[0].coords
    f_expr = _parse_expr(f_text, f_coords, "warpings.f")
    h_expr = _parse_expr(h_text, h_coords, "warpings.h")
    try:
        if kind == "swp":
            product = SequentialWarpedProduct(*factors, f=f_expr, h=h_expr)
        elif kind == "ssst":
            product = build_ssst(SSSTSpec(*factors, f=f_expr, h=h_expr, time_coord=tcoord))
        else:
            product = build_grw(GRWSpec(*factors, f=f_expr, h=h_expr, time_coord=tcoord))
    except GeometryError as exc:
        raise SpecError("factors", str(exc)) from exc

    sampling = _expect(data, "sampling", dict, "", default={})
    points = check_run_parameter(
        "points", sampling.get("points", DEFAULT_POINTS), "sampling.points"
    )
    seed = check_run_parameter("seed", sampling.get("seed", DEFAULT_SEED), "sampling.seed")
    raw_boxes = _expect(sampling, "boxes", dict, "sampling", default={})
    boxes: dict[str, tuple[float, float]] = {}
    for cname in product.coords:
        if cname in raw_boxes:
            box = raw_boxes[cname]
            if (
                not isinstance(box, list)
                or len(box) != 2
                or not all(_finite_number(v) for v in box)
                or not box[0] < box[1]
            ):
                raise SpecError(
                    f"sampling.boxes.{cname}", "expected [lo, hi] of finite numbers with lo < hi"
                )
            boxes[cname] = _finite_span(float(box[0]), float(box[1]), f"sampling.boxes.{cname}")
        elif cname in time_box:
            boxes[cname] = time_box[cname]
        else:
            boxes[cname] = DEFAULT_BOX
    for cname in raw_boxes:
        if cname not in product.coords:
            raise SpecError(f"sampling.boxes.{cname}", "not a coordinate of any factor")

    raw_tol = _expect(data, "tolerances", dict, "", default={})
    tolerances = {
        key: check_run_parameter(f"tolerances.{key}", value, f"tolerances.{key}")
        for key, value in raw_tol.items()
    }

    planted = None
    raw_planted = _expect(data, "planted", dict, "", default=None)
    if raw_planted is not None:
        alpha = _planted_number(raw_planted, "alpha")
        beta = _planted_number(raw_planted, "beta")
        u_map = _expect(raw_planted, "u", dict, "planted", default={})
        u = np.zeros(product.dim)
        for cname in u_map:
            if cname not in product.coords:
                raise SpecError(f"planted.u.{cname}", "not a coordinate of any factor")
            u[product.coords.index(cname)] = _planted_number(u_map, cname, "planted.u")
        planted = (alpha, beta, u)

    digest = hashlib.sha256(
        json.dumps(data, sort_keys=True, separators=(",", ":")).encode()
    ).hexdigest()

    return ManifoldSpec(
        name=name,
        kind=kind,
        product=product,
        boxes=boxes,
        points=points,
        seed=seed,
        tolerances=tolerances,
        planted=planted,
        digest=digest,
    )


def load_spec(path) -> ManifoldSpec:
    """Load and validate a spec file (UTF-8 JSON)."""
    p = Path(path)
    try:
        text = p.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise SpecError("", f"cannot read {p}: {exc}") from exc
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SpecError("", f"invalid JSON: {exc}") from exc
    return spec_from_dict(data, name=p.stem)
