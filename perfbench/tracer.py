"""Run-time span tracer over seqwarp's public layers.

``Tracer.install()`` replaces the functions, methods and cached properties
named in ``SPANS`` with timing wrappers, everywhere the original object is
bound in a loaded ``seqwarp`` module (``fit_quasi_einstein`` is bound in
``classify``, ``verify``, ``spacetime`` and the package itself).
``uninstall()`` puts every original back.  Nothing under ``src/`` changes.

A span records its op id, name, parent span and start/end time.  Self time
is a span's duration minus the durations of its direct children.  A cached
property is wrapped through its ``func``, so only the first, computing
access of each instance opens a span.  A span whose innermost open span has
the same name (a recursive ``differentiate``, ``laplacian`` calling
``hessian`` inside the ``chart.field`` group) is folded into that span.

Counters are kept per op beside the spans: frames built, order-1 jet calls,
and ``numpy.einsum`` calls charged to the layer of the innermost open span.
Einsum is counted, not timed, so kernel time stays in the stage's self time.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter, defaultdict
from functools import cached_property

import numpy as np

LAYERS = ("specfile", "expressions", "jets", "chart", "warped", "classify", "spacetime", "verify")

_FIELD_METHODS = (
    "field_jets", "gradient", "hessian", "laplacian", "grad_norm2",
    "dhessian", "grad_laplacian", "div_hessian", "div_sym2",
)
_WARPING_PROPERTIES = (
    "f_value", "h_value", "df", "grad_f", "hess_f", "lap_f", "grad_f_norm2",
    "dh", "grad_h", "hess_h", "lap_h", "grad_h_norm2", "raised_hess_f", "raised_hess_h",
)
_CHART_STAGES = (
    "d3metric", "inverse", "dinverse", "d2inverse", "christoffel", "dchristoffel",
    "d2christoffel", "riemann_up", "riemann", "ricci", "scalar", "driemann_up",
    "dricci", "dscalar", "div_ricci",
)
_CLASSIFY_FUNCTIONS = (
    "fit_quasi_einstein", "check_quasi_constant_curvature", "proposition1_residuals",
    "lambda_at", "nu_at", "torus_average_identity", "condition_residuals",
    "theorem2_conditions",
)

# (span name, defining module, attribute path).  Several targets may share a
# span name; they then form one group span.
SPANS = (
    [
        ("specfile.spec_from_dict", "seqwarp.specfile", "spec_from_dict"),
        ("specfile.load_spec", "seqwarp.specfile", "load_spec"),
        ("expressions.parse", "seqwarp.expressions", "parse"),
        ("expressions.differentiate", "seqwarp.expressions", "differentiate"),
        ("jets.eval_jet", "seqwarp.jets", "eval_jet"),
        # metric, dmetric and d2metric all read the one order-2 jet sweep
        ("chart.metric", "seqwarp.chart", "ChartFrame._metric_jets"),
    ]
    + [(f"chart.{s}", "seqwarp.chart", f"ChartFrame.{s}") for s in _CHART_STAGES]
    + [("chart.field", "seqwarp.chart", f"ChartFrame.{m}") for m in _FIELD_METHODS]
    + [
        ("chart.validate_factor_at", "seqwarp.chart", "validate_factor_at"),
        ("chart.symmetry_residuals", "seqwarp.chart", "symmetry_residuals"),
        ("warped.inner_chart", "seqwarp.warped", "inner_chart"),
        ("warped.connection", "seqwarp.warped", "WarpedFrame.connection"),
        ("warped.curvature", "seqwarp.warped", "WarpedFrame.curvature"),
        ("warped.ricci", "seqwarp.warped", "WarpedFrame.ricci"),
        ("warped.scalar", "seqwarp.warped", "WarpedFrame.scalar"),
        ("warped.factor_scalars", "seqwarp.warped", "WarpedFrame.factor_scalars"),
    ]
    + [("warped.warping", "seqwarp.warped", f"WarpedFrame.{p}") for p in _WARPING_PROPERTIES]
    + [(f"classify.{f}", "seqwarp.classify", f) for f in _CLASSIFY_FUNCTIONS]
    + [
        ("spacetime.ssst_theorem_check", "seqwarp.spacetime", "ssst_theorem_check"),
        ("spacetime.grw_theorem_check", "seqwarp.spacetime", "grw_theorem_check"),
        ("verify.run_verify", "seqwarp.verify", "run_verify"),
        ("verify.run_classify", "seqwarp.verify", "run_classify"),
        ("verify.to_json", "seqwarp.verify", "VerificationReport.to_json"),
    ]
)

SPAN_NAMES = tuple(dict.fromkeys(name for name, _, _ in SPANS))

# (counter name, defining module, class whose constructions are counted)
FRAME_COUNTERS = (
    ("chart.frames_built", "seqwarp.chart", "ChartFrame"),
    ("warped.frames_built", "seqwarp.warped", "WarpedFrame"),
)


class Tracer:
    """Spans and counters of one process, kept in memory until written out."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        # one tuple (op, name id, parent index, start ns, end ns) per span
        self.spans: list[tuple[int, int, int, int, int] | None] = []
        self.counts: dict[int, Counter] = defaultdict(Counter)
        self.op = 0
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    # -- spans -------------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _wrap(self, name: str, fn):
        name_id = self._name_id(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if stack and spans[stack[-1]] == name_id:
                return fn(*args, **kwargs)
            index = len(spans)
            # the slot holds the name id while the span is open
            spans.append(name_id)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (self.op, name_id, parent, start, end)

        return wrapper

    def _layer(self) -> str:
        if not self._stack:
            return "bench"
        return self.names[self.spans[self._stack[-1]]].split(".", 1)[0]

    # -- installing ----------------------------------------------------------

    def _set(self, owner, attr: str, value) -> None:
        # a class keeps its own descriptor (the cached_property itself), not
        # what attribute access on the class would return
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._restore.append((owner, attr, original))
        setattr(owner, attr, value)

    def _patch_function(self, module, attr: str, wrapper) -> None:
        original = getattr(module, attr)
        for mod in [m for n, m in sys.modules.items() if n == "seqwarp" or n.startswith("seqwarp.")]:
            for bound, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, bound, wrapper)

    def install(self) -> None:
        """Wrap every target in ``SPANS``, the frame constructors and ``numpy.einsum``."""
        if self._restore:
            raise RuntimeError("tracer already installed")
        for name, module_name, path in SPANS:
            module = sys.modules[module_name]
            if "." not in path:
                fn = getattr(module, path)
                if name == "jets.eval_jet":
                    fn = self._count_order1(fn)
                self._patch_function(module, path, self._wrap(name, fn))
                continue
            cls_name, attr = path.split(".")
            cls = getattr(module, cls_name)
            member = cls.__dict__[attr]
            if isinstance(member, cached_property):
                prop = cached_property(self._wrap(name, member.func))
                prop.__set_name__(cls, attr)
                self._set(cls, attr, prop)
            else:
                self._set(cls, attr, self._wrap(name, member))
        for counter, module_name, cls_name in FRAME_COUNTERS:
            cls = getattr(sys.modules[module_name], cls_name)
            self._set(cls, "__init__", self._count_calls(counter, cls.__dict__["__init__"]))
        einsum = np.einsum

        @functools.wraps(einsum)
        def counted_einsum(*args, **kwargs):
            self.counts[self.op][self._layer() + ".einsum.calls"] += 1
            return einsum(*args, **kwargs)

        self._set(np, "einsum", counted_einsum)

    def _count_calls(self, counter: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counts[self.op][counter] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _count_order1(self, eval_jet):
        @functools.wraps(eval_jet)
        def wrapper(e, point, order, *args, **kwargs):
            if order == 1:
                self.counts[self.op]["jets.eval_jet.order1.calls"] += 1
            return eval_jet(e, point, order, *args, **kwargs)

        return wrapper

    def uninstall(self) -> None:
        """Put back every attribute ``install`` replaced, newest first."""
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    # -- results ---------------------------------------------------------------

    def per_op(self) -> dict[int, dict[str, list[float]]]:
        """Per op: span name -> [calls, total self seconds, total seconds of top-level spans]."""
        if self._stack:
            raise RuntimeError("spans still open")
        self_ns = [s[4] - s[3] for s in self.spans]
        for s in self.spans:
            if s[2] >= 0:
                self_ns[s[2]] -= s[4] - s[3]
        out: dict[int, dict[str, list[float]]] = defaultdict(dict)
        for s, own in zip(self.spans, self_ns):
            row = out[s[0]].setdefault(self.names[s[1]], [0, 0.0, 0.0])
            row[0] += 1
            row[1] += own * 1e-9
            if s[2] < 0:
                row[2] += (s[4] - s[3]) * 1e-9
        return out

    def write(self, path) -> None:
        """Write every span as arrays (op, name, parent, start_ns, end_ns) plus the name table."""
        table = np.array(self.spans, dtype=np.int64).reshape(-1, 5)
        np.savez_compressed(
            path,
            op=table[:, 0], name=table[:, 1], parent=table[:, 2],
            start_ns=table[:, 3], end_ns=table[:, 4], names=np.array(self.names),
        )
