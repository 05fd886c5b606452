"""Identity-suite orchestration: run every check, emit one report.

``run_verify`` samples deterministic points from the spec's boxes,
validates the metric there, and then runs the checks of ``CHECKS`` in
order: closed-form vs oracle equivalence for the connection, curvature,
Ricci, and scalar; curvature symmetries and the contracted Bianchi
identity; cross-block Ricci vanishing; the constant-warping reduction; the
divergence-of-Hessian identity; pointwise structure fits with the factor
identities they imply; torus-averaged field identities on periodic
factors; the differential conditions and rigidity hypotheses; and the
spacetime conditions for the Lorentzian kinds.

Every check reads one context: the ``(N, d)`` stack of sample points, one
``WarpedFrame`` and one flat ``ChartFrame`` over it (see
:mod:`seqwarp.chart`), both structure fits of every sample and the fields
derived from them.  A check returns a ``Residual`` (one residual per
sample, see :mod:`seqwarp.classify`) for each identity checked sample by
sample, and an ``IdentityReport`` for one that is a single number over
the stack.  One reducer, ``_reduce``, turns each ``Residual`` into its
report: the worst residual over the samples it covers, or the worst
residual/tolerance ratio where a premise held; a residual that is not
finite there is an input error naming the first such sample.  So a report
holds one object per identity, whatever N is.  ``run_classify`` reads
the same context at one sample, its point, and adds the fits of the
factor metrics there.

The report is a plain dict rendered to JSON with stable ordering and no
timestamps, so identical spec + seed gives byte-identical output.  The
overall verdict ignores informational entries (hypothesis evaluators,
notes); every gating identity must pass.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import __version__
from .chart import (
    ChartFrame,
    GeometryError,
    matvec,
    max_abs,
    symmetry_residuals,
)
from .classify import (
    FIT_OVERFLOW,
    FitInputError,
    IdentityReport,
    QCCFit,
    QEFit,
    Residual,
    check_quasi_constant_curvature,
    condition_residuals,
    fit_quasi_einstein,
    lambda_at,
    nu_at,
    proposition1_residuals,
    theorem2_conditions,
    torus_average_identity,
)
from .expressions import DomainError, free_variables
from .spacetime import grw_theorem_check, ssst_theorem_check
from .specfile import DEFAULT_TOLERANCES, ManifoldSpec, check_run_parameter
from .warped import WarpedFrame, flatten_to_chart

__all__ = [
    "DEFAULT_TOLERANCES",
    "VerificationInputError",
    "VerificationReport",
    "run_verify",
    "run_classify",
]

TORUS_NODES = 128
MAX_TORUS_DIM = 2


class VerificationInputError(Exception):
    """Bad input (schema, domain, degeneracy): the exit-code-2 family."""


@dataclass(frozen=True)
class VerificationReport:
    spec_name: str
    kind: str
    digest: str
    points: int
    seed: int
    tolerances: dict
    identities: list[IdentityReport]
    fits: dict
    convention_notes: list[str]
    overall_pass: bool

    def to_dict(self) -> dict:
        return {
            "tool": "seqwarp",
            "version": __version__,
            "spec": {
                "name": self.spec_name,
                "kind": self.kind,
                "digest": self.digest,
                "points": self.points,
                "seed": self.seed,
            },
            "tolerances": {k: self.tolerances[k] for k in sorted(self.tolerances)},
            "identities": [r.to_dict() for r in self.identities],
            "fits": self.fits,
            "convention_notes": self.convention_notes,
            "overall_pass": self.overall_pass,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, allow_nan=False) + "\n"

    def summary_lines(self) -> list[str]:
        lines = []
        for rep in self.identities:
            status = "PASS" if rep.passed else "FAIL"
            tag = " (info)" if rep.informational else ""
            lines.append(
                f"{status:4s}  {rep.name:32s} residual {rep.max_residual:.3e}"
                f"  tol {rep.tolerance:.1e}{tag}"
            )
        lines.append(f"overall: {'PASS' if self.overall_pass else 'FAIL'}")
        return lines


def _stats(values) -> dict:
    vals = [float(v) for v in values]
    if not vals:
        return {"count": 0}
    return {
        "count": len(vals),
        "min": min(vals),
        "max": max(vals),
        "mean": sum(vals) / len(vals),
    }


def _qe_summary(fits: list[QEFit]) -> dict:
    verdicts: dict[str, int] = {}
    for fit in fits:
        verdicts[fit.verdict] = verdicts.get(fit.verdict, 0) + 1
    ok = [f for f in fits if f.succeeded]
    return {
        "points": len(fits),
        "verdicts": {k: verdicts[k] for k in sorted(verdicts)},
        "alpha": _stats([f.alpha for f in ok]),
        "beta": _stats([f.beta for f in ok]),
        "max_residual": max((f.residual for f in ok), default=None),
        "unit_signs": sorted({f.unit_sign for f in ok if f.unit_sign is not None}),
    }


def _qcc_summary(fits: list[QCCFit]) -> dict:
    ok = [f for f in fits if f.passed]
    return {
        "points": len(fits),
        "passed": len(ok),
        "a": _stats([f.a for f in ok]),
        "b": _stats([f.b for f in ok]),
        "max_residual": max((f.residual for f in fits), default=None),
    }


def _normalized_gap(closed: np.ndarray, oracle: np.ndarray) -> np.ndarray:
    """max |closed - oracle| per sample, normalized by that sample's 1 + max |oracle|."""
    rank = oracle.ndim - 1
    return max_abs(closed - oracle, rank) / (1.0 + max_abs(oracle, rank))


def _balance_gap(lhs: np.ndarray, *terms: np.ndarray) -> np.ndarray:
    """max |lhs - sum(terms)| per sample, over 1 + that sample's largest |lhs| or |term|."""
    scale = np.max([max_abs(t, 1) for t in (lhs, *terms)], axis=0)
    return max_abs(lhs - sum(terms), 1) / (1.0 + scale)


def _worst(per_sample) -> np.ndarray:
    """The largest of several per-sample residual arrays, at each sample."""
    return np.max(np.stack(list(per_sample)), axis=0)


def _structure_fits(flat: ChartFrame, samples: np.ndarray, tol: float) -> tuple[list, list]:
    """Both fits of the flat stack, all quasi-Einstein ones first; input errors name the sample."""
    try:
        qe_fits = fit_quasi_einstein(flat.metric, flat.ricci, tol)
        return qe_fits, check_quasi_constant_curvature(flat.metric, flat.riemann, qe_fits, tol)
    except FitInputError as exc:
        i = exc.sample
        raise VerificationInputError(f"{exc} at sample {i} {samples[i].tolist()}") from exc


def _check_finite(what: str, values, samples: np.ndarray, cause: str, over=True) -> None:
    """Raise ``VerificationInputError`` naming ``what`` and the first sample
    among ``over`` at which ``values`` is not finite, and ``cause`` as what
    overflows there."""
    bad = ~np.isfinite(values) & over
    if bad.any():
        i = int(np.argmax(bad))
        raise VerificationInputError(
            f"{what} is not finite at sample {i} {samples[i].tolist()}: {cause} overflow there"
        )


def _plain(value):
    """One sample's entry of a per-sample detail, as the report renders it."""
    if isinstance(value, QEFit):
        return value.summary()
    return value.item() if isinstance(value, np.generic) else value


def _reduce(residual: Residual, samples: np.ndarray) -> IdentityReport:
    """The one report of an identity's per-sample residuals (see ``Residual``).

    A residual that is not finite at a covered sample is an input error
    naming the first such sample.
    """
    over = np.ones(len(samples), dtype=bool) if residual.over is None else residual.over
    values, tolerance, details = residual.values, residual.tolerance, dict(residual.details)
    covered = int(over.sum())
    if residual.scaled:
        values, tolerance = values / tolerance, 1.0
        k = int(np.argmax(over))
        details = {key: _plain(value[k]) for key, value in details.items()}
        details.update(points_with_premise=covered, scaled_residual=True)
    _check_finite(f"{residual.name} residual", values, samples, residual.cause, over)
    return IdentityReport.from_residual(
        residual.name,
        float(np.max(values[over])) if covered else 0.0,
        tolerance,
        points=len(samples) if residual.scaled else covered,
        informational=residual.informational or not covered,
        details=details,
    )


@dataclass
class _Context:
    """What every check reads, made once per ``run_verify`` or
    ``run_classify`` call by ``_context``.

    The fits and the values derived from them are computed on first use, so
    their input errors surface in report order: after every error of the
    checks before the first one that reads them.
    """

    spec: ManifoldSpec
    tol: dict
    samples: np.ndarray
    warped: WarpedFrame
    flat: ChartFrame

    @property
    def constant_warpings(self) -> bool:
        product = self.spec.product
        return not free_variables(product.f) and not free_variables(product.h)

    @cached_property
    def fits(self) -> tuple[list[QEFit], list[QCCFit]]:
        """The quasi-Einstein and the quasi-constant-curvature fit of every sample."""
        # the curvature the fits read is computed as the checks compute it,
        # with numpy's overflow warnings off: a value that overflows there is
        # the fits' own input error.  The fits keep the warnings, since a
        # valid metric must fit without any
        with np.errstate(over="ignore", invalid="ignore"):
            _ = (self.flat.ricci, self.flat.riemann)
        with np.errstate(over="warn", invalid="warn"):
            return _structure_fits(self.flat, self.samples, self.tol["fit"])

    @cached_property
    def fitted(self) -> np.ndarray:
        return np.array([fit.succeeded for fit in self.fits[0]])

    @cached_property
    def decomposition(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Per-sample (alpha, beta, U) of the fits, zeros where the fit failed."""
        qe_fits, dim = self.fits[0], self.spec.product.dim
        return (
            np.array([fit.alpha if fit.succeeded else 0.0 for fit in qe_fits]),
            np.array([fit.beta if fit.succeeded else 0.0 for fit in qe_fits]),
            np.array([fit.U if fit.U is not None else np.zeros(dim) for fit in qe_fits]),
        )

    @cached_property
    def qe_used(self) -> tuple:
        """The planted (alpha, beta, U), else the mean fitted alpha and beta
        and the first fitted U: ``alpha_used`` is its first entry."""
        if self.spec.planted is not None:
            return self.spec.planted
        ok = [f for f in self.fits[0] if f.succeeded]
        return (
            sum(f.alpha for f in ok) / len(ok) if ok else 0.0,
            sum(f.beta for f in ok) / len(ok) if ok else 0.0,
            next((f.U for f in ok if f.U is not None), np.zeros(self.spec.product.dim)),
        )

    @cached_property
    def lambda_values(self) -> np.ndarray:
        return self._field("lambda", lambda_at)

    @cached_property
    def nu_values(self) -> np.ndarray:
        return self._field("nu", nu_at)

    def _field(self, label: str, evaluator) -> np.ndarray:
        values = evaluator(self.warped, self.qe_used[0])
        _check_finite(f"lambda_nu_fields {label}", values, self.samples, FIT_OVERFLOW)
        if not math.isfinite(sum(values.tolist())):
            raise VerificationInputError(
                f"lambda_nu_fields {label}: the sum over the samples overflows"
            )
        return values


# --- checks ---------------------------------------------------------------------
# A check reads the context and yields, in report order, a ``Residual`` for each
# identity checked sample by sample and an ``IdentityReport`` for each one that
# is one number over the stack.  It computes an entry only after the one before
# is reduced, so the input error raised is the first in report order.  It calls
# the evaluators by their module names as it runs, so a wrapper installed on
# them sees every call.


def _oracle_checks(ctx: _Context):
    """Closed form vs oracle, curvature symmetries, the contracted Bianchi
    identity, cross blocks, the constant-warping reduction and the Hessian
    divergence, each residual normalized per sample."""
    warped, flat, product, tol = ctx.warped, ctx.flat, ctx.spec.product, ctx.tol
    for name, closed, oracle in (
        ("oracle_lemma1_connection", warped.christoffel, flat.christoffel),
        ("oracle_lemma2_curvature", warped.riemann_up, flat.riemann_up),
        ("oracle_lemma3_ricci", warped.ricci, flat.ricci),
        ("oracle_scalar_curvature", warped.scalar, flat.scalar),
    ):
        yield Residual(name, _normalized_gap(closed, oracle), tol["oracle"])
    symmetries = _worst(symmetry_residuals(flat).values())
    yield Residual("curvature_symmetries", symmetries, tol["symmetry"])
    frames = (flat, warped.frame1, warped.frame2, warped.frame3)
    bianchi = _worst(_balance_gap(fr.div_ricci, 0.5 * fr.dscalar) for fr in frames)
    yield Residual("bianchi_contracted", bianchi, tol["bianchi"])
    cross = np.ones((product.dim, product.dim), dtype=bool)
    for sl in product.block_slices:
        cross[sl, sl] = False
    yield Residual("ricci_cross_blocks", max_abs(flat.ricci[:, cross], 1), tol["cross_ricci"])
    if ctx.constant_warpings:
        block = np.zeros_like(flat.ricci)
        for sl, frame in zip(product.block_slices, (warped.frame1, warped.frame2, warped.frame3)):
            block[:, sl, sl] = frame.ricci
        reduction = _worst(max_abs(ricci - block, 2) for ricci in (flat.ricci, warped.ricci))
        yield Residual("trivial_warping_reduction", reduction, tol["reduction"])
    divergence = _worst(
        _balance_gap(
            fr.div_hessian(phi), matvec(fr.ricci, fr.gradient(phi)), fr.grad_laplacian(phi)
        )
        for fr, phi in ((warped.frame1, product.f), (warped.inner_frame, product.h))
    )
    yield Residual("hessian_divergence", divergence, tol["bianchi"])


def _fit_identities(ctx: _Context):
    """What the structure fits imply: QCC implies QE wherever it genuinely
    holds (the residual counts the samples where it does not), the factor
    identities of each fitted sample's decomposition, and the corollary
    scalar identities."""
    (qe_fits, qcc_fits), fitted, spec, tol = ctx.fits, ctx.fitted, ctx.spec, ctx.tol["fit"]
    n = len(ctx.samples)
    violations = sum(
        1
        for qcc, qe in zip(qcc_fits, qe_fits)
        if qcc.passed and qcc.b is not None and abs(qcc.b) > tol and not qe.succeeded
    )
    yield IdentityReport.from_residual("qcc_implies_qe", float(violations), 0.5, points=n)

    residuals = (np.zeros(n),) * 3
    if fitted.any():
        residuals = proposition1_residuals(ctx.warped, ctx.decomposition)
    for k, values in enumerate(residuals, start=1):
        yield Residual(
            f"proposition1_i{k}",
            values,
            tol,
            over=fitted,
            details={"points_with_fit": int(fitted.sum())},
            cause=FIT_OVERFLOW,
        )

    # exact only for constant warpings, where the full Laplacian in the
    # printed formulas agrees with the block traces
    applicable = ctx.constant_warpings and (spec.planted is not None or bool(fitted.any()))
    gaps, covered = np.zeros(n), np.zeros(n, dtype=bool)
    if applicable:
        covered = fitted if spec.planted is None else np.ones(n, dtype=bool)
        warped = ctx.warped
        stated = warped.factor_scalars(ctx.decomposition if spec.planted is None else spec.planted)
        scalars = (warped.frame1.scalar, warped.frame2.scalar, warped.frame3.scalar)
        gaps = np.max([abs(a - b) for a, b in zip(scalars, stated)], axis=0)
    note = (
        ""
        if applicable
        else "printed scalar identities substitute the full Laplacian for block traces; "
        "exact only for constant warpings"
    )
    yield Residual(
        "corollary1_scalars",
        gaps,
        tol,
        over=covered,
        details={"applicable": applicable, "note": note},
        cause=FIT_OVERFLOW,
    )


def _fields(ctx: _Context):
    """The lambda and nu fields, and their volume averages over fully
    periodic factors.

    The torus grid covers whole periods, beyond the sampling boxes that input
    validation saw: a warping or metric invalid there is an input error too.
    """
    product, alpha = ctx.spec.product, ctx.qe_used[0]
    lambda_values, nu_values = ctx.lambda_values, ctx.nu_values
    yield IdentityReport.from_residual(
        "lambda_nu_fields",
        0.0,
        1.0,
        points=len(ctx.samples),
        informational=True,
        details={
            "alpha_used": float(alpha),
            "lambda": _stats(lambda_values),
            "nu": _stats(nu_values),
        },
    )
    # a torus grid holds TORUS_NODES**dim nodes: each average needs dim <= MAX_TORUS_DIM
    fields = []
    if product.m1.fully_periodic and product.m1.dim <= MAX_TORUS_DIM:
        fields.append("lambda")
        if product.m2.fully_periodic and product.m1.dim + product.m2.dim <= MAX_TORUS_DIM:
            fields.append("nu")
    try:
        reports = [
            torus_average_identity(product, alpha, TORUS_NODES, name, ctx.tol["torus"])
            for name in fields
        ]
    except (GeometryError, DomainError) as exc:
        raise VerificationInputError(str(exc)) from exc
    for report in reports:
        if not math.isfinite(report.max_residual):
            raise VerificationInputError(
                f"{report.name} residual is not finite on the torus grid: "
                f"alpha {alpha!r} overflows there"
            )
        yield report


def _hypotheses(ctx: _Context):
    """The differential conditions, probed at the first five samples, and
    the rigidity hypotheses."""
    tol, n = ctx.tol["fit"], len(ctx.samples)
    conditions = condition_residuals(ctx.warped, ctx.qe_used, ctx.lambda_values)
    for name, values in zip(("condition1", "condition2"), conditions):
        yield Residual(
            name,
            values,
            tol,
            over=np.arange(n) < 5,
            informational=True,
            details={
                "condition_satisfied": bool(np.all(values[:5] <= tol)),
                "note": "hypothesis evaluator: a nonzero residual means the "
                "displayed condition does not hold on this manifold",
            },
            cause=FIT_OVERFLOW,
        )
    available = ctx.spec.planted is not None or bool(ctx.fitted.any())
    yield from theorem2_conditions(
        ctx.warped,
        ctx.qe_used if available else None,
        sum(ctx.lambda_values.tolist()) / n,
        sum(ctx.nu_values.tolist()) / n,
        tol,
    )


def _spacetime(ctx: _Context):
    """The static or Robertson-Walker conditions of a Lorentzian kind."""
    (qe_fits, qcc_fits), tol = ctx.fits, ctx.tol
    if ctx.spec.kind == "ssst":
        yield from ssst_theorem_check(
            ctx.warped, ctx.flat, qe_fits, qcc_fits, tol["fit"], tol["d3"]
        )
    elif ctx.spec.kind == "grw":
        yield from grw_theorem_check(ctx.warped, ctx.flat, qe_fits, qcc_fits, tol["fit"])


CHECKS = (_oracle_checks, _fit_identities, _fields, _hypotheses, _spacetime)


def _convention_notes(reports: dict[str, IdentityReport]) -> list[str]:
    notes = [
        "divergence-of-Hessian identity holds as div(H^phi) = Ric(grad phi, .) + d(Lap phi) "
        "under the trace-Laplacian convention"
    ]
    if "ssst_d3" in reports:
        sign = reports["ssst_d3"].details.get("recorded_sign")
        notes.append(
            f"static-form time-time identity Ric(dt,dt) = h Lap h holds with sign {sign:+d}"
        )
    if "grw_e1_sign" in reports:
        notes.append(
            "Robertson-Walker time-time curvature formula supported with sign: "
            + str(reports["grw_e1_sign"].details.get("supported_sign"))
        )
    if "grw_beta_alpha" in reports:
        notes.append(
            "beta - alpha warping relation: supported printed variant = "
            + str(reports["grw_beta_alpha"].details.get("supported_variant"))
        )
    return notes


def _validate(warped: WarpedFrame, flat: ChartFrame) -> None:
    """Raise ``GeometryError`` or ``DomainError`` at the first domain problem
    of the input (schema problems were caught at load time): each factor
    metric, as ``ChartFrame.validate`` checks it; the warpings' positivity;
    the flat metric, which a warping that is not positive makes degenerate,
    so it is checked after them; an overflow in the jets of the flat metric,
    which carries every factor metric and both warpings."""
    for frame in (warped.frame1, warped.frame2, warped.frame3):
        frame.validate()
    _ = (warped.f_value, warped.h_value)
    flat.validate()
    _ = flat.metric


def _context(spec: ManifoldSpec, tol: dict, samples: np.ndarray) -> _Context:
    """The validated context of ``samples``; an input problem the frames or
    ``_validate`` raise is a ``VerificationInputError``."""
    try:
        warped = WarpedFrame(spec.product, samples)
        flat = ChartFrame(flatten_to_chart(spec.product), samples)
        _validate(warped, flat)
    except (GeometryError, DomainError) as exc:
        raise VerificationInputError(str(exc)) from exc
    return _Context(spec, tol, samples, warped, flat)


def run_verify(
    spec: ManifoldSpec,
    points: int | None = None,
    seed: int | None = None,
    tolerances: dict | None = None,
) -> VerificationReport:
    """Run every check of ``CHECKS`` over deterministic sample points.

    ``points``, ``seed`` and ``tolerances`` override the spec's; an invalid
    one raises ``SpecError`` (see ``check_run_parameter``).
    """
    tol = dict(DEFAULT_TOLERANCES)
    tol.update(spec.tolerances)
    for key, value in (tolerances or {}).items():
        tol[key] = check_run_parameter(f"tolerances.{key}", value, f"tolerances.{key}")
    n_points = spec.points if points is None else check_run_parameter("points", points, "points")
    seed_used = spec.seed if seed is None else check_run_parameter("seed", seed, "seed")

    samples = spec.sample_points(n_points, seed_used)
    ctx = _context(spec, tol, samples)
    # an overflow in a check is not warned about: a residual it leaves
    # non-finite is an input error naming the first such sample
    with np.errstate(over="ignore", invalid="ignore"):
        identities = [
            _reduce(entry, samples) if isinstance(entry, Residual) else entry
            for check in CHECKS
            for entry in check(ctx)
        ]
    qe_fits, qcc_fits = ctx.fits
    return VerificationReport(
        spec_name=spec.name,
        kind=spec.kind,
        digest=spec.digest,
        points=n_points,
        seed=seed_used,
        tolerances=tol,
        identities=identities,
        fits={
            "quasi_einstein": _qe_summary(qe_fits),
            "quasi_constant_curvature": _qcc_summary(qcc_fits),
        },
        convention_notes=_convention_notes({r.name: r for r in identities}),
        overall_pass=all(r.passed for r in identities if not r.informational),
    )


def run_classify(spec: ManifoldSpec, at: dict | None = None) -> dict:
    """Structure fits at one point, ambient and per factor: the fits of
    ``run_verify``'s context at one sample, the spec's box centre unless
    ``at`` moves it."""
    product = spec.product
    point = spec.center_point()
    if at:
        coords = list(product.coords)
        for cname, value in at.items():
            if cname not in coords:
                raise VerificationInputError(f"--at: unknown coordinate {cname!r}")
            point[coords.index(cname)] = float(value)
    ctx = _context(spec, {**DEFAULT_TOLERANCES, **spec.tolerances}, point[None])
    (qe,), (qcc,) = ctx.fits
    # factors of one dimension are fitted as one stack
    warped, tol, fits = ctx.warped, ctx.tol["fit"], {}
    frames = {"m1": warped.frame1, "m2": warped.frame2, "m3": warped.frame3}
    for m in sorted({frame.manifold.dim for frame in frames.values()}):
        same = [k for k, frame in frames.items() if frame.manifold.dim == m]
        g = np.concatenate([frames[k].metric for k in same])
        ric = np.concatenate([frames[k].ricci for k in same])
        try:
            fits.update(zip(same, fit_quasi_einstein(g, ric, tol)))
        except FitInputError as exc:
            raise VerificationInputError(f"{exc} at sample 0 {point.tolist()}") from exc
    return {
        "spec": spec.name,
        "point": {c: float(v) for c, v in zip(product.coords, point)},
        "ambient": {
            "quasi_einstein": qe.summary(),
            "quasi_constant_curvature": qcc.summary(),
        },
        "factors": {
            k: {"manifold": frame.manifold.name, **fits[k].summary()}
            for k, frame in frames.items()
        },
    }
