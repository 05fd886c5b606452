"""Identity-suite orchestration: run every check, emit one report.

``run_verify`` samples deterministic points from the spec's boxes, then
runs, in a fixed order: closed-form vs oracle equivalence for the
connection, curvature, Ricci, and scalar; curvature symmetries and both
Bianchi identities; cross-block Ricci vanishing; the constant-warping
reduction; the divergence-of-Hessian identity; pointwise structure fits
with the factor identities they imply; torus-averaged field identities on
periodic factors; the differential conditions and rigidity hypotheses;
and the spacetime bundles for the Lorentzian kinds.

Every check reads one stacked ``WarpedFrame`` and one stacked flat
``ChartFrame`` over all sample points (see :mod:`seqwarp.chart`), and the
input validation reads the metric values their jets hold.  The oracle,
symmetry, Bianchi, cross-block, reduction and Hessian-divergence residuals
are reductions over the sample axis, each residual normalized per sample as
a one-point check would.  The evaluators take the stacked frames and return
per-sample results, which are reduced over the samples each check covers;
the structure fits run sample by sample on ``flat.metric[i]``.

The report is a plain dict rendered to JSON with stable ordering and no
timestamps, so identical spec + seed gives byte-identical output.  The
overall verdict ignores informational entries (hypothesis evaluators,
notes); every gating identity must pass.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

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
    IdentityReport,
    QCCFit,
    QEFit,
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
from .specfile import ManifoldSpec
from .warped import WarpedFrame, flatten_to_chart

__all__ = [
    "DEFAULT_TOLERANCES",
    "VerificationInputError",
    "VerificationReport",
    "run_verify",
    "run_classify",
]

DEFAULT_TOLERANCES = {
    "oracle": 1e-7,  # closed form vs chart oracle, normalized by max-abs + 1
    "symmetry": 1e-9,  # curvature symmetries and first Bianchi, normalized
    "bianchi": 1e-7,  # contracted second Bianchi, absolute
    "cross_ricci": 1e-10,  # off-block ambient Ricci entries, absolute
    "reduction": 1e-12,  # constant-warping block reduction, absolute
    "fit": 1e-6,  # structure fits and derived factor identities
    "torus": 1e-10,  # torus-averaged field identities
    "d3": 1e-7,  # time-time curvature identity of the static form
}

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


def _oracle_checks(
    product, warped: WarpedFrame, flat: ChartFrame, samples: np.ndarray, tol: dict
) -> list[IdentityReport]:
    """Closed form vs oracle, curvature symmetries, both Bianchi checks, cross
    blocks, the constant-warping reduction and the Hessian divergence.

    Each is a reduction over the sample axis of the stacked frames: a
    residual per sample (an oracle gap normalized by that sample's own
    1 + max |oracle|), then the worst sample's.  Overflow is not warned
    about: a residual that is not finite is an input error naming the first
    such sample.
    """
    n_points = len(samples)

    def report(name: str, per_sample: list[np.ndarray], tolerance: float) -> IdentityReport:
        worst = np.max(np.stack(per_sample), axis=0)
        bad = ~np.isfinite(worst)
        if bad.any():
            i = int(np.argmax(bad))
            raise VerificationInputError(
                f"{name} residual is not finite at sample {i} {samples[i].tolist()}: "
                "the metric or its derivatives overflow there"
            )
        return IdentityReport.from_residual(
            name, float(np.max(worst)), tolerance, points=n_points
        )

    dim = product.dim
    s1, s2, s3 = product.block_slices
    cross_mask = np.ones((dim, dim), dtype=bool)
    for sl in (s1, s2, s3):
        cross_mask[sl, sl] = False
    out = []
    with np.errstate(over="ignore", invalid="ignore"):
        for name, closed, oracle in (
            ("oracle_lemma1_connection", warped.christoffel, flat.christoffel),
            ("oracle_lemma2_curvature", warped.riemann_up, flat.riemann_up),
            ("oracle_lemma3_ricci", warped.ricci, flat.ricci),
            ("oracle_scalar_curvature", warped.scalar, flat.scalar),
        ):
            out.append(report(name, [_normalized_gap(closed, oracle)], tol["oracle"]))

        out.append(
            report(
                "curvature_symmetries",
                list(symmetry_residuals(flat).values()),
                tol["symmetry"],
            )
        )
        out.append(
            report(
                "bianchi_contracted",
                [
                    max_abs(fr.div_ricci - 0.5 * fr.dscalar, 1)
                    for fr in (flat, warped.frame1, warped.frame2, warped.frame3)
                ],
                tol["bianchi"],
            )
        )
        out.append(
            report(
                "ricci_cross_blocks", [max_abs(flat.ricci[:, cross_mask], 1)], tol["cross_ricci"]
            )
        )

        if not free_variables(product.f) and not free_variables(product.h):
            block = np.zeros((n_points, dim, dim))
            block[:, s1, s1] = warped.frame1.ricci
            block[:, s2, s2] = warped.frame2.ricci
            block[:, s3, s3] = warped.frame3.ricci
            out.append(
                report(
                    "trivial_warping_reduction",
                    [max_abs(flat.ricci - block, 2), max_abs(warped.ricci - block, 2)],
                    tol["reduction"],
                )
            )

        divergence = []
        for fr, phi in ((warped.frame1, product.f), (warped.inner_frame, product.h)):
            lhs = fr.div_hessian(phi)
            rhs = matvec(fr.ricci, fr.gradient(phi)) + fr.grad_laplacian(phi)
            divergence.append(max_abs(lhs - rhs, 1))
        out.append(report("hessian_divergence", divergence, tol["bianchi"]))
    return out


def _fit_each(fit, metric, tensor, tol: float, samples: np.ndarray) -> list:
    """``fit(metric[i], tensor[i], tol)`` at every sample; a fit input that
    is not finite is an input error naming the sample."""
    fits = []
    for i, point in enumerate(samples):
        try:
            fits.append(fit(metric[i], tensor[i], tol))
        except GeometryError as exc:
            raise VerificationInputError(f"{exc} at sample {i} {point.tolist()}") from exc
    return fits


def _merge_spacetime_reports(per_point: list[list[IdentityReport]]) -> list[IdentityReport]:
    """Aggregate per-point report bundles, which name the same identities in
    the same order.

    Residuals are expressed as residual/tolerance ratios so points with
    different scale factors merge cleanly; an identity gates the overall
    verdict as soon as its premise held at one point.
    """
    merged = []
    for reps in zip(*per_point):
        gating = [r for r in reps if not r.informational]
        ratio = max((r.max_residual / r.tolerance for r in gating), default=0.0)
        sample = gating[0] if gating else reps[0]
        details = dict(sample.details)
        details["points_with_premise"] = len(gating)
        details["scaled_residual"] = True
        merged.append(
            IdentityReport.from_residual(
                sample.name,
                ratio,
                1.0,
                points=len(reps),
                informational=not gating,
                details=details,
            )
        )
    return merged


def run_verify(
    spec: ManifoldSpec,
    points: int | None = None,
    seed: int | None = None,
    tolerances: dict | None = None,
) -> VerificationReport:
    """Run the full identity suite over deterministic sample points."""
    tol = dict(DEFAULT_TOLERANCES)
    tol.update(spec.tolerances)
    tol.update(tolerances or {})
    n_points = spec.points if points is None else points
    seed_used = spec.seed if seed is None else seed

    product = spec.product
    samples = spec.sample_points(n_points, seed_used)

    # input validation: schema problems were caught at load time, domain
    # problems (degeneracy, signature, positivity, an expression outside its
    # domain, overflow) surface here
    try:
        warped = WarpedFrame(product, samples)
        flat = ChartFrame(flatten_to_chart(product), samples)
        for frame in (warped.frame1, warped.frame2, warped.frame3, flat):
            frame.validate()
        _ = (warped.f_value, warped.h_value)
        # the flat metric carries every factor metric and both warpings, so
        # its jets are where an overflow anywhere in the spec shows
        _ = flat.metric
    except (GeometryError, DomainError) as exc:
        raise VerificationInputError(str(exc)) from exc

    identities = _oracle_checks(product, warped, flat, samples, tol)
    notes = [
        "divergence-of-Hessian identity holds as div(H^phi) = Ric(grad phi, .) + d(Lap phi) "
        "under the trace-Laplacian convention"
    ]
    dim = product.dim
    constant_warpings = not free_variables(product.f) and not free_variables(product.h)

    # --- structure fits ----------------------------------------------------------
    qe_fits = _fit_each(fit_quasi_einstein, flat.metric, flat.ricci, tol["fit"], samples)
    qcc_fits = _fit_each(
        check_quasi_constant_curvature, flat.metric, flat.riemann, tol["fit"], samples
    )
    fits = {
        "quasi_einstein": _qe_summary(qe_fits),
        "quasi_constant_curvature": _qcc_summary(qcc_fits),
    }

    # QCC implies the rank-one Ricci structure wherever it genuinely holds
    qcc_qe_violations = sum(
        1
        for qcc, qe in zip(qcc_fits, qe_fits)
        if qcc.passed and qcc.b is not None and abs(qcc.b) > tol["fit"] and not qe.succeeded
    )
    identities.append(
        IdentityReport.from_residual(
            "qcc_implies_qe", float(qcc_qe_violations), 0.5, points=n_points
        )
    )

    # --- factor identities from the rank-one decomposition -----------------------
    # per-sample (alpha, beta, U), zeros where the fit failed
    fitted = np.array([fit.succeeded for fit in qe_fits])
    decomposition = (
        np.array([fit.alpha if fit.succeeded else 0.0 for fit in qe_fits]),
        np.array([fit.beta if fit.succeeded else 0.0 for fit in qe_fits]),
        np.array([fit.U if fit.U is not None else np.zeros(dim) for fit in qe_fits]),
    )
    prop_points = int(fitted.sum())
    prop_residuals = [0.0, 0.0, 0.0]
    if prop_points:
        bundles = proposition1_residuals(product, warped, decomposition, tol["fit"])
        prop_residuals = [
            max(reports[i].max_residual for reports, ok in zip(bundles, fitted) if ok)
            for i in range(3)
        ]
    for i, label in enumerate(("i1", "i2", "i3")):
        identities.append(
            IdentityReport.from_residual(
                f"proposition1_{label}",
                prop_residuals[i],
                tol["fit"],
                points=prop_points,
                informational=prop_points == 0,
                details={"points_with_fit": prop_points},
            )
        )

    # corollary scalar identities: exact only for constant warpings, where the
    # full Laplacian in the printed formulas agrees with the block traces
    cor_applicable = constant_warpings and (spec.planted is not None or prop_points > 0)
    res_cor = 0.0
    cor_points = 0
    if cor_applicable:
        covered = fitted if spec.planted is None else np.ones(n_points, dtype=bool)
        stated = warped.factor_scalars(decomposition if spec.planted is None else spec.planted)
        gaps = [abs(a - b) for a, b in zip(warped.factor_scalars(), stated)]
        res_cor = float(np.max(np.max(gaps, axis=0)[covered]))
        cor_points = int(covered.sum())
    identities.append(
        IdentityReport.from_residual(
            "corollary1_scalars",
            res_cor,
            tol["fit"],
            points=cor_points,
            informational=not cor_applicable or cor_points == 0,
            details={
                "applicable": bool(cor_applicable),
                "note": ""
                if cor_applicable
                else "printed scalar identities substitute the full Laplacian for "
                "block traces; exact only for constant warpings",
            },
        )
    )

    # --- field values and torus averages -----------------------------------------
    if spec.planted is not None:
        alpha_used, beta_used = spec.planted[0], spec.planted[1]
        u_used = spec.planted[2]
    else:
        ok = [f for f in qe_fits if f.succeeded]
        alpha_used = sum(f.alpha for f in ok) / len(ok) if ok else 0.0
        beta_used = sum(f.beta for f in ok) / len(ok) if ok else 0.0
        u_used = next((f.U for f in ok if f.U is not None), np.zeros(dim))
    lambda_values = lambda_at(product, warped, alpha_used)
    nu_values = nu_at(product, warped, alpha_used)
    identities.append(
        IdentityReport.from_residual(
            "lambda_nu_fields",
            0.0,
            1.0,
            points=n_points,
            informational=True,
            details={
                "alpha_used": float(alpha_used),
                "lambda": _stats(lambda_values),
                "nu": _stats(nu_values),
            },
        )
    )

    # the torus grid covers whole periods, beyond the sampling boxes that input
    # validation saw: a warping or metric invalid there is an input error too
    try:
        if product.m1.fully_periodic:
            identities.append(
                torus_average_identity(product, alpha_used, TORUS_NODES, "lambda", tol["torus"])
            )
        if (
            product.m1.fully_periodic
            and product.m2.fully_periodic
            and product.m1.dim + product.m2.dim <= MAX_TORUS_DIM
        ):
            identities.append(
                torus_average_identity(product, alpha_used, TORUS_NODES, "nu", tol["torus"])
            )
    except (GeometryError, DomainError) as exc:
        raise VerificationInputError(str(exc)) from exc

    # --- differential conditions and rigidity hypotheses ---------------------------
    qe_used = (alpha_used, beta_used, u_used)
    # the conditions are probed at the first five samples
    pairs = condition_residuals(product, warped, qe_used, lambda_values, None, tol["fit"])[:5]
    for name, reports in zip(("condition1", "condition2"), zip(*pairs)):
        identities.append(
            IdentityReport.from_residual(
                name,
                max(r.max_residual for r in reports),
                tol["fit"],
                points=len(reports),
                informational=True,
                details={
                    "condition_satisfied": all(r.passed for r in reports),
                    "note": "hypothesis evaluator: a nonzero residual means the "
                    "displayed condition does not hold on this manifold",
                },
            )
        )

    lam_mean = sum(lambda_values.tolist()) / n_points
    nu_mean = sum(nu_values.tolist()) / n_points
    decomposition_available = spec.planted is not None or any(
        f.succeeded for f in qe_fits
    )
    identities.extend(
        theorem2_conditions(
            product,
            qe_used if decomposition_available else None,
            lam_mean,
            nu_mean,
            warped,
            tol["fit"],
        )
    )

    # --- spacetime bundles ----------------------------------------------------------
    if spec.kind in ("ssst", "grw"):
        if spec.kind == "ssst":
            bundles = ssst_theorem_check(
                product, warped, qe_fits, qcc_fits, tol["fit"], tol["d3"], flat=flat
            )
        else:
            bundles = grw_theorem_check(product, warped, qe_fits, qcc_fits, tol["fit"], flat=flat)
        merged = _merge_spacetime_reports(bundles)
        identities.extend(merged)
        by_name = {r.name: r for r in merged}
        if spec.kind == "ssst" and "ssst_d3" in by_name:
            sign = by_name["ssst_d3"].details.get("recorded_sign")
            notes.append(
                f"static-form time-time identity Ric(dt,dt) = h Lap h holds with sign {sign:+d}"
            )
        if spec.kind == "grw":
            if "grw_e1_sign" in by_name:
                notes.append(
                    "Robertson-Walker time-time curvature formula supported with sign: "
                    + str(by_name["grw_e1_sign"].details.get("supported_sign"))
                )
            if "grw_beta_alpha" in by_name:
                notes.append(
                    "beta - alpha warping relation: supported printed variant = "
                    + str(by_name["grw_beta_alpha"].details.get("supported_variant"))
                )

    overall = all(r.passed for r in identities if not r.informational)
    return VerificationReport(
        spec_name=spec.name,
        kind=spec.kind,
        digest=spec.digest,
        points=n_points,
        seed=seed_used,
        tolerances=tol,
        identities=identities,
        fits=fits,
        convention_notes=notes,
        overall_pass=overall,
    )


def run_classify(spec: ManifoldSpec, at: dict | None = None) -> dict:
    """Structure fits at one point: ambient and per factor."""
    product = spec.product
    point = spec.center_point()
    if at:
        coords = list(product.coords)
        for cname, value in at.items():
            if cname not in coords:
                raise VerificationInputError(f"--at: unknown coordinate {cname!r}")
            point[coords.index(cname)] = float(value)
    try:
        flat = ChartFrame(flatten_to_chart(product), point)
        wf = WarpedFrame(product, point)
        _ = (wf.f_value, wf.h_value)
        _ = (flat.ricci, flat.riemann, wf.frame1.ricci, wf.frame2.ricci, wf.frame3.ricci)
    except GeometryError as exc:
        raise VerificationInputError(str(exc)) from exc
    except DomainError as exc:
        raise VerificationInputError(f"{exc} at {point.tolist()}") from exc
    # a fit raises on input it cannot take, with no point in the message
    try:
        qe = fit_quasi_einstein(flat.metric, flat.ricci, spec.tolerances.get("fit", 1e-6))
        qcc = check_quasi_constant_curvature(
            flat.metric, flat.riemann, spec.tolerances.get("fit", 1e-6)
        )
        factor_fits = {}
        for label, frame in (("m1", wf.frame1), ("m2", wf.frame2), ("m3", wf.frame3)):
            fit = fit_quasi_einstein(frame.metric, frame.ricci)
            factor_fits[label] = {
                "manifold": frame.manifold.name,
                **fit.summary(),
            }
    except GeometryError as exc:
        raise VerificationInputError(f"{exc} at {point.tolist()}") from exc
    return {
        "spec": spec.name,
        "point": {c: float(v) for c, v in zip(product.coords, point)},
        "ambient": {
            "quasi_einstein": qe.summary(),
            "quasi_constant_curvature": qcc.summary(),
        },
        "factors": factor_fits,
    }
