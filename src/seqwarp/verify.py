"""Identity-suite orchestration: run every check, emit one report.

``run_verify`` samples deterministic points from the spec's boxes, then
runs, in a fixed order: closed-form vs oracle equivalence for the
connection, curvature, Ricci, and scalar; curvature symmetries and both
Bianchi identities; cross-block Ricci vanishing; the constant-warping
reduction; the divergence-of-Hessian identity; pointwise structure fits
with the factor identities they imply; torus-averaged field identities on
periodic factors; the differential conditions and rigidity hypotheses;
and the spacetime bundles for the Lorentzian kinds.

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
    symmetry_residuals,
    validate_factor_at,
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
from .expressions import free_variables
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


def _normalized_gap(closed, oracle) -> float:
    """max |closed - oracle|, normalized by 1 + max |oracle|."""
    return float(np.max(np.abs(closed - oracle))) / (1.0 + float(np.max(np.abs(oracle))))


def _merge_spacetime_reports(per_point: list[list[IdentityReport]]) -> list[IdentityReport]:
    """Aggregate per-point report bundles by name.

    Residuals are expressed as residual/tolerance ratios so points with
    different scale factors merge cleanly; an identity gates the overall
    verdict as soon as its premise held at one point.
    """
    by_name: dict[str, list[IdentityReport]] = {}
    order: list[str] = []
    for bundle in per_point:
        for rep in bundle:
            if rep.name not in by_name:
                by_name[rep.name] = []
                order.append(rep.name)
            by_name[rep.name].append(rep)
    merged = []
    for name in order:
        reps = by_name[name]
        gating = [r for r in reps if not r.informational]
        ratio = max((r.max_residual / r.tolerance for r in gating), default=0.0)
        sample = gating[0] if gating else reps[0]
        details = dict(sample.details)
        details["points_with_premise"] = len(gating)
        details["scaled_residual"] = True
        merged.append(
            IdentityReport.from_residual(
                name,
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
    flat_chart = flatten_to_chart(product)

    # input validation: schema problems were caught at load time, domain
    # problems (degeneracy, signature, positivity) surface here
    try:
        for fac, sl in zip(product.factors, product.block_slices):
            validate_factor_at(fac, samples[:, sl])
        validate_factor_at(flat_chart, samples)
        warped_frames = [WarpedFrame(product, p) for p in samples]
        for frame in warped_frames:
            _ = (frame.f_value, frame.h_value)
        flat_frames = [ChartFrame(flat_chart, p) for p in samples]
        # the flat metric carries every factor metric and both warpings, so
        # its jets are where an overflow anywhere in the spec shows
        for frame in flat_frames:
            _ = frame.metric
    except GeometryError as exc:
        raise VerificationInputError(str(exc)) from exc

    identities: list[IdentityReport] = []
    notes: list[str] = []
    dim = product.dim
    s1, s2, s3 = product.block_slices
    cross_mask = np.ones((dim, dim), dtype=bool)
    for sl in (s1, s2, s3):
        cross_mask[sl, sl] = False

    # --- closed form vs oracle ------------------------------------------------
    res_conn = res_curv = res_ricci = res_scal = 0.0
    for wf, ff in zip(warped_frames, flat_frames):
        res_conn = max(res_conn, _normalized_gap(wf.christoffel, ff.christoffel))
        res_curv = max(res_curv, _normalized_gap(wf.riemann_up, ff.riemann_up))
        res_ricci = max(res_ricci, _normalized_gap(wf.ricci, ff.ricci))
        res_scal = max(res_scal, _normalized_gap(wf.scalar, ff.scalar))

    identities.append(
        IdentityReport.from_residual(
            "oracle_lemma1_connection", res_conn, tol["oracle"], points=n_points
        )
    )
    identities.append(
        IdentityReport.from_residual(
            "oracle_lemma2_curvature", res_curv, tol["oracle"], points=n_points
        )
    )
    identities.append(
        IdentityReport.from_residual(
            "oracle_lemma3_ricci", res_ricci, tol["oracle"], points=n_points
        )
    )
    identities.append(
        IdentityReport.from_residual(
            "oracle_scalar_curvature", res_scal, tol["oracle"], points=n_points
        )
    )

    # --- symmetries, Bianchi, cross blocks -------------------------------------
    res_sym = 0.0
    res_bianchi = 0.0
    res_cross = 0.0
    for wf, ff in zip(warped_frames, flat_frames):
        res_sym = max(res_sym, max(symmetry_residuals(ff).values()))
        res_bianchi = max(
            res_bianchi, float(np.max(np.abs(ff.div_ricci - 0.5 * ff.dscalar)))
        )
        for fac_frame in (wf.frame1, wf.frame2, wf.frame3):
            res_bianchi = max(
                res_bianchi,
                float(np.max(np.abs(fac_frame.div_ricci - 0.5 * fac_frame.dscalar))),
            )
        res_cross = max(res_cross, float(np.max(np.abs(ff.ricci[cross_mask]))))
    identities.append(
        IdentityReport.from_residual(
            "curvature_symmetries", res_sym, tol["symmetry"], points=n_points
        )
    )
    identities.append(
        IdentityReport.from_residual(
            "bianchi_contracted", res_bianchi, tol["bianchi"], points=n_points
        )
    )
    identities.append(
        IdentityReport.from_residual(
            "ricci_cross_blocks", res_cross, tol["cross_ricci"], points=n_points
        )
    )

    # --- constant-warping reduction --------------------------------------------
    constant_warpings = not free_variables(product.f) and not free_variables(product.h)
    if constant_warpings:
        res_red = 0.0
        for wf, ff in zip(warped_frames, flat_frames):
            block = np.zeros((dim, dim))
            block[s1, s1] = wf.frame1.ricci
            block[s2, s2] = wf.frame2.ricci
            block[s3, s3] = wf.frame3.ricci
            res_red = max(res_red, float(np.max(np.abs(ff.ricci - block))))
            res_red = max(res_red, float(np.max(np.abs(wf.ricci - block))))
        identities.append(
            IdentityReport.from_residual(
                "trivial_warping_reduction", res_red, tol["reduction"], points=n_points
            )
        )

    # --- divergence-of-Hessian identity ----------------------------------------
    res_div = 0.0
    for wf in warped_frames:
        fr1 = wf.frame1
        lhs = fr1.div_hessian(product.f)
        rhs = fr1.ricci @ fr1.gradient(product.f) + fr1.grad_laplacian(product.f)
        res_div = max(res_div, float(np.max(np.abs(lhs - rhs))))
        fri = wf.inner_frame
        lhs = fri.div_hessian(product.h)
        rhs = fri.ricci @ fri.gradient(product.h) + fri.grad_laplacian(product.h)
        res_div = max(res_div, float(np.max(np.abs(lhs - rhs))))
    identities.append(
        IdentityReport.from_residual(
            "hessian_divergence", res_div, tol["bianchi"], points=n_points
        )
    )
    notes.append(
        "divergence-of-Hessian identity holds as div(H^phi) = Ric(grad phi, .) + d(Lap phi) "
        "under the trace-Laplacian convention"
    )

    # --- structure fits ----------------------------------------------------------
    qe_fits = [
        fit_quasi_einstein(ff.metric, ff.ricci, tol["fit"]) for ff in flat_frames
    ]
    qcc_fits = [
        check_quasi_constant_curvature(ff.metric, ff.riemann, tol["fit"])
        for ff in flat_frames
    ]
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
    prop_residuals = [0.0, 0.0, 0.0]
    prop_points = 0
    for wf, fit in zip(warped_frames, qe_fits):
        if not fit.succeeded:
            continue
        u = fit.U if fit.U is not None else np.zeros(dim)
        reports = proposition1_residuals(product, wf, (fit.alpha, fit.beta, u), tol["fit"])
        for i, rep in enumerate(reports):
            prop_residuals[i] = max(prop_residuals[i], rep.max_residual)
        prop_points += 1
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
        for wf, fit in zip(warped_frames, qe_fits):
            qe = spec.planted
            if qe is None and fit.succeeded:
                u = fit.U if fit.U is not None else np.zeros(dim)
                qe = (fit.alpha, fit.beta, u)
            if qe is None:
                continue
            direct = wf.factor_scalars()
            stated = wf.factor_scalars(qe)
            res_cor = max(res_cor, max(abs(a - b) for a, b in zip(direct, stated)))
            cor_points += 1
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
        fitted = [f for f in qe_fits if f.succeeded]
        alpha_used = (
            sum(f.alpha for f in fitted) / len(fitted) if fitted else 0.0
        )
        beta_used = sum(f.beta for f in fitted) / len(fitted) if fitted else 0.0
        u_used = next((f.U for f in fitted if f.U is not None), np.zeros(dim))
    lambda_values = [lambda_at(product, wf, alpha_used) for wf in warped_frames]
    nu_values = [nu_at(product, wf, alpha_used) for wf in warped_frames]
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

    # --- differential conditions and rigidity hypotheses ---------------------------
    qe_used = (alpha_used, beta_used, u_used)
    res_c1 = res_c2 = 0.0
    sat_c1 = sat_c2 = True
    for wf, lam in zip(warped_frames[:5], lambda_values[:5]):
        rep1, rep2 = condition_residuals(product, wf, qe_used, lam, None, tol["fit"])
        res_c1 = max(res_c1, rep1.max_residual)
        res_c2 = max(res_c2, rep2.max_residual)
        sat_c1 = sat_c1 and rep1.passed
        sat_c2 = sat_c2 and rep2.passed
    for name, res, sat in (
        ("condition1", res_c1, sat_c1),
        ("condition2", res_c2, sat_c2),
    ):
        identities.append(
            IdentityReport.from_residual(
                name,
                res,
                tol["fit"],
                points=min(5, n_points),
                informational=True,
                details={
                    "condition_satisfied": bool(sat),
                    "note": "hypothesis evaluator: a nonzero residual means the "
                    "displayed condition does not hold on this manifold",
                },
            )
        )

    lam_mean = sum(lambda_values) / len(lambda_values)
    nu_mean = sum(nu_values) / len(nu_values)
    decomposition_available = spec.planted is not None or any(
        f.succeeded for f in qe_fits
    )
    identities.extend(
        theorem2_conditions(
            product,
            qe_used if decomposition_available else None,
            lam_mean,
            nu_mean,
            warped_frames,
            tol["fit"],
        )
    )

    # --- spacetime bundles ----------------------------------------------------------
    if spec.kind in ("ssst", "grw"):
        bundles = []
        for wf, ff, qe, qcc in zip(warped_frames, flat_frames, qe_fits, qcc_fits):
            if spec.kind == "ssst":
                bundles.append(
                    ssst_theorem_check(product, wf, qe, qcc, tol["fit"], tol["d3"], flat=ff)
                )
            else:
                bundles.append(grw_theorem_check(product, wf, qe, qcc, tol["fit"], flat=ff))
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
        raise VerificationInputError(str(exc)) from exc
    return {
        "spec": spec.name,
        "point": {c: float(v) for c, v in zip(product.coords, point)},
        "ambient": {
            "quasi_einstein": qe.summary(),
            "quasi_constant_curvature": qcc.summary(),
        },
        "factors": factor_fits,
    }
