"""Identity-suite orchestration: run every check, emit one report.

``run_verify`` samples deterministic points from the spec's boxes, then
runs, in a fixed order: closed-form vs oracle equivalence for the
connection, curvature, Ricci, and scalar; curvature symmetries and both
Bianchi identities; cross-block Ricci vanishing; the constant-warping
reduction; the divergence-of-Hessian identity; pointwise structure fits
with the factor identities they imply; torus-averaged field identities on
periodic factors; the differential conditions and rigidity hypotheses;
and the spacetime bundles for the Lorentzian kinds.

Every check reads one ``WarpedFrame`` and one flat ``ChartFrame``, each over
the ``(N, d)`` stack of all sample points (see :mod:`seqwarp.chart`), and
the input validation reads the metric values their jets hold.  The oracle,
symmetry, Bianchi, cross-block, reduction and Hessian-divergence residuals
are reductions over the sample axis, each residual normalized per sample.
The evaluators take the frames and return per-sample results, which are
reduced over the samples each check covers; the structure fits take the
flat metric and curvature stacks too, and return one fit per sample.
``run_classify`` fits at one point, a stack of one.

The report is a plain dict rendered to JSON with stable ordering and no
timestamps, so identical spec + seed gives byte-identical output.  The
overall verdict ignores informational entries (hypothesis evaluators,
notes); every gating identity must pass.
"""

from __future__ import annotations

import json
import math
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
    FitInputError,
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


def _require_finite(what: str, per_sample, samples: np.ndarray) -> None:
    """Raise ``VerificationInputError`` naming ``what`` and the first sample
    at which ``per_sample``, a field or residual driven by the planted or
    fitted alpha, beta and U, is not finite."""
    bad = ~np.isfinite(np.asarray(per_sample, dtype=float))
    if bad.any():
        i = int(np.argmax(bad))
        raise VerificationInputError(
            f"{what} is not finite at sample {i} {samples[i].tolist()}: "
            "the alpha, beta and U used overflow there"
        )


def _oracle_checks(
    product, warped: WarpedFrame, flat: ChartFrame, samples: np.ndarray, tol: dict
) -> list[IdentityReport]:
    """Closed form vs oracle, curvature symmetries, both Bianchi checks, cross
    blocks, the constant-warping reduction and the Hessian divergence.

    Each is a reduction over the sample axis of the frames: a
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
                    _balance_gap(fr.div_ricci, 0.5 * fr.dscalar)
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
            divergence.append(
                _balance_gap(
                    fr.div_hessian(phi), matvec(fr.ricci, fr.gradient(phi)), fr.grad_laplacian(phi)
                )
            )
        out.append(report("hessian_divergence", divergence, tol["bianchi"]))
    return out


def _structure_fits(flat: ChartFrame, samples: np.ndarray, tol: float) -> tuple[list, list]:
    """Both fits of the flat stack, all quasi-Einstein ones first; input errors name the sample."""
    try:
        qe_fits = fit_quasi_einstein(flat.metric, flat.ricci, tol)
        return qe_fits, check_quasi_constant_curvature(flat.metric, flat.riemann, tol)
    except FitInputError as exc:
        i = exc.sample
        raise VerificationInputError(f"{exc} at sample {i} {samples[i].tolist()}") from exc


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
    """Run the full identity suite over deterministic sample points.

    ``points``, ``seed`` and ``tolerances`` override the spec's; an invalid
    one raises ``SpecError`` (see ``check_run_parameter``).
    """
    tol = dict(DEFAULT_TOLERANCES)
    tol.update(spec.tolerances)
    for key, value in (tolerances or {}).items():
        tol[key] = check_run_parameter(f"tolerances.{key}", value, f"tolerances.{key}")
    n_points = spec.points if points is None else check_run_parameter("points", points, "points")
    seed_used = spec.seed if seed is None else check_run_parameter("seed", seed, "seed")

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
    qe_fits, qcc_fits = _structure_fits(flat, samples, tol["fit"])
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
        with np.errstate(over="ignore", invalid="ignore"):
            stated = warped.factor_scalars(decomposition if spec.planted is None else spec.planted)
            gaps = np.max([abs(a - b) for a, b in zip(warped.factor_scalars(), stated)], axis=0)
        _require_finite("corollary1_scalars residual", np.where(covered, gaps, 0.0), samples)
        res_cor = float(np.max(gaps[covered]))
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
    with np.errstate(over="ignore", invalid="ignore"):
        lambda_values = lambda_at(product, warped, alpha_used)
        nu_values = nu_at(product, warped, alpha_used)
    for label, values in (("lambda", lambda_values), ("nu", nu_values)):
        _require_finite(f"lambda_nu_fields {label}", values, samples)
        if not math.isfinite(sum(values.tolist())):
            raise VerificationInputError(
                f"lambda_nu_fields {label}: the sum over the samples overflows"
            )
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
    averages = len(identities)
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            if product.m1.fully_periodic:
                identities.append(
                    torus_average_identity(
                        product, alpha_used, TORUS_NODES, "lambda", tol["torus"]
                    )
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
    for report in identities[averages:]:
        if not math.isfinite(report.max_residual):
            raise VerificationInputError(
                f"{report.name} residual is not finite on the torus grid: "
                f"alpha {alpha_used!r} overflows there"
            )

    # --- differential conditions and rigidity hypotheses ---------------------------
    qe_used = (alpha_used, beta_used, u_used)
    # the conditions are probed at the first five samples
    with np.errstate(over="ignore", invalid="ignore"):
        pairs = condition_residuals(product, warped, qe_used, lambda_values, None, tol["fit"])
    for name, reports in zip(("condition1", "condition2"), zip(*pairs[:5])):
        _require_finite(f"{name} residual", [r.max_residual for r in reports], samples)
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
    with np.errstate(over="ignore", invalid="ignore"):
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
    """Structure fits at one point, a stack of one: ambient and per factor."""
    product = spec.product
    point = spec.center_point()
    if at:
        coords = list(product.coords)
        for cname, value in at.items():
            if cname not in coords:
                raise VerificationInputError(f"--at: unknown coordinate {cname!r}")
            point[coords.index(cname)] = float(value)
    try:
        flat = ChartFrame(flatten_to_chart(product), point[None])
        wf = WarpedFrame(product, point[None])
        _ = (wf.f_value, wf.h_value)
        _ = (flat.ricci, flat.riemann, wf.frame1.ricci, wf.frame2.ricci, wf.frame3.ricci)
    except GeometryError as exc:
        raise VerificationInputError(str(exc)) from exc
    except DomainError as exc:
        # a factor frame names its own coordinates; name the whole point
        raise VerificationInputError(f"{exc.reason} at {point.tolist()}") from exc
    # factors of one dimension are fitted as one stack; a fit error gets the point here
    try:
        tol = spec.tolerances.get("fit", 1e-6)
        qe = fit_quasi_einstein(flat.metric, flat.ricci, tol)[0]
        qcc = check_quasi_constant_curvature(flat.metric, flat.riemann, tol)[0]
        frames, fits = {"m1": wf.frame1, "m2": wf.frame2, "m3": wf.frame3}, {}
        for m in sorted({frame.manifold.dim for frame in frames.values()}):
            same = [k for k, frame in frames.items() if frame.manifold.dim == m]
            g, ric = (
                np.concatenate([getattr(frames[k], t) for k in same]) for t in ("metric", "ricci")
            )
            fits.update(zip(same, fit_quasi_einstein(g, ric)))
        factor_fits = {
            k: {"manifold": f.manifold.name, **fits[k].summary()} for k, f in frames.items()
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
