"""Lorentzian constructors and theorem-condition evaluators.

Two spacetime families are assembled as sequential warped products:

* standard static form: spatial factors first, the time line last, with
  metric ``(g1 (+) f^2 g2) (+) h^2 (-dt^2)``;
* generalized Robertson-Walker form: the time line first, with metric
  ``(-dt^2 (+) f^2 g2) (+) h^2 g3``.

The chart and closed-form machinery is signature-agnostic, so the only
Lorentzian-specific work is signature validation plus the condition
evaluators below.  Condition evaluators return reports: where a premise
(a successful structure fit, a unit time component of U) fails at the
probed point, the report is marked informational rather than failed.

The time-time curvature identities are adjudicated against the oracle,
and the verdicts are recorded in the reports: residuals of both printed
sign variants of the GRW relation between beta - alpha and the warping
second derivatives are reported side by side, never guessed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .chart import ChartFrame, FactorManifold, SignatureError, validate_factor_at
from .classify import DEFAULT_FIT_TOL, EINSTEIN_THRESHOLD, IdentityReport, QCCFit, QEFit, fit_quasi_einstein
from .expressions import Const, Expr, free_variables
from .warped import SequentialWarpedProduct, WarpedFrame, _as_frame, flatten_to_chart

__all__ = [
    "SSSTSpec",
    "GRWSpec",
    "build_ssst",
    "build_grw",
    "time_axis",
    "validate_spacetime_signature",
    "ssst_theorem_check",
    "grw_theorem_check",
]

D3_TOL = 1e-7


def _time_factor(coord: str) -> FactorManifold:
    return FactorManifold(
        name="time",
        coords=(coord,),
        metric=((Const(-1.0),),),
        signature="lorentzian",
    )


@dataclass(frozen=True)
class SSSTSpec:
    """Standard static data: two Riemannian factors, warpings, a time line."""

    space1: FactorManifold
    space2: FactorManifold
    f: Expr
    h: Expr
    time_coord: str = "t"
    interval: tuple[float, float] = (-1.0, 1.0)


@dataclass(frozen=True)
class GRWSpec:
    """Robertson-Walker data: a time line, two Riemannian factors, warpings."""

    space2: FactorManifold
    space3: FactorManifold
    f: Expr
    h: Expr
    time_coord: str = "t"
    interval: tuple[float, float] = (-1.0, 1.0)


def build_ssst(spec: SSSTSpec) -> SequentialWarpedProduct:
    """Assemble the static form; the time line is the outermost fiber."""
    for fac in (spec.space1, spec.space2):
        if fac.signature != "riemannian":
            raise SignatureError(f"spatial factor {fac.name!r} must be riemannian")
    return SequentialWarpedProduct(
        m1=spec.space1,
        m2=spec.space2,
        m3=_time_factor(spec.time_coord),
        f=spec.f,
        h=spec.h,
    )


def build_grw(spec: GRWSpec) -> SequentialWarpedProduct:
    """Assemble the Robertson-Walker form; the time line is the base."""
    for fac in (spec.space2, spec.space3):
        if fac.signature != "riemannian":
            raise SignatureError(f"spatial factor {fac.name!r} must be riemannian")
    if free_variables(spec.f) - {spec.time_coord}:
        raise SignatureError("the inner warping of the Robertson-Walker form depends on time only")
    return SequentialWarpedProduct(
        m1=_time_factor(spec.time_coord),
        m2=spec.space2,
        m3=spec.space3,
        f=spec.f,
        h=spec.h,
    )


def time_axis(product: SequentialWarpedProduct) -> int:
    """Ambient index of the time coordinate (the Lorentzian 1-dim factor)."""
    offset = 0
    for fac in product.factors:
        if fac.signature == "lorentzian":
            if fac.dim != 1:
                raise SignatureError("expected a 1-dimensional time factor")
            return offset
        offset += fac.dim
    raise SignatureError("product has no Lorentzian factor")


def validate_spacetime_signature(
    product: SequentialWarpedProduct, points: Sequence
) -> None:
    """Ambient metric must have exactly one negative eigenvalue, on time."""
    chart = flatten_to_chart(product)
    validate_factor_at(chart, points)
    axis = time_axis(product)
    for point in points:
        frame = WarpedFrame(product, point)
        if frame.ambient_metric[axis, axis] >= 0.0:
            raise SignatureError(
                f"time-time metric entry is non-negative at {np.asarray(point).tolist()}"
            )


# ---------------------------------------------------------------------------
# Condition evaluators
# ---------------------------------------------------------------------------

def _unit_time_component(qe: QEFit, axis: int) -> tuple[bool, str]:
    """Whether the fitted U has unit time part (so A(dt)^2 = g_tt^2)."""
    if qe is None or not qe.succeeded:
        return False, "no rank-one Ricci structure at this point"
    if qe.verdict == "einstein":
        return True, "Einstein case: the rank-one part vanishes"
    u_t = abs(float(qe.U[axis])) if qe.U is not None else 0.0
    if abs(u_t - 1.0) <= 1e-6:
        return True, ""
    return False, f"fitted U has time component {u_t:.3e}, expected 1"


def ssst_theorem_check(
    product: SequentialWarpedProduct,
    point,
    qe: QEFit,
    qcc: QCCFit,
    tol: float = DEFAULT_FIT_TOL,
    d3_tol: float = D3_TOL,
    *,
    flat: ChartFrame | None = None,
) -> list[IdentityReport]:
    """Report bundle for the static-form curvature conditions at a point.

    Includes the time-time identity Ric(dt, dt) = h Lap h with its sign
    recorded, the two mixed Ricci identities specialized to a
    1-dimensional fiber, the rank-one consequences of a successful
    ambient fit, and the Hessian forms tied to a two-coefficient
    curvature fit.  ``point`` may be a ``WarpedFrame``; ``flat`` is the
    flattened-chart frame at the same point, built here when not given.
    """
    frame = _as_frame(product, point)
    if flat is None:
        flat = ChartFrame(flatten_to_chart(product), frame.point)
    axis = time_axis(product)
    d1 = product.m1.dim
    h = frame.h_value
    reports: list[IdentityReport] = []

    # time-time identity against the oracle, with recorded sign
    ric_tt = float(flat.ricci[axis, axis])
    rhs = h * frame.lap_h
    res_d3 = abs(abs(ric_tt) - abs(rhs))
    sign = 0
    if abs(rhs) > 1e-12:
        sign = 1 if ric_tt * rhs > 0 else -1
    reports.append(
        IdentityReport.from_residual(
            "ssst_d3",
            res_d3,
            d3_tol,
            details={"ricci_tt": ric_tt, "h_lap_h": rhs, "recorded_sign": sign},
        )
    )

    # mixed Ricci identities with a 1-dimensional fiber: closed vs oracle blocks
    closed = frame.ricci
    s1, s2, _ = product.block_slices
    res_d1 = float(np.max(np.abs(flat.ricci[s1, s1] - closed[s1, s1])))
    res_d2 = float(np.max(np.abs(flat.ricci[s2, s2] - closed[s2, s2])))
    scale = 1.0 + float(np.max(np.abs(flat.ricci)))
    reports.append(IdentityReport.from_residual("ssst_d1", res_d1 / scale, 1e-7))
    reports.append(IdentityReport.from_residual("ssst_d2", res_d2 / scale, 1e-7))

    # rank-one consequences at the time direction
    premise, why = _unit_time_component(qe, axis)
    if premise:
        alpha, beta = float(qe.alpha), float(qe.beta)
        res_d4 = abs(ric_tt - (-alpha * h**2 + beta * h**4))
        res_i = abs(alpha - beta * h**2 + frame.lap_h / h)
    else:
        res_d4 = res_i = 0.0
    reports.append(
        IdentityReport.from_residual(
            "ssst_d4",
            res_d4,
            tol * (1.0 + h**4),
            informational=not premise,
            details={"premise_met": premise, "note": why},
        )
    )
    reports.append(
        IdentityReport.from_residual(
            "ssst_condition_i",
            res_i,
            tol * (1.0 + h**2),
            informational=not premise,
            details={"premise_met": premise, "note": why},
        )
    )

    # Hessian forms under a two-coefficient curvature fit whose direction
    # field has unit time part
    qcc_premise = (
        qcc is not None
        and qcc.passed
        and qcc.b is not None
        and abs(qcc.b) > tol
        and premise
    )
    if qcc_premise:
        u1 = qe.U[s1] if (qe is not None and qe.U is not None) else np.zeros(d1)
        g1 = frame.frame1.metric
        g1u = g1 @ u1
        g2 = frame.frame2.metric
        f = frame.f_value

        def _forms(a_val: float, b_val: float) -> float:
            form_f = a_val * f * g1 + b_val * f * np.outer(g1u, g1u)
            form_h = (-a_val + h**2) * h * g1 - b_val * h * np.outer(g1u, g1u)
            form_h2 = (-a_val + h**2) * f**2 * h * g2
            return (
                float(np.max(np.abs(frame.hess_f - form_f))),
                float(np.max(np.abs(frame.hess_h[:d1, :d1] - form_h))),
                float(np.max(np.abs(frame.hess_h[d1:, d1:] - form_h2))),
            )

        plain = _forms(float(qcc.a), float(qcc.b))
        negated = _forms(-float(qcc.a), -float(qcc.b))
        coefficient_sign = "as-printed" if max(plain) <= max(negated) else "negated"
        residuals = plain if coefficient_sign == "as-printed" else negated
        note = ""
    else:
        residuals = (0.0, 0.0, 0.0)
        coefficient_sign = None
        note = (
            "degenerate two-coefficient fit (b = 0): constant-curvature case, conditions vacuous"
            if qcc is not None and qcc.passed and not (qcc.b and abs(qcc.b) > tol)
            else "premise not met (need a two-coefficient fit with unit time part of U)"
        )
    for name, res in (
        ("ssst_hessian_form_f", residuals[0]),
        ("ssst_hessian_form_h_base", residuals[1]),
        ("ssst_hessian_form_h_fiber", residuals[2]),
    ):
        reports.append(
            IdentityReport.from_residual(
                name,
                res,
                tol * (1.0 + h**2),
                informational=not qcc_premise,
                details={
                    "premise_met": qcc_premise,
                    "note": note,
                    "coefficient_sign": coefficient_sign,
                },
            )
        )

    # factor conclusions
    fit1 = fit_quasi_einstein(frame.frame1.metric, frame.frame1.ricci, tol)
    fit2 = fit_quasi_einstein(frame.frame2.metric, frame.frame2.ricci, tol)
    reports.append(
        IdentityReport.from_residual(
            "ssst_m1_quasi_einstein",
            0.0 if fit1.succeeded else 1.0,
            0.5,
            informational=not qcc_premise,
            details={"fit": fit1.summary(), "premise_met": qcc_premise},
        )
    )
    reports.append(
        IdentityReport.from_residual(
            "ssst_m2_einstein",
            fit2.beta_part if fit2.succeeded else 1.0,
            max(tol, EINSTEIN_THRESHOLD * 10),
            informational=not qcc_premise,
            details={"fit": fit2.summary(), "premise_met": qcc_premise},
        )
    )
    return reports


def grw_theorem_check(
    product: SequentialWarpedProduct,
    point,
    qe: QEFit,
    qcc: QCCFit,
    tol: float = DEFAULT_FIT_TOL,
    *,
    flat: ChartFrame | None = None,
) -> list[IdentityReport]:
    """Report bundle for the Robertson-Walker-form conditions at a point.

    The relation between beta - alpha and the second time derivatives of
    the warpings is printed with conflicting signs in the source
    statements; both variants are evaluated and the supported one is
    named in the report details.  ``point`` and ``flat`` are as in
    ``ssst_theorem_check``.
    """
    frame = _as_frame(product, point)
    if flat is None:
        flat = ChartFrame(flatten_to_chart(product), frame.point)
    axis = time_axis(product)
    assert axis == 0, "Robertson-Walker form keeps time as the first coordinate"
    d1 = product.m1.dim
    m2, m3 = product.m2.dim, product.m3.dim
    f, h = frame.f_value, frame.h_value
    reports: list[IdentityReport] = []

    f_tt = float(frame.frame1.field_jets(product.f)[2][0, 0])
    h_tt = float(frame.inner_frame.field_jets(product.h)[2][0, 0])
    term_f = (m2 / f) * f_tt
    term_h = (m3 / h) * h_tt

    # global-sign adjudication of the time-time curvature formula
    ric_tt = float(flat.ricci[axis, axis])
    res_plus = abs(ric_tt - (term_f + term_h))
    res_minus = abs(ric_tt + (term_f + term_h))
    supported_sign = "negated" if res_minus < res_plus else "as-printed"
    reports.append(
        IdentityReport.from_residual(
            "grw_e1_sign",
            min(res_plus, res_minus),
            1e-7 * (1.0 + abs(ric_tt)),
            details={
                "ricci_tt": ric_tt,
                "formula": term_f + term_h,
                "supported_sign": supported_sign,
            },
        )
    )

    # beta - alpha relation: gate on the exact time-time identity, and
    # report both printed sign variants of the warping formula.
    premise, why = _unit_time_component(qe, axis)
    variant_statement = term_f - term_h
    variant_proof = term_f + term_h
    if premise:
        beta_alpha = float(qe.beta) - float(qe.alpha)
        gate = abs(beta_alpha - ric_tt)
        res_statement = abs(beta_alpha - variant_statement)
        res_proof = abs(beta_alpha - variant_proof)
        distinguishable = abs(variant_statement - variant_proof) > 2.0 * tol
        stat_ok, proof_ok = res_statement <= tol, res_proof <= tol
        if stat_ok and proof_ok:
            supported = "both"
        elif stat_ok:
            supported = "statement"
        elif proof_ok:
            supported = "proof"
        else:
            supported = "neither"
    else:
        beta_alpha = None
        gate = res_statement = res_proof = 0.0
        supported = "not-applicable"
        distinguishable = False
    reports.append(
        IdentityReport.from_residual(
            "grw_beta_alpha",
            gate,
            tol,
            informational=not premise,
            details={
                "premise_met": premise,
                "note": why,
                "beta_alpha": beta_alpha,
                "residual_statement_variant": res_statement,
                "residual_proof_variant": res_proof,
                "supported_variant": supported,
                "distinguishable": distinguishable,
            },
        )
    )

    # Hessian form on the middle-factor pairs
    qcc_premise = (
        qcc is not None
        and qcc.passed
        and qcc.b is not None
        and abs(qcc.b) > tol
        and premise
    )
    if qcc_premise:
        u2 = qe.U[product.block_slices[1]] if (qe is not None and qe.U is not None) else np.zeros(m2)
        g2 = frame.frame2.metric
        g2u = g2 @ u2
        hess_block = frame.hess_h[d1:, d1:]

        def _e5(a_val: float, b_val: float) -> float:
            form = a_val * h * f**2 * g2 + b_val * h * f**4 * np.outer(g2u, g2u)
            return float(np.max(np.abs(hess_block - form)))

        plain = _e5(float(qcc.a), float(qcc.b))
        negated = _e5(-float(qcc.a), -float(qcc.b))
        coefficient_sign = "as-printed" if plain <= negated else "negated"
        res_e5 = min(plain, negated)
        note = ""
    else:
        res_e5 = 0.0
        coefficient_sign = None
        note = (
            "degenerate two-coefficient fit (b = 0): constant-curvature case, conditions vacuous"
            if qcc is not None and qcc.passed and not (qcc.b and abs(qcc.b) > tol)
            else "premise not met (need a two-coefficient fit with unit time part of U)"
        )
    reports.append(
        IdentityReport.from_residual(
            "grw_e5_hessian_form",
            res_e5,
            tol * (1.0 + h * f**4),
            informational=not qcc_premise,
            details={
                "premise_met": qcc_premise,
                "note": note,
                "coefficient_sign": coefficient_sign,
            },
        )
    )

    # factor conclusions
    fit2 = fit_quasi_einstein(frame.frame2.metric, frame.frame2.ricci, tol)
    fit3 = fit_quasi_einstein(frame.frame3.metric, frame.frame3.ricci, tol)
    reports.append(
        IdentityReport.from_residual(
            "grw_m2_quasi_einstein",
            0.0 if fit2.succeeded else 1.0,
            0.5,
            informational=not qcc_premise,
            details={"fit": fit2.summary(), "premise_met": qcc_premise},
        )
    )
    reports.append(
        IdentityReport.from_residual(
            "grw_m3_einstein",
            fit3.beta_part if fit3.succeeded else 1.0,
            max(tol, EINSTEIN_THRESHOLD * 10),
            informational=not qcc_premise,
            details={"fit": fit3.summary(), "premise_met": qcc_premise},
        )
    )
    return reports
