"""Lorentzian constructors and theorem-condition evaluators.

Two spacetime families are assembled as sequential warped products:

* standard static form: spatial factors first, the time line last, with
  metric ``(g1 (+) f^2 g2) (+) h^2 (-dt^2)``;
* generalized Robertson-Walker form: the time line first, with metric
  ``(-dt^2 (+) f^2 g2) (+) h^2 g3``.

The chart and closed-form machinery is signature-agnostic, so the only
Lorentzian-specific work is signature validation plus the condition
evaluators below.  Condition evaluators take the ``WarpedFrame`` of the
closed forms and the flattened-chart ``ChartFrame`` of the oracle, both
built at the same stack of sample points, with one structure fit per
sample, and return one scaled ``Residual`` per identity: its residuals,
tolerances and premise mask, one entry per sample, and the per-sample
details its report quotes.
A sample where a premise (a successful structure fit, a unit time
component of U) fails does not gate the identity.

The time-time curvature identities are adjudicated against the oracle,
and the verdicts are recorded in the details: residuals of both printed
sign variants of the GRW relation between beta - alpha and the warping
second derivatives are reported side by side, never guessed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .chart import (
    ChartFrame,
    FactorManifold,
    SignatureError,
    matvec,
    max_abs,
    outer,
    relative_gap,
)
from .classify import (
    DEFAULT_FIT_TOL,
    EINSTEIN_THRESHOLD,
    FIT_OVERFLOW,
    QCCFit,
    QEFit,
    Residual,
    fit_quasi_einstein,
)
from .expressions import Const, Expr, free_variables
from .warped import SequentialWarpedProduct, WarpedFrame, _per_sample

__all__ = [
    "SSSTSpec",
    "GRWSpec",
    "build_ssst",
    "build_grw",
    "time_axis",
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


@dataclass(frozen=True)
class GRWSpec:
    """Robertson-Walker data: a time line, two Riemannian factors, warpings."""

    space2: FactorManifold
    space3: FactorManifold
    f: Expr
    h: Expr
    time_coord: str = "t"


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


# ---------------------------------------------------------------------------
# Condition evaluators
# ---------------------------------------------------------------------------

def _unit_time_component(qe: QEFit, axis: int) -> tuple[bool, str]:
    """Whether the fitted U has unit time part (so A(dt)^2 = g_tt^2)."""
    if not qe.succeeded:
        return False, "no rank-one Ricci structure at this point"
    if qe.verdict == "einstein":
        return True, "Einstein case: the rank-one part vanishes"
    u_t = abs(float(qe.U[axis])) if qe.U is not None else 0.0
    if abs(u_t - 1.0) <= 1e-6:
        return True, ""
    return False, f"fitted U has time component {u_t:.3e}, expected 1"


def _premises(qes, qccs, axis: int, tol: float):
    """Per sample: whether U has unit time part, with its note, and whether
    a two-coefficient fit with b != 0 holds on top of that, with the note
    saying why not (empty where it holds)."""
    premises = [_unit_time_component(qe, axis) for qe in qes]
    premise = np.array([p for p, _ in premises])
    qcc_premise = premise & np.array([q.passed and abs(q.b) > tol for q in qccs])
    qcc_notes = [
        ""
        if met
        else "degenerate two-coefficient fit (b = 0): constant-curvature case, conditions vacuous"
        if qcc.passed and abs(qcc.b) <= tol
        else "premise not met (need a two-coefficient fit with unit time part of U)"
        for qcc, met in zip(qccs, qcc_premise)
    ]
    return premise, [why for _, why in premises], qcc_premise, qcc_notes


def _fit_values(fits, take, where: np.ndarray, default) -> np.ndarray:
    """``take(fit)`` for each sample where ``where`` holds, ``default`` elsewhere."""
    return np.array([take(fit) if ok else default for fit, ok in zip(fits, where)])


def _premised(name: str, values, tolerance, premise: np.ndarray, details: dict) -> Residual:
    """A scaled residual that gates only where its premise on the fits held."""
    return Residual(
        name, values, tolerance, over=premise, scaled=True, details=details, cause=FIT_OVERFLOW
    )


def _factor_conclusions(
    names: tuple[str, str], frames: tuple[ChartFrame, ChartFrame], tol: float, premise
) -> list[Residual]:
    """The two factor conclusions under a two-coefficient fit: the first
    factor quasi-Einstein, the second Einstein, each from its own fit."""
    fits = [fit_quasi_einstein(frame.metric, frame.ricci, tol) for frame in frames]
    values = (
        np.array([0.0 if fit.succeeded else 1.0 for fit in fits[0]]),
        np.array([fit.beta_part if fit.succeeded else 1.0 for fit in fits[1]]),
    )
    tolerances = (0.5, max(tol, EINSTEIN_THRESHOLD * 10))
    return [
        _premised(name, value, tolerance, premise, {"fit": fit, "premise_met": premise})
        for name, value, tolerance, fit in zip(names, values, tolerances, fits)
    ]


def ssst_theorem_check(
    frame: WarpedFrame,
    flat: ChartFrame,
    qes: list[QEFit],
    qccs: list[QCCFit],
    tol: float = DEFAULT_FIT_TOL,
    d3_tol: float = D3_TOL,
) -> list[Residual]:
    """Per-sample residuals of the static-form curvature conditions.

    Includes the time-time identity Ric(dt, dt) = h Lap h with its sign
    recorded, the two mixed Ricci identities specialized to a 1-dimensional
    fiber, the rank-one consequences of a successful ambient fit, and the
    Hessian forms tied to a two-coefficient curvature fit.  ``flat`` is the
    flattened-chart frame at the samples of ``frame``; ``qes`` and ``qccs``
    hold each sample's fits of the flat stack, a failed fit where there is
    none (the curvature fit takes its one-form from the quasi-Einstein fit
    of the same stack).  The result is one scaled ``Residual`` per identity,
    in report order; its details carry, per sample, ``ricci_tt``,
    ``h_lap_h`` and ``recorded_sign`` (``ssst_d3``), the premise and its
    note, the coefficient sign of the Hessian forms and the factor fits.
    """
    product = frame.product
    axis = time_axis(product)
    d1 = product.m1.dim
    s1, s2, _ = product.block_slices
    f, h = frame.f_value, frame.h_value
    h2, h4 = h * h, h * h * h * h
    flat_ricci, closed = flat.ricci, frame.ricci

    # time-time identity against the oracle, with recorded sign
    ric_tt = flat_ricci[..., axis, axis]
    rhs = h * frame.lap_h
    res_d3 = abs(abs(ric_tt) - abs(rhs))
    sign = np.where(abs(rhs) > 1e-12, np.where(ric_tt * rhs > 0, 1, -1), 0)

    # mixed Ricci identities with a 1-dimensional fiber: closed vs oracle blocks
    res_d1 = relative_gap(flat_ricci[..., s1, s1] - closed[..., s1, s1], flat_ricci)
    res_d2 = relative_gap(flat_ricci[..., s2, s2] - closed[..., s2, s2], flat_ricci)

    # rank-one consequences at the time direction
    premise, why, qcc_premise, qcc_notes = _premises(qes, qccs, axis, tol)
    alpha = _fit_values(qes, lambda q: float(q.alpha), premise, 0.0)
    beta = _fit_values(qes, lambda q: float(q.beta), premise, 0.0)
    res_d4 = np.where(premise, abs(ric_tt - (-alpha * h2 + beta * h4)), 0.0)
    res_i = np.where(premise, abs(alpha - beta * h2 + frame.lap_h / h), 0.0)

    # Hessian forms under a two-coefficient curvature fit whose direction
    # field has unit time part
    a = _fit_values(qccs, lambda q: float(q.a), qcc_premise, 0.0)
    b = _fit_values(qccs, lambda q: float(q.b), qcc_premise, 0.0)
    zeros = np.zeros(d1)
    u1 = _fit_values(qes, lambda q: zeros if q.U is None else q.U[s1], qcc_premise, zeros)
    g1, g2 = frame.frame1.metric, frame.frame2.metric
    g1u = matvec(g1, u1)
    g1uu = outer(g1u, g1u)

    def _forms(a_val, b_val) -> np.ndarray:
        form_f = _per_sample(a_val * f, 2) * g1 + _per_sample(b_val * f, 2) * g1uu
        form_h = _per_sample((-a_val + h2) * h, 2) * g1 - _per_sample(b_val * h, 2) * g1uu
        form_h2 = _per_sample((-a_val + h2) * (f * f) * h, 2) * g2
        return np.stack([
            max_abs(frame.hess_f - form_f, 2),
            max_abs(frame.hess_h[..., :d1, :d1] - form_h, 2),
            max_abs(frame.hess_h[..., d1:, d1:] - form_h2, 2),
        ], axis=-1)

    plain, negated = _forms(a, b), _forms(-a, -b)
    as_printed = np.max(plain, axis=-1) <= np.max(negated, axis=-1)
    residuals = np.where(qcc_premise[:, None], np.where(as_printed[:, None], plain, negated), 0.0)

    coefficient_sign = np.where(qcc_premise, np.where(as_printed, "as-printed", "negated"), None)
    rank_one = {"premise_met": premise, "note": why}
    hessian = {"premise_met": qcc_premise, "note": qcc_notes, "coefficient_sign": coefficient_sign}
    return [
        Residual(
            "ssst_d3",
            res_d3,
            d3_tol,
            scaled=True,
            details={"ricci_tt": ric_tt, "h_lap_h": rhs, "recorded_sign": sign},
        ),
        Residual("ssst_d1", res_d1, 1e-7, scaled=True),
        Residual("ssst_d2", res_d2, 1e-7, scaled=True),
        _premised("ssst_d4", res_d4, tol * (1.0 + h4), premise, rank_one),
        _premised("ssst_condition_i", res_i, tol * (1.0 + h2), premise, rank_one),
        *(
            _premised(f"ssst_hessian_form_{name}", res, tol * (1.0 + h2), qcc_premise, hessian)
            for name, res in zip(("f", "h_base", "h_fiber"), residuals.T)
        ),
        *_factor_conclusions(
            ("ssst_m1_quasi_einstein", "ssst_m2_einstein"),
            (frame.frame1, frame.frame2),
            tol,
            qcc_premise,
        ),
    ]


def grw_theorem_check(
    frame: WarpedFrame,
    flat: ChartFrame,
    qes: list[QEFit],
    qccs: list[QCCFit],
    tol: float = DEFAULT_FIT_TOL,
) -> list[Residual]:
    """Per-sample residuals of the Robertson-Walker-form conditions.

    The relation between beta - alpha and the second time derivatives of
    the warpings is printed with conflicting signs in the source
    statements; both variants are evaluated and the supported one is
    named, per sample, in the details of ``grw_beta_alpha``.  ``frame``,
    ``flat``, ``qes`` and ``qccs`` are as in ``ssst_theorem_check``, and
    so is the result; the details carry the supported sign of the
    time-time formula, the coefficient sign of the Hessian form and the
    factor fits too.
    """
    product = frame.product
    axis = time_axis(product)
    assert axis == 0, "Robertson-Walker form keeps time as the first coordinate"
    d1 = product.m1.dim
    m2, m3 = product.m2.dim, product.m3.dim
    s2 = product.block_slices[1]
    f, h = frame.f_value, frame.h_value

    # Gamma^k_tt vanishes in a Robertson-Walker chart, so the Hessians' (t, t)
    # entries are the second time derivatives
    f_tt = frame.hess_f[..., 0, 0]
    h_tt = frame.hess_h[..., 0, 0]
    term_f = (m2 / f) * f_tt
    term_h = (m3 / h) * h_tt

    # global-sign adjudication of the time-time curvature formula
    ric_tt = flat.ricci[..., axis, axis]
    res_plus = abs(ric_tt - (term_f + term_h))
    res_minus = abs(ric_tt + (term_f + term_h))

    # beta - alpha relation: gate on the exact time-time identity, and
    # report both printed sign variants of the warping formula.
    premise, why, qcc_premise, qcc_notes = _premises(qes, qccs, axis, tol)
    beta_alpha = _fit_values(qes, lambda q: float(q.beta) - float(q.alpha), premise, 0.0)
    variant_statement = term_f - term_h
    variant_proof = term_f + term_h
    gate = np.where(premise, abs(beta_alpha - ric_tt), 0.0)
    res_statement = np.where(premise, abs(beta_alpha - variant_statement), 0.0)
    res_proof = np.where(premise, abs(beta_alpha - variant_proof), 0.0)
    distinguishable = premise & (abs(variant_statement - variant_proof) > 2.0 * tol)
    stat_ok, proof_ok = res_statement <= tol, res_proof <= tol
    supported = np.select(
        [~premise, stat_ok & proof_ok, stat_ok, proof_ok],
        ["not-applicable", "both", "statement", "proof"],
        "neither",
    )

    # Hessian form on the middle-factor pairs
    a = _fit_values(qccs, lambda q: float(q.a), qcc_premise, 0.0)
    b = _fit_values(qccs, lambda q: float(q.b), qcc_premise, 0.0)
    zeros = np.zeros(m2)
    u2 = _fit_values(qes, lambda q: zeros if q.U is None else q.U[s2], qcc_premise, zeros)
    g2 = frame.frame2.metric
    g2u = matvec(g2, u2)
    g2uu = outer(g2u, g2u)
    hess_block = frame.hess_h[..., d1:, d1:]
    f2, f4 = f * f, f * f * f * f

    def _e5(a_val, b_val) -> np.ndarray:
        form = _per_sample(a_val * h * f2, 2) * g2 + _per_sample(b_val * h * f4, 2) * g2uu
        return max_abs(hess_block - form, 2)

    plain, negated = _e5(a, b), _e5(-a, -b)
    res_e5 = np.where(qcc_premise, np.minimum(plain, negated), 0.0)
    as_printed = np.where(plain <= negated, "as-printed", "negated")
    coefficient_sign = np.where(qcc_premise, as_printed, None)
    return [
        Residual(
            "grw_e1_sign",
            np.minimum(res_plus, res_minus),
            1e-7 * (1.0 + abs(ric_tt)),
            scaled=True,
            details={
                "ricci_tt": ric_tt,
                "formula": term_f + term_h,
                "supported_sign": np.where(res_minus < res_plus, "negated", "as-printed"),
            },
        ),
        _premised(
            "grw_beta_alpha",
            gate,
            tol,
            premise,
            {
                "premise_met": premise,
                "note": why,
                "beta_alpha": np.where(premise, beta_alpha, None),
                "residual_statement_variant": res_statement,
                "residual_proof_variant": res_proof,
                "supported_variant": supported,
                "distinguishable": distinguishable,
            },
        ),
        _premised(
            "grw_e5_hessian_form",
            res_e5,
            tol * (1.0 + h * f4),
            qcc_premise,
            {"premise_met": qcc_premise, "note": qcc_notes, "coefficient_sign": coefficient_sign},
        ),
        *_factor_conclusions(
            ("grw_m2_quasi_einstein", "grw_m3_einstein"),
            (frame.frame2, frame.frame3),
            tol,
            qcc_premise,
        ),
    ]
