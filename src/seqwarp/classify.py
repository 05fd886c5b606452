"""Structure fits and identity checkers for warped-product curvature.

Three layers live here:

* pointwise algebraic fits: Einstein / quasi-Einstein structure of a
  Ricci tensor (``fit_quasi_einstein``) and the two-coefficient
  quasi-constant-curvature ansatz for a full curvature tensor
  (``check_quasi_constant_curvature``);
* identity evaluators tying factor curvature to a rank-one ambient
  decomposition (``proposition1_residuals``), the scalar fields carrying
  the warping energies (``lambda_at`` / ``nu_at``), and volume-averaged
  forms of those fields over fully periodic factors
  (``torus_average_identity``);
* hypothesis evaluators for the differential conditions under which the
  scalar fields are forced constant (``condition_residuals``) and for the
  rigidity statements that force constant warpings
  (``theorem2_conditions``).

Hypothesis evaluators never raise: they return reports whose pass flag is
the material implication "hypothesis holds at every sample implies the
conclusion holds numerically".

Every evaluator that takes a point also accepts a ``WarpedFrame`` already
built there, so one frame per sample can serve all of them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

from .chart import ChartFrame, FactorManifold, GeometryError
from .expressions import Expr
from .warped import BlockVector, SequentialWarpedProduct, _as_frame, inner_chart

__all__ = [
    "QEFit",
    "QCCFit",
    "IdentityReport",
    "fit_quasi_einstein",
    "check_quasi_constant_curvature",
    "proposition1_residuals",
    "lambda_at",
    "nu_at",
    "torus_average_identity",
    "torus_divergence_residual",
    "condition_residuals",
    "theorem2_conditions",
]

DEFAULT_FIT_TOL = 1e-6
EINSTEIN_THRESHOLD = 1e-8
CLUSTER_GAP = 1e-6


@dataclass(frozen=True)
class IdentityReport:
    """Residual summary for one named identity.

    ``passed`` is always ``max_residual <= tolerance``; informational
    reports never gate an overall verdict.
    """

    name: str
    points: int
    max_residual: float
    tolerance: float
    passed: bool
    informational: bool = False
    details: dict = field(default_factory=dict)

    @classmethod
    def from_residual(
        cls,
        name: str,
        residual: float,
        tolerance: float,
        points: int = 1,
        informational: bool = False,
        details: dict | None = None,
    ) -> "IdentityReport":
        residual = float(residual)
        return cls(
            name=name,
            points=points,
            max_residual=residual,
            tolerance=float(tolerance),
            passed=bool(residual <= tolerance),
            informational=informational,
            details=details or {},
        )

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "points": self.points,
            "max_residual": self.max_residual,
            "tolerance": self.tolerance,
            "passed": self.passed,
            "informational": self.informational,
            "details": self.details,
        }


@dataclass(frozen=True)
class QEFit:
    """Rank-one decomposition ric = alpha g + beta A (x) A at one point.

    ``A`` is the metric dual of ``U``; when ``U`` is normalizable,
    ``unit_sign`` records g(U, U) = +-1 (the causal character on
    indefinite metrics).  ``beta_part`` is the operator norm of the
    rank-one remainder, the quantity thresholded for the Einstein verdict.
    """

    verdict: str  # "einstein" | "quasi-einstein" | "neither"
    alpha: float | None
    beta: float | None
    A: np.ndarray | None
    U: np.ndarray | None
    unit_sign: int | None
    residual: float
    beta_part: float
    eigenvalues: tuple[float, ...]
    reason: str = ""

    @property
    def succeeded(self) -> bool:
        return self.verdict != "neither"

    def summary(self) -> dict:
        return {
            "verdict": self.verdict,
            "alpha": self.alpha,
            "beta": self.beta,
            "beta_part": self.beta_part if math.isfinite(self.beta_part) else None,
            "residual": self.residual,
            "unit_sign": self.unit_sign,
            "A_norm": None if self.A is None else float(np.linalg.norm(self.A)),
            "reason": self.reason,
        }


@dataclass(frozen=True)
class QCCFit:
    """Two-coefficient curvature ansatz fit: R = a G1 + b G2(A)."""

    passed: bool
    a: float | None
    b: float | None
    A: np.ndarray | None
    residual: float
    ricci_fit: QEFit | None
    reason: str = ""

    def summary(self) -> dict:
        return {
            "passed": self.passed,
            "a": self.a,
            "b": self.b,
            "residual": self.residual,
            "reason": self.reason,
        }


def _clusters(values: np.ndarray, gap: float) -> list[list[int]]:
    order = np.argsort(values)
    groups: list[list[int]] = [[int(order[0])]]
    for idx in order[1:]:
        if values[idx] - values[groups[-1][-1]] <= gap:
            groups[-1].append(int(idx))
        else:
            groups.append([int(idx)])
    return groups


def fit_quasi_einstein(
    g: np.ndarray, ric: np.ndarray, tol: float = DEFAULT_FIT_TOL
) -> QEFit:
    """Fit ric = alpha g + beta A (x) A.

    alpha is the eigenvalue of the mixed endomorphism g^-1 ric carrying
    multiplicity >= m - 1 (clustered with relative gap
    ``CLUSTER_GAP * (1 + spectral radius)``); the remainder must be
    rank one within ``tol``.  Works for indefinite g: the causal
    character of U is reported, not rejected.
    """
    g = np.asarray(g, dtype=float)
    ric = np.asarray(ric, dtype=float)
    m = g.shape[0]
    mixed = np.linalg.solve(g, ric)
    eigs = np.linalg.eigvals(mixed)
    radius = float(np.max(np.abs(eigs))) if m else 0.0
    scale = 1.0 + radius

    def failure(reason: str) -> QEFit:
        return QEFit(
            verdict="neither",
            alpha=None,
            beta=None,
            A=None,
            U=None,
            unit_sign=None,
            residual=float(np.max(np.abs(ric))),
            beta_part=float("inf"),
            eigenvalues=tuple(sorted(float(v) for v in eigs.real)),
            reason=reason,
        )

    if float(np.max(np.abs(eigs.imag))) > 1e-8 * scale:
        return failure("mixed Ricci endomorphism has a complex eigenvalue pair")

    values = np.sort(eigs.real)
    groups = _clusters(values, CLUSTER_GAP * scale)
    groups.sort(key=len, reverse=True)
    top = groups[0]
    if len(top) < m - 1:
        return failure(
            f"largest eigenvalue cluster has multiplicity {len(top)} < {m - 1}"
        )
    alpha = float(np.mean(values[top]))

    rest = ric - alpha * g
    w, vecs = np.linalg.eigh(rest)
    k = int(np.argmax(np.abs(w)))
    sigma, direction = float(w[k]), vecs[:, k]
    rank_one = sigma * np.outer(direction, direction)
    rank_residual = float(np.max(np.abs(rest - rank_one)))
    if rank_residual > tol * (1.0 + float(np.max(np.abs(ric)))):
        return failure("remainder after removing alpha g is not rank one")

    eig_tuple = tuple(float(v) for v in values)
    if abs(sigma) <= EINSTEIN_THRESHOLD * scale:
        return QEFit(
            verdict="einstein",
            alpha=alpha,
            beta=0.0,
            A=np.zeros(m),
            U=None,
            unit_sign=None,
            residual=float(np.max(np.abs(rest))),
            beta_part=abs(sigma),
            eigenvalues=eig_tuple,
        )

    u_raw = np.linalg.solve(g, direction)
    causal = float(direction @ u_raw)  # g(U_raw, U_raw) for A_raw = direction
    residual = float(np.max(np.abs(rest - rank_one)))
    if abs(causal) <= 1e-10 * (1.0 + float(np.max(np.abs(u_raw))) ** 2):
        # A is null for g; report the unnormalized direction
        return QEFit(
            verdict="quasi-einstein",
            alpha=alpha,
            beta=sigma,
            A=direction,
            U=None,
            unit_sign=0,
            residual=residual,
            beta_part=abs(sigma),
            eigenvalues=eig_tuple,
            reason="U direction is null; no unit normalization exists",
        )
    sign = 1 if causal > 0 else -1
    u = u_raw / math.sqrt(abs(causal))
    a_form = g @ u
    beta = sigma * abs(causal)
    return QEFit(
        verdict="quasi-einstein",
        alpha=alpha,
        beta=beta,
        A=a_form,
        U=u,
        unit_sign=sign,
        residual=residual,
        beta_part=abs(sigma),
        eigenvalues=eig_tuple,
    )


def _qcc_basis(g: np.ndarray, a_form: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    t1 = np.einsum("jk,il->ijkl", g, g) - np.einsum("ik,jl->ijkl", g, g)
    t2 = (
        np.einsum("il,j,k->ijkl", g, a_form, a_form)
        - np.einsum("ik,j,l->ijkl", g, a_form, a_form)
        + np.einsum("jk,i,l->ijkl", g, a_form, a_form)
        - np.einsum("jl,i,k->ijkl", g, a_form, a_form)
    )
    return t1, t2


def check_quasi_constant_curvature(
    g: np.ndarray, riemann: np.ndarray, tol: float = DEFAULT_FIT_TOL
) -> QCCFit:
    """Least-squares fit of the lowered curvature tensor to the ansatz

        R[i,j,k,l] = a (g_jk g_il - g_ik g_jl)
                   + b (g_il A_j A_k - g_ik A_j A_l + g_jk A_i A_l - g_jl A_i A_k)

    with A taken from the quasi-Einstein fit of the Ricci contraction.
    Raises on input that lacks curvature symmetries; a failed structure
    fit is reported, not raised.
    """
    g = np.asarray(g, dtype=float)
    r = np.asarray(riemann, dtype=float)
    scale = 1.0 + float(np.max(np.abs(r)))
    worst = max(
        float(np.max(np.abs(r + np.einsum("jikl->ijkl", r)))),
        float(np.max(np.abs(r + np.einsum("ijlk->ijkl", r)))),
        float(np.max(np.abs(r - np.einsum("klij->ijkl", r)))),
    )
    if worst > 1e-6 * scale:
        raise GeometryError(
            f"input tensor lacks curvature symmetries (residual {worst:.3e})"
        )

    ginv = np.linalg.inv(g)
    ricci = np.einsum("il,ijkl->jk", ginv, r)
    ricci_fit = fit_quasi_einstein(g, ricci, tol)
    if not ricci_fit.succeeded:
        return QCCFit(
            passed=False,
            a=None,
            b=None,
            A=None,
            residual=float(np.max(np.abs(r))),
            ricci_fit=ricci_fit,
            reason="Ricci contraction admits no rank-one decomposition",
        )
    a_form = ricci_fit.A if ricci_fit.A is not None else np.zeros(g.shape[0])
    t1, t2 = _qcc_basis(g, a_form)
    design = np.stack([t1.ravel(), t2.ravel()], axis=1)
    coeffs, *_ = np.linalg.lstsq(design, r.ravel(), rcond=None)
    a_val, b_val = (float(coeffs[0]), float(coeffs[1]))
    residual = float(np.max(np.abs(r - a_val * t1 - b_val * t2)))
    return QCCFit(
        passed=bool(residual <= tol * scale),
        a=a_val,
        b=b_val,
        A=a_form,
        residual=residual,
        ricci_fit=ricci_fit,
    )


# ---------------------------------------------------------------------------
# Factor identities under a rank-one ambient decomposition
# ---------------------------------------------------------------------------

def _as_block(product: SequentialWarpedProduct, u) -> BlockVector:
    if isinstance(u, BlockVector):
        return u
    return BlockVector.from_ambient(product, u)


def proposition1_residuals(
    product: SequentialWarpedProduct,
    point,
    qe: tuple[float, float, object],
    tol: float = DEFAULT_FIT_TOL,
) -> list[IdentityReport]:
    """Residuals of the three factor Ricci identities implied by an
    ambient decomposition Ric = alpha g + beta A (x) A.

    Factor Ricci tensors come from the factor charts; warping terms from
    the closed-form frame.  One report per factor.
    """
    frame = _as_frame(product, point)
    alpha, beta, u = qe
    ub = _as_block(product, u)
    m1, m2, m3 = product.dims
    f, h = frame.f_value, frame.h_value
    d1 = m1

    g1, g2, g3 = frame.frame1.metric, frame.frame2.metric, frame.frame3.metric
    hh = frame.hess_h

    a1 = g1 @ ub.x1
    rhs1 = (
        alpha * g1
        + beta * np.outer(a1, a1)
        + (m2 / f) * frame.hess_f
        + (m3 / h) * hh[:d1, :d1]
    )
    res1 = float(np.max(np.abs(frame.frame1.ricci - rhs1)))

    a2 = g2 @ ub.x2
    rhs2 = (
        (alpha * f**2 + f * frame.lap_f + (m2 - 1) * frame.grad_f_norm2) * g2
        + beta * f**4 * np.outer(a2, a2)
        + (m3 / h) * hh[d1:, d1:]
    )
    res2 = float(np.max(np.abs(frame.frame2.ricci - rhs2)))

    a3 = g3 @ ub.x3
    rhs3 = (
        alpha * h**2 + h * frame.lap_h + (m3 - 1) * frame.grad_h_norm2
    ) * g3 + beta * h**4 * np.outer(a3, a3)
    res3 = float(np.max(np.abs(frame.frame3.ricci - rhs3)))

    block_norms = {
        "U1_norm": float(np.sqrt(abs(ub.x1 @ g1 @ ub.x1))),
        "U2_norm": float(np.sqrt(abs(ub.x2 @ g2 @ ub.x2))),
        "U3_norm": float(np.sqrt(abs(ub.x3 @ g3 @ ub.x3))),
    }
    return [
        IdentityReport.from_residual("proposition1_i1", res1, tol, details=block_norms),
        IdentityReport.from_residual("proposition1_i2", res2, tol, details=block_norms),
        IdentityReport.from_residual("proposition1_i3", res3, tol, details=block_norms),
    ]


def lambda_at(product: SequentialWarpedProduct, point, alpha: float) -> float:
    """alpha f^2 + f (Lap f on the first factor) + (m2 - 1) |grad f|^2."""
    frame = _as_frame(product, point)
    m2 = product.m2.dim
    return float(
        alpha * frame.f_value**2
        + frame.f_value * frame.lap_f
        + (m2 - 1) * frame.grad_f_norm2
    )


def nu_at(product: SequentialWarpedProduct, point, alpha: float) -> float:
    """alpha h^2 + h (Lap h on the inner chart) + (m3 - 1) |grad h|^2."""
    frame = _as_frame(product, point)
    m3 = product.m3.dim
    return float(
        alpha * frame.h_value**2
        + frame.h_value * frame.lap_h
        + (m3 - 1) * frame.grad_h_norm2
    )


# ---------------------------------------------------------------------------
# Torus quadrature
# ---------------------------------------------------------------------------

def _torus_grid(manifold: FactorManifold, nodes: int) -> np.ndarray:
    if not manifold.fully_periodic:
        raise GeometryError(
            f"{manifold.name!r} is not fully periodic; torus quadrature undefined"
        )
    axes = [np.arange(nodes) * (period / nodes) for period in manifold.periods]
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=-1)


def _volume_means(
    manifold: FactorManifold, grid: np.ndarray, fns
) -> list[float]:
    """Volume-weighted means of pointwise quantities over a torus grid.

    ``fns`` maps a ChartFrame to a tuple of floats.  Equispaced nodes on a
    periodic chart make this the tensor-product trapezoid rule, exact in
    the limit and spectrally accurate for smooth integrands.
    """
    sums = None
    weight_total = 0.0
    for row in grid:
        frame = ChartFrame(manifold, row)
        weight = math.sqrt(abs(frame.det))
        values = fns(frame)
        if sums is None:
            sums = [0.0] * len(values)
        for i, v in enumerate(values):
            sums[i] += weight * v
        weight_total += weight
    return [s / weight_total for s in sums]


def torus_divergence_residual(
    manifold: FactorManifold, phi: Expr, nodes: int
) -> float:
    """|mean(phi Lap phi + |grad phi|^2)| over a fully periodic chart.

    The integrand is the divergence of phi grad phi, so the exact mean is
    zero on any closed manifold; the residual measures quadrature plus
    rounding error only.
    """
    grid = _torus_grid(manifold, nodes)

    def fields(frame: ChartFrame) -> tuple[float]:
        value, dphi, _ = frame.field_jets(phi)
        grad = frame.inverse @ dphi
        return (value * frame.laplacian(phi) + float(dphi @ grad),)

    (mean,) = _volume_means(manifold, grid, fields)
    return abs(mean)


def torus_average_identity(
    product: SequentialWarpedProduct,
    alpha: float,
    nodes: int,
    field_name: str = "lambda",
    tol: float = 1e-10,
) -> IdentityReport:
    """Volume-averaged form of the lambda (or nu) field over a torus.

    Checks that the mean of the pointwise field equals
    ``alpha mean(w^2) + (d - 2) mean(|grad w|^2)`` where ``w`` is the
    relevant warping and ``d`` the warped fiber dimension; equivalently
    that ``mean(w Lap w + |grad w|^2) = 0`` by the divergence theorem.
    """
    if field_name == "lambda":
        manifold, phi, fiber_dim = product.m1, product.f, product.m2.dim
    elif field_name == "nu":
        manifold, phi, fiber_dim = inner_chart(product), product.h, product.m3.dim
        if product.m1.fully_periodic and product.m2.fully_periodic:
            manifold = FactorManifold(
                name=manifold.name,
                coords=manifold.coords,
                metric=manifold.metric,
                signature=manifold.signature,
                periods=product.m1.periods + product.m2.periods,
            )
    else:
        raise ValueError(f"field_name must be 'lambda' or 'nu', got {field_name!r}")

    grid = _torus_grid(manifold, nodes)

    def fields(frame: ChartFrame) -> tuple[float, float, float]:
        value, dphi, _ = frame.field_jets(phi)
        grad_norm2 = float(dphi @ (frame.inverse @ dphi))
        lap = frame.laplacian(phi)
        lam = alpha * value**2 + value * lap + (fiber_dim - 1) * grad_norm2
        return (lam, value**2, grad_norm2)

    mean_field, mean_sq, mean_grad = _volume_means(manifold, grid, fields)
    rhs = alpha * mean_sq + (fiber_dim - 2) * mean_grad
    residual = abs(mean_field - rhs)
    return IdentityReport.from_residual(
        f"torus_average_{field_name}",
        residual,
        tol,
        points=grid.shape[0],
        details={
            "mean_field": mean_field,
            "averaged_rhs": rhs,
            "alpha": alpha,
            "nodes": nodes,
        },
    )


# ---------------------------------------------------------------------------
# Differential conditions forcing constant lambda / nu
# ---------------------------------------------------------------------------

def condition_residuals(
    product: SequentialWarpedProduct,
    point,
    qe: tuple[float, float, object],
    lam: float,
    nu: float | None = None,
    tol: float = DEFAULT_FIT_TOL,
) -> tuple[IdentityReport, IdentityReport]:
    """Pointwise residuals of the two displayed differential conditions.

    Both identities are evaluated against every coordinate direction of
    the inner chart.  In the second condition the paired fiber arguments
    are taken equal to the probed direction, and the divergence of the
    scalar f^4 is read as its differential; these readings are recorded
    here once and used consistently.
    """
    frame = _as_frame(product, point)
    alpha, beta, u = qe
    ub = _as_block(product, u)
    m1, m2, m3 = product.dims
    f, h = frame.f_value, frame.h_value
    inner = frame.inner_frame
    d1 = m1
    dim = d1 + m2

    grad_f_ext = np.concatenate([frame.grad_f, np.zeros(m2)])
    df_ext = np.concatenate([frame.df, np.zeros(m2)])
    g1u1 = frame.frame1.metric @ ub.x1
    g2u2 = frame.frame2.metric @ ub.x2
    grad_h2 = frame.grad_h[d1:]

    div_hess_h = inner.div_hessian(product.h)
    dlap_h = inner.grad_laplacian(product.h)
    dlap_f = np.concatenate([frame.frame1.grad_laplacian(product.f), np.zeros(m2)])
    hess_h = frame.hess_h
    dh = frame.dh

    # condition forcing constant lambda
    res1 = 0.0
    gradf_u1 = float(frame.df @ ub.x1)
    div_hh_over_h = div_hess_h / h - (hess_h @ frame.grad_h) / h**2
    dlap_h_over_h = dlap_h / h - frame.lap_h * dh / h**2
    for j in range(dim):
        g1xu = float(g1u1[j]) if j < d1 else 0.0
        lhs = (
            (m2 * beta / f) * gradf_u1 * g1xu
            + (m2 * m3 / (f * h)) * float(grad_f_ext @ hess_h[:, j])
            + m3 * float(div_hh_over_h[j])
        )
        rhs = (m3 / 2.0) * float(dlap_h_over_h[j]) + (2.0 * m2 / f) * float(dlap_f[j])
        res1 = max(res1, abs(lhs - rhs))

    # condition forcing constant nu
    res2 = 0.0
    g2u2u2 = float(ub.x2 @ g2u2)
    gradh2_u2 = float(grad_h2 @ g2u2)
    for j in range(dim):
        g2xu = float(g2u2[j - d1]) if j >= d1 else 0.0
        df4 = 4.0 * f**3 * float(df_ext[j])
        lhs = (
            (m3 / h) * (lam - alpha) * float(dh[j])
            + beta * df4 * g2xu**2
            + (m3 * beta / h) * f**4 * gradh2_u2 * g2xu
        )
        rhs = (2.0 * m3 / h) * float(dlap_h[j]) + 2.0 * beta * f**3 * float(
            df_ext[j]
        ) * g2u2u2
        res2 = max(res2, abs(lhs - rhs))

    details = {"lambda": lam, "nu": nu, "alpha": alpha, "beta": beta}
    return (
        IdentityReport.from_residual(
            "condition1", res1, tol, informational=True, details=details
        ),
        IdentityReport.from_residual(
            "condition2", res2, tol, informational=True, details=details
        ),
    )


# ---------------------------------------------------------------------------
# Rigidity condition evaluators
# ---------------------------------------------------------------------------

def theorem2_conditions(
    product: SequentialWarpedProduct,
    qe: tuple[float, float, object] | None,
    lam: float,
    nu: float,
    points: Iterable,
    tol: float = DEFAULT_FIT_TOL,
) -> list[IdentityReport]:
    """Evaluate the three constancy-forcing hypothesis bundles over samples.

    Each report passes when the hypothesis fails somewhere (vacuous) or
    the conclusion - a vanishing warping gradient - holds numerically at
    every sample.  ``qe = None`` marks the rank-one decomposition itself
    unavailable, which voids every hypothesis.
    """
    alpha, beta = (qe[0], qe[1]) if qe is not None else (None, None)
    m2, m3 = product.m2.dim, product.m3.dim
    # the rigidity statements concern compact Riemannian factors; indefinite
    # gradient norms would make the hypotheses meaningless
    riemannian = all(fac.signature == "riemannian" for fac in product.factors)
    rows = [_as_frame(product, p) for p in points]
    n = len(rows)

    scal3 = [fr.frame3.scalar for fr in rows]
    lap_h = [fr.lap_h for fr in rows]
    gradf2 = [fr.grad_f_norm2 for fr in rows]
    gradh2 = [fr.grad_h_norm2 for fr in rows]
    fvals = [fr.f_value for fr in rows]

    out = []

    hyp1 = (
        riemannian
        and alpha is not None
        and beta is not None
        and alpha > tol
        and beta > tol
        and all(s <= tol for s in scal3)
        and all(v >= -tol for v in lap_h)
    )
    res1 = max(abs(v) for v in gradh2) if hyp1 else 0.0
    out.append(
        IdentityReport.from_residual(
            "theorem2_i",
            res1,
            tol,
            points=n,
            informational=True,
            details={"hypothesis_holds": hyp1},
        )
    )

    gaps = [lam - alpha * f**2 for f in fvals] if alpha is not None else []
    hyp2 = bool(
        riemannian
        and m2 == 1
        and gaps
        and (all(v > tol for v in gaps) or all(v < -tol for v in gaps))
    )
    res2 = max(abs(v) for v in gradf2) if hyp2 else 0.0
    out.append(
        IdentityReport.from_residual(
            "theorem2_ii",
            res2,
            tol,
            points=n,
            informational=True,
            details={"hypothesis_holds": hyp2},
        )
    )

    hyp3 = (
        riemannian
        and alpha is not None
        and alpha > tol
        and m2 >= 2
        and m3 >= 2
        and all(v >= lam / (m2 - 1) - tol for v in gradf2)
        and all(v >= nu / (m3 - 1) - tol for v in gradh2)
    )
    res3 = max(max(abs(v) for v in gradf2), max(abs(v) for v in gradh2)) if hyp3 else 0.0
    out.append(
        IdentityReport.from_residual(
            "theorem2_iii",
            res3,
            tol,
            points=n,
            informational=True,
            details={"hypothesis_holds": hyp3},
        )
    )
    return out
