"""Coordinate-chart calculus for (semi-)Riemannian metrics.

Everything here is computed from the metric component expressions alone,
with derivatives supplied by exact forward-mode jets.  This module is the
brute-force route: curvature of any chart, however assembled, with no
knowledge of product structure.  Closed-form results elsewhere in the
package are judged against it.

Index conventions, fixed once for the whole package:

* ``christoffel[k, i, j]`` is Gamma^k_ij.
* ``riemann_up[l, i, j, k]`` is R^l_ijk with
  R^l_ijk = d_i Gamma^l_jk - d_j Gamma^l_ik
          + Gamma^l_im Gamma^m_jk - Gamma^l_jm Gamma^m_ik,
  i.e. R(X, Y)Z = nabla_X nabla_Y Z - nabla_Y nabla_X Z - nabla_[X,Y] Z.
* ``riemann[i, j, k, l]`` is the lowered tensor g(R(e_i, e_j)e_k, e_l).
* ``ricci[j, k]`` traces the first slot: Ric(X, Y) = tr(Z -> R(Z, X)Y).

Under these conventions the unit sphere has Ric = +g.

A ``ChartFrame`` holds one point, or a stack of N sample points with every
tensor above carrying the sample axis first (``christoffel[n, k, i, j]``).
The stack is vector forward mode (Griewank & Walther, *Evaluating
Derivatives*, 2nd ed., ch. 3 and 13): stacked jets and ``...`` einsums do,
for all N samples at once, the arithmetic a one-point frame does at one.
``frame[i]`` hands sample ``i`` to code that works one point at a time.
One point keeps the scalar jets (``eval_jet``); see ``ChartFrame``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, cached_property
from typing import Iterable, Mapping, Sequence

import numpy as np

from .expressions import DomainError, Expr, differentiate, evaluate, parse
from .jets import eval_jet, eval_jet_stack

__all__ = [
    "FactorManifold",
    "CurvatureBundle",
    "ChartFrame",
    "GeometryError",
    "DegenerateMetricError",
    "SignatureError",
    "MetricValidationError",
    "factor",
    "christoffel_at",
    "riemann_at",
    "ricci_at",
    "scalar_at",
    "gradient_at",
    "hessian_at",
    "laplacian_at",
    "div_sym2_at",
    "div_hessian_at",
    "grad_laplacian_at",
    "curvature_bundle_at",
    "symmetry_residuals",
    "validate_factor_at",
    "sample_box",
]

DEGENERACY_THRESHOLD = 1e-12


class GeometryError(ValueError):
    """Base class for chart-level geometric failures."""


class DegenerateMetricError(GeometryError):
    def __init__(self, name: str, point: Sequence[float], det: float):
        super().__init__(
            f"metric of {name!r} is degenerate at {list(map(float, point))}: |det g| = {abs(det):.3e}"
        )
        self.point = tuple(float(v) for v in point)


class SignatureError(GeometryError):
    """Eigenvalue signs of the metric do not match the declared signature."""


class MetricValidationError(GeometryError):
    """Metric entries are asymmetric or otherwise malformed."""


@dataclass(frozen=True)
class FactorManifold:
    """A coordinate chart: named coordinates plus a matrix of metric entries.

    ``periods`` optionally marks coordinates as periodic (value = period
    length); fully periodic charts support exact torus quadrature.
    """

    name: str
    coords: tuple[str, ...]
    metric: tuple[tuple[Expr, ...], ...]
    signature: str = "riemannian"
    periods: tuple[float | None, ...] | None = None

    def __post_init__(self):
        m = len(self.coords)
        if m == 0:
            raise MetricValidationError(f"{self.name!r} has no coordinates")
        if len(self.metric) != m or any(len(row) != m for row in self.metric):
            raise MetricValidationError(
                f"{self.name!r}: metric must be {m}x{m} to match coordinates"
            )
        if self.signature not in ("riemannian", "lorentzian"):
            raise MetricValidationError(
                f"{self.name!r}: unknown signature {self.signature!r}"
            )
        if self.periods is not None and len(self.periods) != m:
            raise MetricValidationError(
                f"{self.name!r}: need one period entry per coordinate"
            )

    @property
    def dim(self) -> int:
        return len(self.coords)

    @property
    def fully_periodic(self) -> bool:
        return self.periods is not None and all(p is not None for p in self.periods)

    def point_map(self, point: Sequence[float]) -> dict[str, float]:
        if len(point) != self.dim:
            raise GeometryError(
                f"{self.name!r} expects {self.dim} coordinates, got {len(point)}"
            )
        return {name: float(v) for name, v in zip(self.coords, point)}


def factor(
    name: str,
    coords: Sequence[str],
    entries: Sequence[Sequence[str | Expr]],
    signature: str = "riemannian",
    periods: Mapping[str, float] | None = None,
) -> FactorManifold:
    """Build a FactorManifold, parsing any string metric entries."""
    coords = tuple(coords)
    parsed = tuple(
        tuple(e if isinstance(e, Expr) else parse(e, coords) for e in row)
        for row in entries
    )
    per = None
    if periods:
        per = tuple(periods.get(c) for c in coords)
    return FactorManifold(name, coords, parsed, signature=signature, periods=per)


@lru_cache(maxsize=None)
def _derived(e: Expr, coord: str) -> Expr:
    return differentiate(e, coord)


class ChartFrame:
    """All pointwise geometry of one chart, computed lazily, at one point or
    at a stack of sample points.

    ``points`` has shape ``(m,)`` for one point or ``(N, m)`` for a stack of
    N samples.  On a stack every stage and field method carries the sample
    axis first: ``metric`` is ``(N, m, m)``, ``christoffel`` ``(N, m, m, m)``,
    ``det``, ``scalar`` and ``laplacian`` are ``(N,)`` arrays.  Each sample
    gets the arithmetic a one-point frame would do (``...`` einsums, batched
    ``inv`` / ``det`` / ``matmul``), so the two agree bit for bit wherever the
    jets do.  A one-point frame is unchanged: the same shapes, and Python
    floats from ``det``, ``scalar`` and ``laplacian``.

    Jets: a stack of N > 1 points evaluates each metric entry and field once
    over all samples (``eval_jet_stack``); one point, or a stack of one, uses
    the scalar ``eval_jet``, which is the faster of the two at one point.

    ``frame[i]`` is the one-point frame at sample ``i``.  It receives every
    stage the stack has already computed, as a slice; a stage the stack never
    computed is computed by the one-point frame when asked for.

    A stack raises the error a loop of one-point frames would raise first:
    ``GeometryError`` (non-finite jets), ``DegenerateMetricError`` and
    ``DomainError`` name the point of the first failing sample.
    """

    def __init__(self, manifold: FactorManifold, points: Sequence[float] | np.ndarray):
        self.manifold = manifold
        self.point = np.asarray(points, dtype=float)
        if self.point.ndim not in (1, 2) or self.point.shape[-1] != manifold.dim:
            raise GeometryError(
                f"{manifold.name!r} expects {manifold.dim} coordinates, got shape {self.point.shape}"
            )
        if not np.isfinite(self.point).all():
            finite = np.isfinite(self.point).all(axis=-1)
            raise GeometryError(f"non-finite point {self._at_first(~finite)!r}")
        # one point has shape (m,), a stack of samples (N, m)
        self.stacked = self.point.ndim == 2
        if not self.stacked:
            self.point_map = manifold.point_map(self.point)
        # field jets and their third derivatives, by expression
        self._fields: dict[Expr, tuple] = {}
        self._thirds: dict[Expr, np.ndarray] = {}

    def __getitem__(self, i: int) -> "ChartFrame":
        """The one-point frame at sample ``i``, holding every computed stage."""
        one = ChartFrame(self.manifold, self.point[i])
        _hand_over(self, one, i)
        one._fields = {phi: _sample(jets, i) for phi, jets in self._fields.items()}
        one._thirds = {phi: d3[i] for phi, d3 in self._thirds.items()}
        return one

    def _at_first(self, bad) -> np.ndarray:
        """The point of the first sample where ``bad`` holds."""
        return self.point.reshape(-1, self.manifold.dim)[int(np.argmax(np.reshape(bad, -1)))]

    def _jets(self, e: Expr):
        """Order-2 jets of ``e``: a value, gradient and Hessian per sample."""
        coords = self.manifold.coords
        if not self.stacked:
            return eval_jet(e, self.point_map, 2, coords)
        try:
            if self.point.shape[0] > 1:
                with np.errstate(over="ignore", invalid="ignore"):
                    return eval_jet_stack(e, self.point, coords)
            v, grad, hess = eval_jet(e, self.manifold.point_map(self.point[0]), 2, coords)
            return np.array([v]), grad[None], hess[None]
        except DomainError as exc:
            i = getattr(exc, "node", 0)
            raise DomainError(
                f"{getattr(exc, 'reason', exc)} at {self.point[i].tolist()}"
            ) from None

    # -- metric jets --------------------------------------------------------

    @cached_property
    def _metric_jets(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        m = self.manifold.dim
        lead = self.point.shape[:-1]
        g = np.zeros(lead + (m, m))
        dg = np.zeros(lead + (m, m, m))
        d2g = np.zeros(lead + (m, m, m, m))
        for i in range(m):
            for j in range(i, m):
                v, grad, hess = self._jets(self.manifold.metric[i][j])
                g[..., i, j] = g[..., j, i] = v
                dg[..., :, i, j] = dg[..., :, j, i] = grad
                d2g[..., :, :, i, j] = d2g[..., :, :, j, i] = hess
        if not (np.isfinite(g).all() and np.isfinite(dg).all() and np.isfinite(d2g).all()):
            finite = (
                np.isfinite(g).all(axis=(-2, -1))
                & np.isfinite(dg).all(axis=(-3, -2, -1))
                & np.isfinite(d2g).all(axis=(-4, -3, -2, -1))
            )
            raise GeometryError(
                f"metric of {self.manifold.name!r} or one of its first two derivatives "
                f"is not finite at {self._at_first(~finite).tolist()}"
            )
        return g, dg, d2g

    @cached_property
    def metric(self) -> np.ndarray:
        return self._metric_jets[0]

    @cached_property
    def dmetric(self) -> np.ndarray:
        return self._metric_jets[1]

    @cached_property
    def d2metric(self) -> np.ndarray:
        return self._metric_jets[2]

    @cached_property
    def d3metric(self) -> np.ndarray:
        """d3metric[a, b, c, i, j] = d_a d_b d_c g_ij, via one symbolic pass."""
        m = self.manifold.dim
        d3g = np.zeros(self.point.shape[:-1] + (m, m, m, m, m))
        for c, cname in enumerate(self.manifold.coords):
            for i in range(m):
                for j in range(i, m):
                    hess = self._jets(_derived(self.manifold.metric[i][j], cname))[2]
                    d3g[..., :, :, c, i, j] = d3g[..., :, :, c, j, i] = hess
        return d3g

    @cached_property
    def det(self) -> float | np.ndarray:
        return per_sample_scalar(np.linalg.det(self.metric))

    @cached_property
    def inverse(self) -> np.ndarray:
        degenerate = np.abs(self.det) <= DEGENERACY_THRESHOLD
        if degenerate.any():
            k = int(np.argmax(np.reshape(degenerate, -1)))
            raise DegenerateMetricError(
                self.manifold.name, self._at_first(degenerate), np.reshape(self.det, -1)[k]
            )
        return np.linalg.inv(self.metric)

    @cached_property
    def dinverse(self) -> np.ndarray:
        return -np.einsum("...km,...amn,...nl->...akl", self.inverse, self.dmetric, self.inverse)

    @cached_property
    def d2inverse(self) -> np.ndarray:
        """d2inverse[a, b, k, l] = d_a d_b g^kl.

        The mixed term g^-1 dg_a g^-1 dg_b g^-1 reuses the cached
        ``dinverse`` (= -g^-1 dg_a g^-1): one matmul and one two-operand
        einsum, O(m^5), where a five-operand einsum without a contraction
        path cost O(m^9).
        """
        gi, dg, d2g = self.inverse, self.dmetric, self.d2metric
        mixed = -np.einsum("...ako,...bol->...abkl", self.dinverse, dg @ gi[..., None, :, :])
        return mixed + np.swapaxes(mixed, -4, -3) - np.einsum(
            "...km,...abmn,...nl->...abkl", gi, d2g, gi
        )

    # -- connection and curvature -------------------------------------------

    @cached_property
    def _gamma_source(self) -> np.ndarray:
        """T[l, i, j] = d_i g_jl + d_j g_il - d_l g_ij."""
        dg = self.dmetric
        return (
            np.einsum("...ijl->...lij", dg) + np.einsum("...jil->...lij", dg) - dg
        )

    @cached_property
    def christoffel(self) -> np.ndarray:
        return 0.5 * np.einsum("...kl,...lij->...kij", self.inverse, self._gamma_source)

    @cached_property
    def _dgamma_source(self) -> np.ndarray:
        d2g = self.d2metric
        return (
            np.einsum("...aijl->...alij", d2g) + np.einsum("...ajil->...alij", d2g) - d2g
        )

    @cached_property
    def dchristoffel(self) -> np.ndarray:
        """dchristoffel[a, k, i, j] = d_a Gamma^k_ij."""
        return 0.5 * (
            np.einsum("...akl,...lij->...akij", self.dinverse, self._gamma_source)
            + np.einsum("...kl,...alij->...akij", self.inverse, self._dgamma_source)
        )

    @cached_property
    def d2christoffel(self) -> np.ndarray:
        # 0.5 (A + cross + cross(a<->b) + g^-1 d2T), summed in that order in
        # place: on a stack these are (N, m^5) arrays, and fewer of them live
        # at once
        out = np.einsum("...abkl,...lij->...abkij", self.d2inverse, self._gamma_source)
        cross = np.einsum("...akl,...blij->...abkij", self.dinverse, self._dgamma_source)
        out += cross
        out += np.swapaxes(cross, -5, -4)
        del cross
        d3g = self.d3metric
        d2T = np.einsum("...abijl->...ablij", d3g) + np.einsum("...abjil->...ablij", d3g)
        d2T -= d3g
        out += np.einsum("...kl,...ablij->...abkij", self.inverse, d2T)
        out *= 0.5
        return out

    @cached_property
    def riemann_up(self) -> np.ndarray:
        ga, dga = self.christoffel, self.dchristoffel
        return (
            np.einsum("...iljk->...lijk", dga)
            - np.einsum("...jlik->...lijk", dga)
            + np.einsum("...lim,...mjk->...lijk", ga, ga)
            - np.einsum("...ljm,...mik->...lijk", ga, ga)
        )

    @cached_property
    def riemann(self) -> np.ndarray:
        """Lowered tensor riemann[i, j, k, l] = g(R(e_i, e_j)e_k, e_l)."""
        return np.einsum("...lm,...mijk->...ijkl", self.metric, self.riemann_up)

    @cached_property
    def ricci(self) -> np.ndarray:
        return np.einsum("...iijk->...jk", self.riemann_up)

    @cached_property
    def scalar(self) -> float | np.ndarray:
        return per_sample_scalar(np.einsum("...jk,...jk->...", self.inverse, self.ricci))

    @cached_property
    def driemann_up(self) -> np.ndarray:
        ga, dga, d2ga = self.christoffel, self.dchristoffel, self.d2christoffel
        # summed left to right in place, as d2christoffel
        out = np.einsum("...ailjk->...alijk", d2ga) - np.einsum("...ajlik->...alijk", d2ga)
        out += np.einsum("...alim,...mjk->...alijk", dga, ga)
        out += np.einsum("...lim,...amjk->...alijk", ga, dga)
        out -= np.einsum("...aljm,...mik->...alijk", dga, ga)
        out -= np.einsum("...ljm,...amik->...alijk", ga, dga)
        return out

    @cached_property
    def dricci(self) -> np.ndarray:
        """dricci[a, j, k] = d_a Ric_jk."""
        return np.einsum("...aiijk->...ajk", self.driemann_up)

    @cached_property
    def dscalar(self) -> np.ndarray:
        return np.einsum("...ajk,...jk->...a", self.dinverse, self.ricci) + np.einsum(
            "...jk,...ajk->...a", self.inverse, self.dricci
        )

    @cached_property
    def div_ricci(self) -> np.ndarray:
        """(div Ric)_j = g^ik (d_i Ric_kj - Gamma^m_ik Ric_mj - Gamma^m_ij Ric_km)."""
        return self._divergence(self.dricci, self.ricci)

    def _divergence(self, dt: np.ndarray, t: np.ndarray) -> np.ndarray:
        """Divergence of a symmetric 2-tensor ``t`` with partials ``dt[a, i, j]``."""
        gi, ga = self.inverse, self.christoffel
        return (
            np.einsum("...ik,...ikj->...j", gi, dt)
            - np.einsum("...ik,...mik,...mj->...j", gi, ga, t)
            - np.einsum("...ik,...mij,...km->...j", gi, ga, t)
        )

    # -- scalar fields -------------------------------------------------------

    def field_jets(self, phi: Expr) -> tuple[float, np.ndarray, np.ndarray]:
        jets = self._fields.get(phi)
        if jets is None:
            jets = self._fields[phi] = self._jets(phi)
        return jets

    def gradient(self, phi: Expr) -> np.ndarray:
        _, dphi, _ = self.field_jets(phi)
        return matvec(self.inverse, dphi)

    def hessian(self, phi: Expr) -> np.ndarray:
        _, dphi, d2phi = self.field_jets(phi)
        return d2phi - np.einsum("...kij,...k->...ij", self.christoffel, dphi)

    def laplacian(self, phi: Expr) -> float | np.ndarray:
        return per_sample_scalar(np.einsum("...ij,...ij->...", self.inverse, self.hessian(phi)))

    def grad_norm2(self, phi: Expr) -> float | np.ndarray:
        _, dphi, _ = self.field_jets(phi)
        # (dphi @ inverse) @ dphi, in the order a one-point ``@`` chain takes
        lowered = np.matmul(dphi[..., None, :], self.inverse)[..., 0, :]
        return per_sample_scalar(dot(lowered, dphi))

    def _field_third(self, phi: Expr) -> np.ndarray:
        d3 = self._thirds.get(phi)
        if d3 is None:
            m = self.manifold.dim
            d3 = np.zeros(self.point.shape[:-1] + (m, m, m))
            for c, cname in enumerate(self.manifold.coords):
                d3[..., :, :, c] = self._jets(_derived(phi, cname))[2]
            self._thirds[phi] = d3
        return d3

    def dhessian(self, phi: Expr) -> np.ndarray:
        """dhessian[a, i, j] = d_a of the covariant Hessian component H_ij."""
        _, dphi, d2phi = self.field_jets(phi)
        d3phi = self._field_third(phi)
        return (
            np.einsum("...ija->...aij", d3phi)
            - np.einsum("...akij,...k->...aij", self.dchristoffel, dphi)
            - np.einsum("...kij,...ak->...aij", self.christoffel, d2phi)
        )

    def grad_laplacian(self, phi: Expr) -> np.ndarray:
        """Components d_a (Lap phi)."""
        hess = self.hessian(phi)
        return np.einsum("...aij,...ij->...a", self.dinverse, hess) + np.einsum(
            "...ij,...aij->...a", self.inverse, self.dhessian(phi)
        )

    def div_hessian(self, phi: Expr) -> np.ndarray:
        """Divergence (one lowered index) of the Hessian of ``phi``."""
        return self._divergence(self.dhessian(phi), self.hessian(phi))

    def div_sym2(self, entries: Sequence[Sequence[Expr]]) -> np.ndarray:
        """Divergence of a symmetric 2-tensor given by expression entries."""
        if self.stacked:
            return np.stack([self[i].div_sym2(entries) for i in range(self.point.shape[0])])
        m = self.manifold.dim
        t = np.zeros((m, m))
        dt = np.zeros((m, m, m))
        for i in range(m):
            for j in range(m):
                v, grad = eval_jet(entries[i][j], self.point_map, 1, self.manifold.coords)
                t[i, j] = v
                dt[:, i, j] = grad
        return self._divergence(dt, t)


def matvec(a: np.ndarray, v: np.ndarray) -> np.ndarray:
    """``a @ v`` per sample, for matrices ``a[..., i, j]`` and vectors ``v[..., j]``.

    Each sample gets the BLAS call that ``a[i] @ v[i]`` makes, so a stack
    agrees bit for bit with a loop over one-point frames.
    """
    return np.matmul(a, v[..., None])[..., 0]


def dot(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """``u @ v`` per sample, for vectors ``u[..., i]`` and ``v[..., i]``."""
    return np.matmul(u[..., None, :], v[..., :, None])[..., 0, 0]


def per_sample_scalar(value):
    """A scalar per sample: an ``(N,)`` array on a stack, a Python float at
    one point."""
    return float(value) if np.ndim(value) == 0 else value


def _sample(value, i: int):
    """Sample ``i`` of a stacked stage: a float where the stage is a
    per-sample scalar, the one-point frame where it is a stacked frame."""
    if isinstance(value, tuple):
        return tuple(_sample(v, i) for v in value)
    if isinstance(value, ChartFrame):
        return value[i]
    return per_sample_scalar(value[i])


def _hand_over(stack, one, i: int) -> None:
    """Give the one-point frame ``one`` sample ``i`` of every cached stage
    that ``stack`` has computed."""
    cls = type(stack)
    for name, value in stack.__dict__.items():
        if isinstance(getattr(cls, name, None), cached_property):
            one.__dict__[name] = _sample(value, i)


# ---------------------------------------------------------------------------
# Module-level operations (thin wrappers over ChartFrame)
# ---------------------------------------------------------------------------

def christoffel_at(manifold: FactorManifold, point: Sequence[float]) -> np.ndarray:
    return ChartFrame(manifold, point).christoffel


def riemann_at(manifold: FactorManifold, point: Sequence[float]) -> np.ndarray:
    """Lowered curvature tensor R[i, j, k, l] = g(R(e_i, e_j)e_k, e_l)."""
    return ChartFrame(manifold, point).riemann


def ricci_at(manifold: FactorManifold, point: Sequence[float]) -> np.ndarray:
    return ChartFrame(manifold, point).ricci


def scalar_at(manifold: FactorManifold, point: Sequence[float]) -> float:
    return ChartFrame(manifold, point).scalar


def gradient_at(manifold: FactorManifold, point: Sequence[float], phi: Expr) -> np.ndarray:
    return ChartFrame(manifold, point).gradient(phi)


def hessian_at(manifold: FactorManifold, point: Sequence[float], phi: Expr) -> np.ndarray:
    return ChartFrame(manifold, point).hessian(phi)


def laplacian_at(manifold: FactorManifold, point: Sequence[float], phi: Expr) -> float:
    return ChartFrame(manifold, point).laplacian(phi)


def div_sym2_at(
    manifold: FactorManifold, point: Sequence[float], entries: Sequence[Sequence[Expr]]
) -> np.ndarray:
    return ChartFrame(manifold, point).div_sym2(entries)


def div_hessian_at(manifold: FactorManifold, point: Sequence[float], phi: Expr) -> np.ndarray:
    return ChartFrame(manifold, point).div_hessian(phi)


def grad_laplacian_at(manifold: FactorManifold, point: Sequence[float], phi: Expr) -> np.ndarray:
    return ChartFrame(manifold, point).grad_laplacian(phi)


@dataclass(frozen=True)
class CurvatureBundle:
    """Pointwise metric and curvature data for one chart."""

    point: tuple[float, ...]
    metric: np.ndarray
    inverse: np.ndarray
    christoffel: np.ndarray
    riemann: np.ndarray
    ricci: np.ndarray
    scalar: float


def curvature_bundle_at(manifold: FactorManifold, point: Sequence[float]) -> CurvatureBundle:
    frame = ChartFrame(manifold, point)
    return CurvatureBundle(
        point=tuple(float(v) for v in frame.point),
        metric=frame.metric,
        inverse=frame.inverse,
        christoffel=frame.christoffel,
        riemann=frame.riemann,
        ricci=frame.ricci,
        scalar=frame.scalar,
    )


def symmetry_residuals(bundle: CurvatureBundle) -> dict[str, float]:
    """Curvature symmetry residuals, normalized by (max |R| + 1).

    ``bundle`` may be a ``ChartFrame``; on a stack each residual is an
    ``(N,)`` array, every sample normalized by its own max |R|.
    """
    r = bundle.riemann
    one_point = r.ndim == 4

    def worst(x: np.ndarray, axes: int):
        out = np.max(np.abs(x), axis=tuple(range(-axes, 0)))
        return float(out) if one_point else out

    scale = worst(r, 4) + 1.0
    first_bianchi = r + np.einsum("...iklj->...ijkl", r) + np.einsum("...iljk->...ijkl", r)
    ga, ric = bundle.christoffel, bundle.ricci
    return {
        "christoffel_symmetry": worst(ga - np.einsum("...kji->...kij", ga), 3) / scale,
        "antisymmetry_first_pair": worst(r + np.einsum("...jikl->...ijkl", r), 4) / scale,
        "antisymmetry_second_pair": worst(r + np.einsum("...ijlk->...ijkl", r), 4) / scale,
        "pair_exchange": worst(r - np.einsum("...klij->...ijkl", r), 4) / scale,
        "first_bianchi": worst(first_bianchi, 4) / scale,
        "ricci_symmetry": worst(ric - np.swapaxes(ric, -1, -2), 2) / scale,
    }


def validate_factor_at(manifold: FactorManifold, points: Iterable[Sequence[float]]) -> None:
    """Check finiteness, symmetry, nondegeneracy, and signature at sample points."""
    for point in points:
        pm = manifold.point_map(point)
        where = list(map(float, point))
        m = manifold.dim
        g = np.zeros((m, m))
        try:
            for i in range(m):
                for j in range(m):
                    g[i, j] = evaluate(manifold.metric[i][j], pm)
        except DomainError as exc:
            raise DomainError(f"metric of {manifold.name!r}: {exc} at {where}") from None
        except OverflowError:
            g[i, j] = np.inf
        if not np.isfinite(g).all():
            raise GeometryError(f"metric of {manifold.name!r} is not finite at {where}")
        if np.max(np.abs(g - g.T)) != 0.0:
            raise MetricValidationError(
                f"{manifold.name!r}: metric entries asymmetric at {where}"
            )
        det = np.linalg.det(g)
        if abs(det) <= DEGENERACY_THRESHOLD:
            raise DegenerateMetricError(manifold.name, point, det)
        eigs = np.linalg.eigvalsh(g)
        negatives = int(np.sum(eigs < 0.0))
        if manifold.signature == "riemannian" and negatives != 0:
            raise SignatureError(
                f"{manifold.name!r}: expected positive-definite metric, eigenvalues {eigs} at {where}"
            )
        if manifold.signature == "lorentzian" and negatives != 1:
            raise SignatureError(
                f"{manifold.name!r}: expected exactly one negative eigenvalue, got {eigs} at {where}"
            )


def sample_box(
    boxes: Mapping[str, tuple[float, float]],
    coords: Sequence[str],
    count: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Draw uniform sample points from per-coordinate open boxes."""
    lo = np.array([boxes[c][0] for c in coords], dtype=float)
    hi = np.array([boxes[c][1] for c in coords], dtype=float)
    return lo + (hi - lo) * rng.random((count, len(coords)))
