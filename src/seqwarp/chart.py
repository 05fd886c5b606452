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
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, cached_property
from typing import Iterable, Mapping, Sequence

import numpy as np

from .expressions import Expr, differentiate, evaluate, parse
from .jets import eval_jet

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
    """All pointwise geometry of one chart at one point, computed lazily.

    ``order`` controls how deep the metric jets go: 2 suffices for
    curvature, 3 adds the derivatives of Ricci needed by divergence
    identities.
    """

    def __init__(self, manifold: FactorManifold, point: Sequence[float]):
        self.manifold = manifold
        self.point = np.asarray(point, dtype=float)
        if self.point.shape != (manifold.dim,):
            raise GeometryError(
                f"{manifold.name!r} expects {manifold.dim} coordinates, got shape {self.point.shape}"
            )
        if not np.all(np.isfinite(self.point)):
            raise GeometryError(f"non-finite point {self.point!r}")
        self.point_map = manifold.point_map(self.point)

    # -- metric jets --------------------------------------------------------

    @cached_property
    def _metric_jets(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        m = self.manifold.dim
        g = np.zeros((m, m))
        dg = np.zeros((m, m, m))
        d2g = np.zeros((m, m, m, m))
        for i in range(m):
            for j in range(i, m):
                v, grad, hess = eval_jet(
                    self.manifold.metric[i][j], self.point_map, 2, self.manifold.coords
                )
                g[i, j] = g[j, i] = v
                dg[:, i, j] = dg[:, j, i] = grad
                d2g[:, :, i, j] = d2g[:, :, j, i] = hess
        if not (np.isfinite(g).all() and np.isfinite(dg).all() and np.isfinite(d2g).all()):
            raise GeometryError(
                f"metric of {self.manifold.name!r} or one of its first two derivatives "
                f"is not finite at {self.point.tolist()}"
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
        d3g = np.zeros((m, m, m, m, m))
        for c, cname in enumerate(self.manifold.coords):
            for i in range(m):
                for j in range(i, m):
                    e = _derived(self.manifold.metric[i][j], cname)
                    _, _, hess = eval_jet(e, self.point_map, 2, self.manifold.coords)
                    d3g[:, :, c, i, j] = d3g[:, :, c, j, i] = hess
        return d3g

    @cached_property
    def det(self) -> float:
        return float(np.linalg.det(self.metric))

    @cached_property
    def inverse(self) -> np.ndarray:
        if abs(self.det) <= DEGENERACY_THRESHOLD:
            raise DegenerateMetricError(self.manifold.name, self.point, self.det)
        return np.linalg.inv(self.metric)

    @cached_property
    def dinverse(self) -> np.ndarray:
        return -np.einsum("km,amn,nl->akl", self.inverse, self.dmetric, self.inverse)

    @cached_property
    def d2inverse(self) -> np.ndarray:
        """d2inverse[a, b, k, l] = d_a d_b g^kl.

        The mixed term g^-1 dg_a g^-1 dg_b g^-1 reuses the cached
        ``dinverse`` (= -g^-1 dg_a g^-1): one matmul and one two-operand
        einsum, O(m^5), where a five-operand einsum without a contraction
        path cost O(m^9).
        """
        gi, dg, d2g = self.inverse, self.dmetric, self.d2metric
        mixed = -np.einsum("ako,bol->abkl", self.dinverse, dg @ gi)
        return mixed + np.transpose(mixed, (1, 0, 2, 3)) - np.einsum(
            "km,abmn,nl->abkl", gi, d2g, gi
        )

    # -- connection and curvature -------------------------------------------

    @cached_property
    def _gamma_source(self) -> np.ndarray:
        """T[l, i, j] = d_i g_jl + d_j g_il - d_l g_ij."""
        dg = self.dmetric
        return (
            np.einsum("ijl->lij", dg) + np.einsum("jil->lij", dg) - dg
        )

    @cached_property
    def christoffel(self) -> np.ndarray:
        return 0.5 * np.einsum("kl,lij->kij", self.inverse, self._gamma_source)

    @cached_property
    def _dgamma_source(self) -> np.ndarray:
        d2g = self.d2metric
        return (
            np.einsum("aijl->alij", d2g) + np.einsum("ajil->alij", d2g) - d2g
        )

    @cached_property
    def dchristoffel(self) -> np.ndarray:
        """dchristoffel[a, k, i, j] = d_a Gamma^k_ij."""
        return 0.5 * (
            np.einsum("akl,lij->akij", self.dinverse, self._gamma_source)
            + np.einsum("kl,alij->akij", self.inverse, self._dgamma_source)
        )

    @cached_property
    def d2christoffel(self) -> np.ndarray:
        d3g = self.d3metric
        d2T = np.einsum("abijl->ablij", d3g) + np.einsum("abjil->ablij", d3g) - d3g
        cross = np.einsum("akl,blij->abkij", self.dinverse, self._dgamma_source)
        return 0.5 * (
            np.einsum("abkl,lij->abkij", self.d2inverse, self._gamma_source)
            + cross
            + np.transpose(cross, (1, 0, 2, 3, 4))
            + np.einsum("kl,ablij->abkij", self.inverse, d2T)
        )

    @cached_property
    def riemann_up(self) -> np.ndarray:
        ga, dga = self.christoffel, self.dchristoffel
        return (
            np.einsum("iljk->lijk", dga)
            - np.einsum("jlik->lijk", dga)
            + np.einsum("lim,mjk->lijk", ga, ga)
            - np.einsum("ljm,mik->lijk", ga, ga)
        )

    @cached_property
    def riemann(self) -> np.ndarray:
        """Lowered tensor riemann[i, j, k, l] = g(R(e_i, e_j)e_k, e_l)."""
        return np.einsum("lm,mijk->ijkl", self.metric, self.riemann_up)

    @cached_property
    def ricci(self) -> np.ndarray:
        return np.einsum("iijk->jk", self.riemann_up)

    @cached_property
    def scalar(self) -> float:
        return float(np.einsum("jk,jk->", self.inverse, self.ricci))

    @cached_property
    def driemann_up(self) -> np.ndarray:
        ga, dga, d2ga = self.christoffel, self.dchristoffel, self.d2christoffel
        return (
            np.einsum("ailjk->alijk", d2ga)
            - np.einsum("ajlik->alijk", d2ga)
            + np.einsum("alim,mjk->alijk", dga, ga)
            + np.einsum("lim,amjk->alijk", ga, dga)
            - np.einsum("aljm,mik->alijk", dga, ga)
            - np.einsum("ljm,amik->alijk", ga, dga)
        )

    @cached_property
    def dricci(self) -> np.ndarray:
        """dricci[a, j, k] = d_a Ric_jk."""
        return np.einsum("aiijk->ajk", self.driemann_up)

    @cached_property
    def dscalar(self) -> np.ndarray:
        return np.einsum("ajk,jk->a", self.dinverse, self.ricci) + np.einsum(
            "jk,ajk->a", self.inverse, self.dricci
        )

    @cached_property
    def div_ricci(self) -> np.ndarray:
        """(div Ric)_j = g^ik (d_i Ric_kj - Gamma^m_ik Ric_mj - Gamma^m_ij Ric_km)."""
        gi, ga, ric = self.inverse, self.christoffel, self.ricci
        return (
            np.einsum("ik,ikj->j", gi, self.dricci)
            - np.einsum("ik,mik,mj->j", gi, ga, ric)
            - np.einsum("ik,mij,km->j", gi, ga, ric)
        )

    # -- scalar fields -------------------------------------------------------

    def field_jets(self, phi: Expr) -> tuple[float, np.ndarray, np.ndarray]:
        return eval_jet(phi, self.point_map, 2, self.manifold.coords)

    def gradient(self, phi: Expr) -> np.ndarray:
        _, dphi, _ = self.field_jets(phi)
        return self.inverse @ dphi

    def hessian(self, phi: Expr) -> np.ndarray:
        _, dphi, d2phi = self.field_jets(phi)
        return d2phi - np.einsum("kij,k->ij", self.christoffel, dphi)

    def laplacian(self, phi: Expr) -> float:
        return float(np.einsum("ij,ij->", self.inverse, self.hessian(phi)))

    def grad_norm2(self, phi: Expr) -> float:
        _, dphi, _ = self.field_jets(phi)
        return float(dphi @ self.inverse @ dphi)

    def _field_third(self, phi: Expr) -> np.ndarray:
        m = self.manifold.dim
        d3 = np.zeros((m, m, m))
        for c, cname in enumerate(self.manifold.coords):
            _, _, hess = eval_jet(_derived(phi, cname), self.point_map, 2, self.manifold.coords)
            d3[:, :, c] = hess
        return d3

    def dhessian(self, phi: Expr) -> np.ndarray:
        """dhessian[a, i, j] = d_a of the covariant Hessian component H_ij."""
        _, dphi, d2phi = self.field_jets(phi)
        d3phi = self._field_third(phi)
        return (
            np.einsum("ija->aij", d3phi)
            - np.einsum("akij,k->aij", self.dchristoffel, dphi)
            - np.einsum("kij,ak->aij", self.christoffel, d2phi)
        )

    def grad_laplacian(self, phi: Expr) -> np.ndarray:
        """Components d_a (Lap phi)."""
        hess = self.hessian(phi)
        return np.einsum("aij,ij->a", self.dinverse, hess) + np.einsum(
            "ij,aij->a", self.inverse, self.dhessian(phi)
        )

    def div_hessian(self, phi: Expr) -> np.ndarray:
        """Divergence (one lowered index) of the Hessian of ``phi``."""
        gi, ga = self.inverse, self.christoffel
        hess = self.hessian(phi)
        return (
            np.einsum("ik,ikj->j", gi, self.dhessian(phi))
            - np.einsum("ik,mik,mj->j", gi, ga, hess)
            - np.einsum("ik,mij,km->j", gi, ga, hess)
        )

    def div_sym2(self, entries: Sequence[Sequence[Expr]]) -> np.ndarray:
        """Divergence of a symmetric 2-tensor given by expression entries."""
        m = self.manifold.dim
        t = np.zeros((m, m))
        dt = np.zeros((m, m, m))
        for i in range(m):
            for j in range(m):
                v, grad = eval_jet(entries[i][j], self.point_map, 1, self.manifold.coords)
                t[i, j] = v
                dt[:, i, j] = grad
        gi, ga = self.inverse, self.christoffel
        return (
            np.einsum("ik,ikj->j", gi, dt)
            - np.einsum("ik,mik,mj->j", gi, ga, t)
            - np.einsum("ik,mij,km->j", gi, ga, t)
        )


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
    """Curvature symmetry residuals, normalized by (max |R| + 1)."""
    r = bundle.riemann
    scale = float(np.max(np.abs(r))) + 1.0
    first_bianchi = r + np.einsum("iklj->ijkl", r) + np.einsum("iljk->ijkl", r)
    return {
        "christoffel_symmetry": float(
            np.max(np.abs(bundle.christoffel - np.einsum("kji->kij", bundle.christoffel)))
        )
        / scale,
        "antisymmetry_first_pair": float(np.max(np.abs(r + np.einsum("jikl->ijkl", r))))
        / scale,
        "antisymmetry_second_pair": float(np.max(np.abs(r + np.einsum("ijlk->ijkl", r))))
        / scale,
        "pair_exchange": float(np.max(np.abs(r - np.einsum("klij->ijkl", r)))) / scale,
        "first_bianchi": float(np.max(np.abs(first_bianchi))) / scale,
        "ricci_symmetry": float(np.max(np.abs(bundle.ricci - bundle.ricci.T))) / scale,
    }


def validate_factor_at(manifold: FactorManifold, points: Iterable[Sequence[float]]) -> None:
    """Check symmetry, nondegeneracy, and signature at sample points."""
    for point in points:
        pm = manifold.point_map(point)
        m = manifold.dim
        g = np.zeros((m, m))
        for i in range(m):
            for j in range(m):
                g[i, j] = evaluate(manifold.metric[i][j], pm)
        if np.max(np.abs(g - g.T)) != 0.0:
            raise MetricValidationError(
                f"{manifold.name!r}: metric entries asymmetric at {list(map(float, point))}"
            )
        det = np.linalg.det(g)
        if abs(det) <= DEGENERACY_THRESHOLD:
            raise DegenerateMetricError(manifold.name, point, det)
        eigs = np.linalg.eigvalsh(g)
        negatives = int(np.sum(eigs < 0.0))
        if manifold.signature == "riemannian" and negatives != 0:
            raise SignatureError(
                f"{manifold.name!r}: expected positive-definite metric, eigenvalues {eigs} at {list(map(float, point))}"
            )
        if manifold.signature == "lorentzian" and negatives != 1:
            raise SignatureError(
                f"{manifold.name!r}: expected exactly one negative eigenvalue, got {eigs} at {list(map(float, point))}"
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
