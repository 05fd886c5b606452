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
One point keeps the scalar jets (``eval_jet``); see ``ChartFrame``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, cached_property
from typing import Iterable, Mapping, Sequence

import numpy as np

from .expressions import DomainError, Expr, differentiate, parse
from .jets import eval_jet, eval_jet_stack

__all__ = [
    "FactorManifold",
    "ChartFrame",
    "GeometryError",
    "DegenerateMetricError",
    "SignatureError",
    "MetricValidationError",
    "factor",
    "symmetry_residuals",
    "validate_factor_at",
    "sample_box",
]

# |det g| / prod_i ||row_i|| at or below this marks a metric degenerate (``is_degenerate``)
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

    A stack raises the error a loop of one-point frames would raise first:
    ``GeometryError`` (non-finite jets), ``DegenerateMetricError`` and
    ``DomainError`` name the point of the first failing sample.  ``validate``
    checks the metric values themselves.
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

    def _at_first(self, bad) -> np.ndarray:
        """The point of the first sample where ``bad`` holds."""
        return self.point.reshape(-1, self.manifold.dim)[int(np.argmax(np.reshape(bad, -1)))]

    def _jets(self, e: Expr):
        """Order-2 jets of ``e``: a value, gradient and Hessian per sample.

        A ``DomainError`` carries ``node``, the failing sample, and
        ``reason``; on a stack its message names the sample's point.  Where
        the scalar walk overflows (``math`` raises), the stacked walk gives
        ``inf`` instead.
        """
        coords = self.manifold.coords
        points = self.point.reshape(-1, self.manifold.dim)
        try:
            if len(points) == 1:
                try:
                    if not self.stacked:
                        return eval_jet(e, self.point_map, 2, coords)
                    v, grad, hess = eval_jet(e, self.manifold.point_map(points[0]), 2, coords)
                    return np.array([v]), grad[None], hess[None]
                except OverflowError:
                    pass
            with np.errstate(over="ignore", invalid="ignore"):
                jets = eval_jet_stack(e, points, coords)
            return jets if self.stacked else tuple(x[0] for x in jets)
        except DomainError as exc:
            i, reason = getattr(exc, "node", 0), getattr(exc, "reason", str(exc))
            err = DomainError(f"{reason} at {points[i].tolist()}" if self.stacked else reason)
            err.node, err.reason = i, reason
            raise err from None

    # -- metric jets --------------------------------------------------------

    @cached_property
    def _metric_jets(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Order-2 jets of the upper-triangle metric entries, mirrored; unchecked."""
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
        return g, dg, d2g

    @cached_property
    def _finite_metric_jets(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``_metric_jets``, once every sample's jets are known to be finite."""
        g, dg, d2g = self._metric_jets
        finite = (
            np.isfinite(g).all(axis=(-2, -1))
            & np.isfinite(dg).all(axis=(-3, -2, -1))
            & np.isfinite(d2g).all(axis=(-4, -3, -2, -1))
        )
        if not finite.all():
            raise GeometryError(
                f"metric of {self.manifold.name!r} or one of its first two derivatives "
                f"is not finite at {self._at_first(~finite).tolist()}"
            )
        return g, dg, d2g

    def validate(self) -> None:
        """Check the metric values at every sample: each entry in its domain
        and finite, the entries symmetric, the metric nondegenerate and of
        the declared signature.

        The values are the order-0 jets the frame computes anyway; a
        lower-triangle entry is evaluated only where its expression differs
        from its mirror.  The error is the one a loop over the samples would
        raise first, each sample checked in the order above.
        """
        m, name, metric = self.manifold.dim, self.manifold.name, self.manifold.metric
        points = self.point.reshape(-1, m)
        mirrored = [(i, j) for i in range(m) for j in range(i) if metric[i][j] != metric[j][i]]
        try:
            g = self._metric_jets[0].reshape(-1, m, m)
            lower = [np.reshape(self._jets(metric[i][j])[0], -1) for i, j in mirrored]
        except DomainError as exc:
            if exc.node:
                ChartFrame(self.manifold, points[: exc.node]).validate()
            raise DomainError(
                f"metric of {name!r}: {exc.reason} at {points[exc.node].tolist()}"
            ) from None
        finite = np.isfinite(g).all(axis=(1, 2))
        asymmetric = np.zeros(len(points), dtype=bool)
        for (i, j), values in zip(mirrored, lower):
            asymmetric |= values != g[:, j, i]
        safe = np.where(finite[:, None, None], g, np.eye(m))
        det = np.linalg.det(safe)
        degenerate = is_degenerate(safe, det)
        eigs = np.linalg.eigvalsh(safe)
        negatives = np.sum(eigs < 0.0, axis=1)
        lorentzian = self.manifold.signature == "lorentzian"
        bad = ~finite | asymmetric | degenerate | (negatives != int(lorentzian))
        if not bad.any():
            return
        k = int(np.argmax(bad))
        where = points[k].tolist()
        if not finite[k]:
            raise GeometryError(f"metric of {name!r} is not finite at {where}")
        if asymmetric[k]:
            raise MetricValidationError(f"{name!r}: metric entries asymmetric at {where}")
        if degenerate[k]:
            raise DegenerateMetricError(name, points[k], det[k])
        if lorentzian:
            raise SignatureError(
                f"{name!r}: expected exactly one negative eigenvalue, got {eigs[k]} at {where}"
            )
        raise SignatureError(
            f"{name!r}: expected positive-definite metric, eigenvalues {eigs[k]} at {where}"
        )

    @cached_property
    def metric(self) -> np.ndarray:
        return self._finite_metric_jets[0]

    @cached_property
    def dmetric(self) -> np.ndarray:
        return self._finite_metric_jets[1]

    @cached_property
    def d2metric(self) -> np.ndarray:
        return self._finite_metric_jets[2]

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
        degenerate = is_degenerate(self.metric, self.det)
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
        return per_sample_scalar(dot(vecmat(dphi, self.inverse), dphi))

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
        m = self.manifold.dim
        t = np.zeros(self.point.shape[:-1] + (m, m))
        dt = np.zeros(self.point.shape[:-1] + (m, m, m))
        for i in range(m):
            for j in range(m):
                t[..., i, j], dt[..., :, i, j], _ = self._jets(entries[i][j])
        return self._divergence(dt, t)


def is_degenerate(metric: np.ndarray, det) -> np.ndarray:
    """Whether ``|det g| <= DEGENERACY_THRESHOLD * prod_i ||row_i||``, per sample.

    By Hadamard's inequality the ratio ``|det g| / prod_i ||row_i||`` lies in
    [0, 1]; it is 1 for a diagonal metric and does not change when the
    metric is rescaled, so neither does the verdict.  The row norms come
    from ``hypot`` and the two sides are compared as logarithms, so nothing
    overflows below the float range; a zero row makes both sides ``-inf``
    and the metric degenerate.
    """
    with np.errstate(divide="ignore"):
        log_rows = np.sum(np.log(np.hypot.reduce(np.abs(metric), axis=-1)), axis=-1)
        return np.log(np.abs(det)) <= np.log(DEGENERACY_THRESHOLD) + log_rows


def matvec(a: np.ndarray, v: np.ndarray) -> np.ndarray:
    """``a @ v`` per sample, for matrices ``a[..., i, j]`` and vectors ``v[..., j]``.

    Each sample gets the BLAS call that ``a[i] @ v[i]`` makes, so a stack
    agrees bit for bit with a loop over one-point frames.
    """
    return np.matmul(a, v[..., None])[..., 0]


def vecmat(v: np.ndarray, a: np.ndarray) -> np.ndarray:
    """``v @ a`` per sample, for vectors ``v[..., i]`` and matrices ``a[..., i, j]``."""
    return np.matmul(v[..., None, :], a)[..., 0, :]


def dot(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """``u @ v`` per sample, for vectors ``u[..., i]`` and ``v[..., i]``."""
    return np.matmul(u[..., None, :], v[..., :, None])[..., 0, 0]


def outer(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """``np.outer(u, v)`` per sample."""
    return u[..., :, None] * v[..., None, :]


def max_abs(x: np.ndarray, rank: int):
    """max |x| per sample, over the ``rank`` trailing axes."""
    return per_sample_scalar(np.max(np.abs(x), axis=tuple(range(-rank, 0))))


def per_sample_scalar(value):
    """A scalar per sample: an ``(N,)`` array on a stack, a Python float at
    one point."""
    return float(value) if np.ndim(value) == 0 else value


def per_sample_power(value, n: int):
    """``value**n`` with Python's float power, sample by sample: numpy's
    power can differ from it in the last bit."""
    if np.ndim(value) == 0:
        return float(value) ** n
    return np.reshape([v**n for v in np.ravel(value).tolist()], np.shape(value))


def symmetry_residuals(frame: ChartFrame) -> dict[str, float]:
    """Curvature symmetry residuals, normalized by (max |R| + 1).

    On a stack each residual is an ``(N,)`` array, every sample normalized
    by its own max |R|.
    """
    r = frame.riemann
    scale = max_abs(r, 4) + 1.0
    first_bianchi = r + np.einsum("...iklj->...ijkl", r) + np.einsum("...iljk->...ijkl", r)
    ga, ric = frame.christoffel, frame.ricci
    return {
        "christoffel_symmetry": max_abs(ga - np.einsum("...kji->...kij", ga), 3) / scale,
        "antisymmetry_first_pair": max_abs(r + np.einsum("...jikl->...ijkl", r), 4) / scale,
        "antisymmetry_second_pair": max_abs(r + np.einsum("...ijlk->...ijkl", r), 4) / scale,
        "pair_exchange": max_abs(r - np.einsum("...klij->...ijkl", r), 4) / scale,
        "first_bianchi": max_abs(first_bianchi, 4) / scale,
        "ricci_symmetry": max_abs(ric - np.swapaxes(ric, -1, -2), 2) / scale,
    }


def validate_factor_at(manifold: FactorManifold, points: Iterable[Sequence[float]]) -> None:
    """Check finiteness, symmetry, nondegeneracy, and signature at sample points."""
    ChartFrame(manifold, np.atleast_2d(np.asarray(points, dtype=float))).validate()


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
