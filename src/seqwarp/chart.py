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

A ``ChartFrame`` holds a stack of N sample points, with every tensor above
carrying the sample axis first (``christoffel[n, k, i, j]``); one point is a
stack of one.  The stack is vector forward mode (Griewank & Walther,
*Evaluating Derivatives*, 2nd ed., ch. 3 and 13): batched jets and ``...``
einsums do, for all N samples at once, the arithmetic of one sample at each.
The jets of a frame come from one ``JetWalker`` per stack, which seeds the
coordinates once and walks each distinct subexpression of the metric entries,
their derivatives and the fields once; see ``ChartFrame``.

The first derivative of the curvature enters the checks only traced, as
``dricci``, and ``dricci`` takes each trace before the product it enters:
no stage a check reads costs more than O(m^5) per sample.  The full
second derivatives ``d2christoffel`` and ``driemann_up``, (N, m^5) arrays
built with O(m^6) einsums, are reference stages only: nothing in the
package reads them.  They stay because the tests compare ``dricci`` with
the trace of ``driemann_up``, and because the benchmark's tracer wraps
every stage by name.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache, cached_property
from typing import Iterable, Mapping, Sequence

import numpy as np

from .expressions import Const, DomainError, Expr, differentiate, parse
from .jets import HyperDual, JetWalker

__all__ = [
    "FactorManifold",
    "ChartFrame",
    "GeometryError",
    "DegenerateMetricError",
    "SignatureError",
    "MetricValidationError",
    "factor",
    "metric_jets",
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
    """All pointwise geometry of one chart at a stack of sample points,
    computed lazily.

    ``points`` has shape ``(N, m)``; one point is a stack of one, and a
    1-D point raises ``GeometryError``.  Every stage and field method carries
    the sample axis first: ``metric`` is ``(N, m, m)``, ``christoffel``
    ``(N, m, m, m)``, ``det``, ``scalar`` and ``laplacian`` are ``(N,)``
    arrays.  Each sample gets its own arithmetic (``...`` einsums, batched
    ``inv`` / ``det`` / ``matmul``), so a stack of N agrees bit for bit with
    N stacks of one wherever the jets do.

    Jets: the frame owns one ``JetWalker``, shared by the metric entries,
    their third derivatives and the fields, so each distinct subexpression
    is walked once.  A stack of N > 1 points walks ``JetStack`` jets over all
    samples at once; a stack of one walks the scalar ``HyperDual`` jets, the
    faster of the two at one point.  A constant expression gives its value
    and zero derivatives without a walk.  The walker's memo is released once
    ``d3metric``, the last stage that reads the metric entries, is built.

    A stack raises the error a loop over its samples would raise first:
    ``GeometryError`` (non-finite jets), ``DegenerateMetricError`` and
    ``DomainError`` name the point of the first failing sample.  ``validate``
    checks the metric values themselves.
    """

    def __init__(self, manifold: FactorManifold, points: Sequence[Sequence[float]] | np.ndarray):
        self.manifold = manifold
        self.point = np.asarray(points, dtype=float)
        if self.point.ndim != 2 or self.point.shape[-1] != manifold.dim:
            raise GeometryError(
                f"{manifold.name!r} expects points of shape (N, {manifold.dim}), "
                f"got shape {self.point.shape}"
            )
        if not np.isfinite(self.point).all():
            finite = np.isfinite(self.point).all(axis=-1)
            raise GeometryError(f"non-finite point {self._at_first(~finite).tolist()}")
        # field jets and their third derivatives, by expression
        self._fields: dict[Expr, tuple] = {}
        self._thirds: dict[Expr, np.ndarray] = {}
        self._walker: JetWalker | None = None

    def _at_first(self, bad) -> np.ndarray:
        """The point of the first sample where ``bad`` holds."""
        return self.point[int(np.argmax(bad))]

    def _jets(self, e: Expr):
        """Order-2 jets of ``e``: a value, gradient and Hessian per sample.

        A ``DomainError`` carries ``node``, the failing sample, and
        ``reason``; its message names the sample's point.  Where the scalar
        walk overflows (``math`` raises), the expression is walked again as a
        stack, which gives ``inf`` instead.  Neither walk warns about
        overflow: the stages that read the jets check them for finiteness.
        """
        count, m = self.point.shape
        if isinstance(e, Const):
            return np.full(count, e.value), np.zeros((count, m)), np.zeros((count, m, m))
        coords = self.manifold.coords
        if self._walker is None and count == 1:
            self._walker = JetWalker.at_point(self.manifold.point_map(self.point[0]), 2, coords)
        elif self._walker is None:
            self._walker = JetWalker.over_stack(self.point, coords)
        walker = self._walker
        try:
            with np.errstate(over="ignore", invalid="ignore"):
                if walker.cls is HyperDual:
                    try:
                        v, grad, hess = walker.jets(e)
                        return np.array([v]), grad[None], hess[None]
                    except OverflowError:
                        walker = JetWalker.over_stack(self.point, coords)
                return walker.jets(e)
        except DomainError as exc:
            i, reason = getattr(exc, "node", 0), getattr(exc, "reason", str(exc))
            err = DomainError(f"{reason} at {self.point[i].tolist()}")
            err.node, err.reason = i, reason
            raise err from None

    # -- metric jets --------------------------------------------------------

    @cached_property
    def _metric_jets(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Order-2 jets of the metric entries; unchecked."""
        return metric_jets(self.manifold, len(self.point), self._jets)

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
        points = self.point
        mirrored = [(i, j) for i in range(m) for j in range(i) if metric[i][j] != metric[j][i]]
        try:
            g = self._metric_jets[0]
            lower = [self._jets(metric[i][j])[0] for i, j in mirrored]
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
                    d = _derived(self.manifold.metric[i][j], cname)
                    if not isinstance(d, Const):
                        hess = self._jets(d)[2]
                        d3g[..., :, :, c, i, j] = d3g[..., :, :, c, j, i] = hess
        # the metric stages are built: release the walker's memo
        self._walker = None
        return d3g

    @cached_property
    def det(self) -> np.ndarray:
        return np.linalg.det(self.metric)

    @cached_property
    def inverse(self) -> np.ndarray:
        degenerate = is_degenerate(self.metric, self.det)
        if degenerate.any():
            k = int(np.argmax(degenerate))
            raise DegenerateMetricError(self.manifold.name, self.point[k], self.det[k])
        return np.linalg.inv(self.metric)

    @cached_property
    def dinverse(self) -> np.ndarray:
        return -np.einsum("...km,...amn,...nl->...akl", self.inverse, self.dmetric, self.inverse)

    @cached_property
    def d2inverse(self) -> np.ndarray:
        """d2inverse[a, b, k, l] = d_a d_b g^kl.

        Batched matmuls over the (a, b) pairs, O(m^5) per sample: the
        mixed term g^-1 dg_a g^-1 dg_b g^-1 reuses the cached
        ``dinverse`` (= -g^-1 dg_a g^-1), and g^-1 d_a d_b g g^-1 takes the
        inverse broadcast over (a, b).  Written as einsums, the mixed term
        without a contraction path cost O(m^9) and the last O(m^6).
        """
        gi, dg, d2g = self.inverse, self.dmetric, self.d2metric
        dg_gi = dg @ gi[..., None, :, :]
        mixed = -(self.dinverse[..., :, None, :, :] @ dg_gi[..., None, :, :, :])
        gi = gi[..., None, None, :, :]
        return mixed + np.swapaxes(mixed, -4, -3) - gi @ d2g @ gi

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
        """d2christoffel[a, b, k, i, j] = d_a d_b Gamma^k_ij.

        A reference stage: no check reads it.  It and ``driemann_up`` give
        the tests an untraced route to ``dricci``.
        """
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
    def scalar(self) -> np.ndarray:
        return np.einsum("...jk,...jk->...", self.inverse, self.ricci)

    @cached_property
    def driemann_up(self) -> np.ndarray:
        """driemann_up[a, l, i, j, k] = d_a R^l_ijk, from ``d2christoffel``.

        A reference stage, as ``d2christoffel`` is: the tests compare its
        trace over (l, i) with ``dricci``.
        """
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
        """dricci[a, j, k] = d_a Ric_jk, each index trace taken before the
        product it enters:

            d_a Ric_jk = sum_i d_a d_i Gamma^i_jk - sum_i d_a d_j Gamma^i_ik
                       + (sum_i d_a Gamma^i_im) Gamma^m_jk + (sum_i Gamma^i_im) d_a Gamma^m_jk
                       - d_a Gamma^i_jm Gamma^m_ik - Gamma^i_jm d_a Gamma^m_ik.

        The two traced second derivatives come from
        2 d_a d_b Gamma^k_ij = d_a d_b g^kl T_lij + d_a g^kl d_b T_lij
        + d_b g^kl d_a T_lij + g^kl d_a d_b T_lij (T is ``_gamma_source``);
        in the second, 2 Gamma^i_ik = g^il d_k g_il, as the other two terms of
        T cancel against the symmetric g^il.  The third metric derivatives
        are contracted where they lie, so every einsum has two operands and
        costs at most O(m^5) per sample, and no (N, m^5) array is formed
        beyond ``d3metric``.  The last product is the one before it with j
        and k swapped, Gamma being symmetric in its lower indices.
        """
        gi, dgi, d2gi = self.inverse, self.dinverse, self.d2inverse
        t, dt, d3g = self._gamma_source, self._dgamma_source, self.d3metric
        ga, dga = self.christoffel, self.dchristoffel
        # 2 sum_i d_a d_i Gamma^i_jk
        out = np.einsum("...al,...ljk->...ajk", np.einsum("...aiil->...al", d2gi), t)
        out += np.einsum("...ail,...iljk->...ajk", dgi, dt)
        out += np.einsum("...l,...aljk->...ajk", np.einsum("...iil->...l", dgi), dt)
        d3_traced = np.einsum("...il,...aijkl->...ajk", gi, d3g)
        out += d3_traced
        out += np.swapaxes(d3_traced, -2, -1)
        out -= np.einsum("...il,...ailjk->...ajk", gi, d3g)
        # - 2 sum_i d_a d_j Gamma^i_ik
        out -= np.einsum("...ajil,...kil->...ajk", d2gi, self.dmetric)
        cross = np.einsum("...ail,...jkil->...ajk", dgi, self.d2metric)
        out -= cross
        out -= np.swapaxes(cross, -3, -2)
        out -= np.einsum("...il,...ajkil->...ajk", gi, d3g)
        out *= 0.5
        out += np.einsum("...am,...mjk->...ajk", np.einsum("...aiim->...am", dga), ga)
        out += np.einsum("...m,...amjk->...ajk", np.einsum("...iim->...m", ga), dga)
        quadratic = np.einsum("...aijm,...mik->...ajk", dga, ga)
        out -= quadratic
        out -= np.swapaxes(quadratic, -2, -1)
        return out

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

    def field_jets(self, phi: Expr) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
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

    def laplacian(self, phi: Expr) -> np.ndarray:
        return np.einsum("...ij,...ij->...", self.inverse, self.hessian(phi))

    def grad_norm2(self, phi: Expr) -> np.ndarray:
        _, dphi, _ = self.field_jets(phi)
        # (dphi @ inverse) @ dphi per sample, in the order an ``@`` chain takes
        return dot(vecmat(dphi, self.inverse), dphi)

    def _field_third(self, phi: Expr) -> np.ndarray:
        d3 = self._thirds.get(phi)
        if d3 is None:
            m = self.manifold.dim
            d3 = np.zeros(self.point.shape[:-1] + (m, m, m))
            for c, cname in enumerate(self.manifold.coords):
                d = _derived(phi, cname)
                if not isinstance(d, Const):
                    d3[..., :, :, c] = self._jets(d)[2]
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


def metric_jets(manifold: FactorManifold, count: int, jets) -> tuple[np.ndarray, ...]:
    """Order-2 jets of the metric of ``manifold`` at a stack of ``count``
    points: ``g`` ``(N, m, m)``, ``dg`` ``(N, m, m, m)`` and ``d2g``
    ``(N, m, m, m, m)``, derivative axes first.

    ``jets(e)`` gives the value, gradient and Hessian of one entry.  Only the
    upper triangle is evaluated and mirrored; a constant entry sets its
    value, and its derivatives stay zero.
    """
    m = manifold.dim
    g = np.zeros((count, m, m))
    dg = np.zeros((count, m, m, m))
    d2g = np.zeros((count, m, m, m, m))
    for i in range(m):
        for j in range(i, m):
            e = manifold.metric[i][j]
            if isinstance(e, Const):
                g[:, i, j] = g[:, j, i] = e.value
                continue
            v, grad, hess = jets(e)
            g[:, i, j] = g[:, j, i] = v
            dg[:, :, i, j] = dg[:, :, j, i] = grad
            d2g[:, :, :, i, j] = d2g[:, :, :, j, i] = hess
    return g, dg, d2g


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
    agrees bit for bit with a loop over stacks of one.
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
    return np.max(np.abs(x), axis=tuple(range(-rank, 0)))


def per_sample_power(value: np.ndarray, n: int) -> np.ndarray:
    """``value**n`` with Python's float power, sample by sample: numpy's
    power can differ from it in the last bit.  A power beyond the float
    range is ``inf`` with its sign, as numpy's would be, not ``OverflowError``."""
    return np.reshape([_float_power(v, n) for v in np.ravel(value).tolist()], np.shape(value))


def _float_power(v: float, n: int) -> float:
    try:
        return v**n
    except OverflowError:
        return math.copysign(math.inf, v) if n % 2 else math.inf


def symmetry_residuals(frame: ChartFrame) -> dict[str, float]:
    """Curvature symmetry residuals, normalized by (max |R| + 1).

    Each residual is an ``(N,)`` array, every sample normalized by its own
    max |R|.
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
