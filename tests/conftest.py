"""Shared fixtures: chart builders and finite-difference oracles.

The finite-difference helpers are the independent cross-check route for
the jet-based machinery: they know nothing about ASTs or dual numbers,
only function values at shifted points.
"""

from __future__ import annotations

import numpy as np
import pytest

from seqwarp import factor
from seqwarp.chart import ChartFrame, FactorManifold
from seqwarp.expressions import Expr, evaluate


def line_factor(name: str, coord: str, periods=None) -> FactorManifold:
    return factor(name, [coord], [["1"]], periods=periods)


def sphere_factor(name: str = "sphere", theta: str = "theta", phi: str = "phi") -> FactorManifold:
    return factor(name, [theta, phi], [["1", "0"], ["0", f"sin({theta})^2"]])


def halfplane_factor(name: str = "halfplane", p: str = "p", q: str = "q") -> FactorManifold:
    return factor(name, [p, q], [["1/q^2", "0"], ["0", "1/q^2"]])


# ---------------------------------------------------------------------------
# Finite-difference oracles
# ---------------------------------------------------------------------------

FD_STEP = 1e-5


def fd_gradient(fn, x: np.ndarray, step: float = FD_STEP) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    out = np.zeros_like(x)
    for i in range(x.size):
        hi, lo = x.copy(), x.copy()
        hi[i] += step
        lo[i] -= step
        out[i] = (fn(hi) - fn(lo)) / (2.0 * step)
    return out


def fd_hessian(fn, x: np.ndarray, step: float = 1e-4) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    n = x.size
    out = np.zeros((n, n))
    center = fn(x)
    for i in range(n):
        hi, lo = x.copy(), x.copy()
        hi[i] += step
        lo[i] -= step
        out[i, i] = (fn(hi) - 2.0 * center + fn(lo)) / (step * step)
        for j in range(i + 1, n):
            pp, pm, mp, mm = (x.copy() for _ in range(4))
            pp[i] += step
            pp[j] += step
            mm[i] -= step
            mm[j] -= step
            pm[i] += step
            pm[j] -= step
            mp[i] -= step
            mp[j] += step
            out[i, j] = out[j, i] = (fn(pp) - fn(pm) - fn(mp) + fn(mm)) / (
                4.0 * step * step
            )
    return out


def expr_fn(e: Expr, coords) -> callable:
    coords = list(coords)

    def fn(x: np.ndarray) -> float:
        return evaluate(e, dict(zip(coords, x)))

    return fn


def fd_christoffel(manifold: FactorManifold, point, step: float = 1e-6) -> np.ndarray:
    """Christoffel symbols from finite differences of the metric alone."""
    x = np.asarray(point, dtype=float)
    m = manifold.dim

    def metric_at(y: np.ndarray) -> np.ndarray:
        pm = dict(zip(manifold.coords, y))
        return np.array(
            [[evaluate(manifold.metric[i][j], pm) for j in range(m)] for i in range(m)]
        )

    g = metric_at(x)
    ginv = np.linalg.inv(g)
    dg = np.zeros((m, m, m))
    for a in range(m):
        hi, lo = x.copy(), x.copy()
        hi[a] += step
        lo[a] -= step
        dg[a] = (metric_at(hi) - metric_at(lo)) / (2.0 * step)
    source = np.einsum("ijl->lij", dg) + np.einsum("jil->lij", dg) - dg
    return 0.5 * np.einsum("kl,lij->kij", ginv, source)


def fd_riemann_up(manifold: FactorManifold, point, step: float = 1e-6) -> np.ndarray:
    """Curvature from finite differences of exact Christoffel symbols."""
    x = np.asarray(point, dtype=float)
    m = manifold.dim
    gamma = ChartFrame(manifold, [x]).christoffel[0]
    dgamma = np.zeros((m, m, m, m))
    for a in range(m):
        hi, lo = x.copy(), x.copy()
        hi[a] += step
        lo[a] -= step
        dgamma[a] = (
            ChartFrame(manifold, [hi]).christoffel[0] - ChartFrame(manifold, [lo]).christoffel[0]
        ) / (2.0 * step)
    return (
        np.einsum("iljk->lijk", dgamma)
        - np.einsum("jlik->lijk", dgamma)
        + np.einsum("lim,mjk->lijk", gamma, gamma)
        - np.einsum("ljm,mik->lijk", gamma, gamma)
    )


@pytest.fixture(scope="session")
def rng() -> np.random.Generator:
    return np.random.default_rng(20240817)
