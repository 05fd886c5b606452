"""Sequential warped products and their closed-form geometry.

A sequential warped product couples three charts: an inner warped product
of the first two factors (warping ``f``, a positive function of the first
factor) is warped again over the third factor by ``h``, a positive
function of the first two factors jointly.  The ambient metric is block
diagonal: ``g1 (+) f^2 g2 (+) h^2 g3``.

Two routes to the ambient curvature live side by side:

* ``flatten_to_chart`` assembles the ambient metric as one chart and hands
  it to the brute-force machinery in :mod:`seqwarp.chart`;
* ``WarpedFrame`` builds the same objects from factor geometry plus warping
  corrections, block by block, never touching the ambient chart: the
  Christoffel and curvature tensors ``christoffel[k, a, b]`` and
  ``riemann_up[l, a, b, c]``, and the Ricci tensor.

Disagreement between the routes is a bug by definition; the verification
suite compares the closed tensors with the chart's, whole, at every sample.
Both routes take a stack of N sample points, shape ``(N, d)``, and one point
is a stack of one: a ``WarpedFrame`` assembles the closed tensors of all N
samples at once from factor frames over the same samples.

Note on signs: the closed-form curvature below is written for the
curvature operator R(X, Y)Z = nabla_X nabla_Y Z - nabla_Y nabla_X Z -
nabla_[X,Y] Z used by :mod:`seqwarp.chart`.  Sources that adopt the
reversed operator state the same block structure with the warping
correction terms negated; the oracle-equivalence sweep pins the variant
used here.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .chart import (
    ChartFrame,
    FactorManifold,
    GeometryError,
    dot,
    matvec,
    per_sample_power,
    vecmat,
)
from .expressions import BinOp, Const, Expr, free_variables

__all__ = [
    "SequentialWarpedProduct",
    "BlockVector",
    "PositivityError",
    "CoordinateCollisionError",
    "WarpedFrame",
    "flatten_to_chart",
    "inner_chart",
]


class PositivityError(GeometryError):
    """A warping function failed to be positive at a sampled point."""


class CoordinateCollisionError(GeometryError):
    """Factor charts share a coordinate name."""


def _squared(e: Expr) -> Expr:
    return BinOp("^", e, Const(2.0))


def _scaled(scale: Expr, entry: Expr) -> Expr:
    if isinstance(entry, Const) and entry.value == 0.0:
        return entry
    return BinOp("*", scale, entry)


@dataclass(frozen=True)
class SequentialWarpedProduct:
    """Three factor charts plus the warping expressions ``f`` and ``h``."""

    m1: FactorManifold
    m2: FactorManifold
    m3: FactorManifold
    f: Expr
    h: Expr

    def __post_init__(self):
        names: set[str] = set()
        for fac in (self.m1, self.m2, self.m3):
            overlap = names & set(fac.coords)
            if overlap:
                raise CoordinateCollisionError(
                    f"coordinate name(s) {sorted(overlap)} appear in more than one factor"
                )
            names |= set(fac.coords)
        extra_f = free_variables(self.f) - set(self.m1.coords)
        if extra_f:
            raise GeometryError(
                f"inner warping depends on {sorted(extra_f)}, not coordinates of {self.m1.name!r}"
            )
        inner = set(self.m1.coords) | set(self.m2.coords)
        extra_h = free_variables(self.h) - inner
        if extra_h:
            raise GeometryError(
                f"outer warping depends on {sorted(extra_h)}, outside the first two factors"
            )

    @property
    def factors(self) -> tuple[FactorManifold, FactorManifold, FactorManifold]:
        return (self.m1, self.m2, self.m3)

    @property
    def dims(self) -> tuple[int, int, int]:
        return (self.m1.dim, self.m2.dim, self.m3.dim)

    @property
    def dim(self) -> int:
        return self.m1.dim + self.m2.dim + self.m3.dim

    @property
    def coords(self) -> tuple[str, ...]:
        return self.m1.coords + self.m2.coords + self.m3.coords

    @property
    def block_slices(self) -> tuple[slice, slice, slice]:
        d1, d2, d3 = self.dims
        return (slice(0, d1), slice(d1, d1 + d2), slice(d1 + d2, d1 + d2 + d3))

    def split(self, points: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The factor blocks of each row of a stack of points, shape ``(N, d)``."""
        p = np.asarray(points, dtype=float)
        if p.ndim != 2 or p.shape[-1] != self.dim:
            raise GeometryError(f"expected points of shape (N, {self.dim}), got shape {p.shape}")
        s1, s2, s3 = self.block_slices
        return p[:, s1], p[:, s2], p[:, s3]


def _embed(dim: int, sl: slice, tensor: np.ndarray, lead: tuple[int, ...] = ()) -> np.ndarray:
    """``tensor`` on the block ``sl`` of every ambient index, zeros elsewhere;
    ``lead`` is the shape of the sample axes the tensor carries first."""
    rank = np.ndim(tensor) - len(lead)
    out = np.zeros(lead + (dim,) * rank)
    out[(Ellipsis,) + (sl,) * rank] = tensor
    return out


def _ac_lb(ac: np.ndarray, lb: np.ndarray) -> np.ndarray:
    """out[..., l, a, b, c] = ac[..., a, c] lb[..., l, b], by broadcasting."""
    return ac[..., None, :, None, :] * lb[..., :, None, :, None]


def _per_sample(value, rank: int):
    """A per-sample scalar (an ``(N,)`` array, or one value for all samples)
    shaped to broadcast against tensors of ``rank`` trailing axes."""
    return np.asarray(value)[(Ellipsis,) + (None,) * rank]


@dataclass
class BlockVector:
    """A tangent vector split along the three factor blocks."""

    x1: np.ndarray
    x2: np.ndarray
    x3: np.ndarray

    @classmethod
    def basis(cls, product: SequentialWarpedProduct, index: int) -> "BlockVector":
        vec = np.zeros(product.dim)
        vec[index] = 1.0
        return cls.from_ambient(product, vec)

    @classmethod
    def from_ambient(cls, product: SequentialWarpedProduct, vec) -> "BlockVector":
        """``vec`` split per block, on its last axis; a ``BlockVector`` as is."""
        if isinstance(vec, BlockVector):
            return vec
        v = np.asarray(vec, dtype=float)
        s1, s2, s3 = product.block_slices
        return cls(v[..., s1].copy(), v[..., s2].copy(), v[..., s3].copy())

    @property
    def ambient(self) -> np.ndarray:
        return np.concatenate([self.x1, self.x2, self.x3], axis=-1)

    @property
    def inner(self) -> np.ndarray:
        """Components along the first two blocks (the inner warped product)."""
        return np.concatenate([self.x1, self.x2], axis=-1)


def flatten_to_chart(product: SequentialWarpedProduct) -> FactorManifold:
    """The ambient metric as a single chart (input to the brute-force route)."""
    m1, m2, m3 = product.factors
    f2, h2 = _squared(product.f), _squared(product.h)
    dim = product.dim
    zero = Const(0.0)
    rows = [[zero] * dim for _ in range(dim)]
    offsets = (0, m1.dim, m1.dim + m2.dim)
    scales: tuple[Expr | None, ...] = (None, f2, h2)
    for fac, off, scale in zip(product.factors, offsets, scales):
        for i in range(fac.dim):
            for j in range(fac.dim):
                entry = fac.metric[i][j]
                rows[off + i][off + j] = entry if scale is None else _scaled(scale, entry)
    signature = (
        "lorentzian"
        if any(fac.signature == "lorentzian" for fac in product.factors)
        else "riemannian"
    )
    periods = None
    if all(fac.periods is not None for fac in product.factors):
        periods = tuple(p for fac in product.factors for p in fac.periods)
    return FactorManifold(
        name=f"{m1.name}*{m2.name}*{m3.name}",
        coords=product.coords,
        metric=tuple(tuple(row) for row in rows),
        signature=signature,
        periods=periods,
    )


def inner_chart(product: SequentialWarpedProduct) -> FactorManifold:
    """The first two factors as one chart with metric g1 (+) f^2 g2; it keeps
    their periods when both factors have them."""
    m1, m2 = product.m1, product.m2
    f2 = _squared(product.f)
    dim = m1.dim + m2.dim
    zero = Const(0.0)
    rows = [[zero] * dim for _ in range(dim)]
    for i in range(m1.dim):
        for j in range(m1.dim):
            rows[i][j] = m1.metric[i][j]
    for i in range(m2.dim):
        for j in range(m2.dim):
            rows[m1.dim + i][m1.dim + j] = _scaled(f2, m2.metric[i][j])
    signature = "lorentzian" if "lorentzian" in (m1.signature, m2.signature) else "riemannian"
    periods = None
    if m1.periods is not None and m2.periods is not None:
        periods = m1.periods + m2.periods
    return FactorManifold(
        name=f"{m1.name}*{m2.name}",
        coords=m1.coords + m2.coords,
        metric=tuple(tuple(row) for row in rows),
        signature=signature,
        periods=periods,
    )


class WarpedFrame:
    """Pointwise geometry of a sequential warped product at a stack of
    sample points, computed lazily.

    Bundles the three factor frames, the inner-chart frame carrying the
    outer warping, and the warping jets.  From these it assembles the
    ambient Christoffel and curvature tensors once, in the index
    conventions of :mod:`seqwarp.chart`; ``connection`` and ``curvature``
    contract them with block vectors.

    ``points`` has shape ``(N, d)``; one point is a stack of one, and a 1-D
    point raises ``GeometryError``.  The factor and inner frames are
    ``ChartFrame``s over the same samples, built once, and the warping jets,
    ``christoffel``, ``riemann_up``, ``ricci`` and ``scalar`` carry the
    sample axis first.  ``f`` and ``h`` are checked positive together,
    sample by sample, ``f`` before ``h``, and ``PositivityError`` names the
    first failing sample.

    The evaluators in :mod:`seqwarp.classify` and :mod:`seqwarp.spacetime`
    take the frame they read and return results per sample, so one frame
    serves all of them.  The gradient, Laplacian and |grad|^2 of each
    warping are the factor or inner frame's own.
    """

    def __init__(self, product: SequentialWarpedProduct, points):
        self.product = product
        self.point = np.asarray(points, dtype=float)
        self.p1, self.p2, self.p3 = product.split(self.point)
        self._lead = self.point.shape[:-1]

    @cached_property
    def frame1(self) -> ChartFrame:
        return ChartFrame(self.product.m1, self.p1)

    @cached_property
    def frame2(self) -> ChartFrame:
        return ChartFrame(self.product.m2, self.p2)

    @cached_property
    def frame3(self) -> ChartFrame:
        return ChartFrame(self.product.m3, self.p3)

    @cached_property
    def inner_frame(self) -> ChartFrame:
        return ChartFrame(
            inner_chart(self.product), np.concatenate([self.p1, self.p2], axis=-1)
        )

    # -- warping data ---------------------------------------------------------

    @cached_property
    def _warping_values(self) -> tuple[np.ndarray, np.ndarray]:
        """``f`` and ``h`` per sample, checked together: ``PositivityError``
        names the first sample where either is not positive, ``f`` first at
        a sample, as a loop over the samples reading ``f``, then ``h``, would."""
        f = self.frame1.field_jets(self.product.f)[0]
        h = self.inner_frame.field_jets(self.product.h)[0]
        bad = np.array([f <= 0.0, h <= 0.0])
        if bad.any():
            k = int(np.argmax(bad.any(axis=0)))
            label, value, where = ("inner", f, self.p1) if bad[0, k] else ("outer", h, self.point)
            raise PositivityError(
                f"{label} warping is {float(value[k])!r} (must be positive) at {where[k].tolist()}"
            )
        return f, h

    @cached_property
    def f_value(self) -> np.ndarray:
        return self._warping_values[0]

    @cached_property
    def h_value(self) -> np.ndarray:
        return self._warping_values[1]

    @cached_property
    def df(self) -> np.ndarray:
        return self.frame1.field_jets(self.product.f)[1]

    @cached_property
    def grad_f(self) -> np.ndarray:
        return self.frame1.gradient(self.product.f)

    @cached_property
    def hess_f(self) -> np.ndarray:
        return self.frame1.hessian(self.product.f)

    @cached_property
    def lap_f(self) -> np.ndarray:
        return self.frame1.laplacian(self.product.f)

    @cached_property
    def grad_f_norm2(self) -> np.ndarray:
        return self.frame1.grad_norm2(self.product.f)

    @cached_property
    def dh(self) -> np.ndarray:
        return self.inner_frame.field_jets(self.product.h)[1]

    @cached_property
    def grad_h(self) -> np.ndarray:
        return self.inner_frame.gradient(self.product.h)

    @cached_property
    def hess_h(self) -> np.ndarray:
        return self.inner_frame.hessian(self.product.h)

    @cached_property
    def lap_h(self) -> np.ndarray:
        return self.inner_frame.laplacian(self.product.h)

    @cached_property
    def grad_h_norm2(self) -> np.ndarray:
        return self.inner_frame.grad_norm2(self.product.h)

    @cached_property
    def f_energy(self) -> np.ndarray:
        """f Lap f + (m2 - 1) |grad f|^2 per sample: the warping term of the
        M2 block of the Ricci tensor, and of lambda."""
        return self.f_value * self.lap_f + (self.product.m2.dim - 1) * self.grad_f_norm2

    @cached_property
    def h_energy(self) -> np.ndarray:
        """h Lap h + (m3 - 1) |grad h|^2 per sample: the warping term of the
        M3 block of the Ricci tensor, and of nu."""
        return self.h_value * self.lap_h + (self.product.m3.dim - 1) * self.grad_h_norm2

    @cached_property
    def raised_hess_f(self) -> np.ndarray:
        """(nabla grad f)^k_a on the first factor."""
        return self.frame1.inverse @ self.hess_f

    @cached_property
    def raised_hess_h(self) -> np.ndarray:
        """(nabla grad h)^k_a on the inner chart."""
        return self.inner_frame.inverse @ self.hess_h

    # -- ambient assembly -----------------------------------------------------

    @cached_property
    def ambient_metric(self) -> np.ndarray:
        d = self.product.dim
        out = np.zeros(self._lead + (d, d))
        s1, s2, s3 = self.product.block_slices
        out[..., s1, s1] = self.frame1.metric
        out[..., s2, s2] = _per_sample(per_sample_power(self.f_value, 2), 2) * self.frame2.metric
        out[..., s3, s3] = _per_sample(per_sample_power(self.h_value, 2), 2) * self.frame3.metric
        return out

    @cached_property
    def ambient_inverse(self) -> np.ndarray:
        d = self.product.dim
        out = np.zeros(self._lead + (d, d))
        s1, s2, s3 = self.product.block_slices
        out[..., s1, s1] = self.frame1.inverse
        out[..., s2, s2] = self.frame2.inverse / _per_sample(per_sample_power(self.f_value, 2), 2)
        out[..., s3, s3] = self.frame3.inverse / _per_sample(per_sample_power(self.h_value, 2), 2)
        return out

    def split_inner(self, vec: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        d1 = self.product.m1.dim
        return vec[..., :d1], vec[..., d1:]

    # -- closed forms -----------------------------------------------------------

    @cached_property
    def christoffel(self) -> np.ndarray:
        """christoffel[k, a, b] = Gamma^k_ab, i.e. (nabla_{e_a} e_b)^k.

        The factor Christoffel symbols on their diagonal blocks, minus
        f g2(X, Y) grad f and h g3(X, Y) grad h, plus the log-derivative
        terms X(ln f) Y2 + Y(ln f) X2 and X(ln h) Y3 + Y(ln h) X3.
        """
        d, lead = self.product.dim, self._lead
        s1, s2, s3 = self.product.block_slices
        inner = slice(0, s3.start)
        f, h = self.f_value, self.h_value
        g2, g3, p2, p3 = self._fiber_blocks
        out = np.zeros(lead + (d, d, d))
        for sl, fr in zip((s1, s2, s3), (self.frame1, self.frame2, self.frame3)):
            out[..., sl, sl, sl] = fr.christoffel
        grad_f, grad_h = _embed(d, s1, self.grad_f, lead), _embed(d, inner, self.grad_h, lead)
        out -= (
            grad_f[..., :, None, None] * (_per_sample(f, 2) * g2)[..., None, :, :]
            + grad_h[..., :, None, None] * (_per_sample(h, 2) * g3)[..., None, :, :]
        )
        # t[k, a, b] = X(ln w) Y^k for X = e_a, Y = e_b; the connection adds t + t(a<->b)
        dlog_f = _embed(d, s1, self.df / _per_sample(f, 1), lead)
        dlog_h = _embed(d, inner, self.dh / _per_sample(h, 1), lead)
        t = (
            dlog_f[..., None, :, None] * p2[..., :, None, :]
            + dlog_h[..., None, :, None] * p3[..., :, None, :]
        )
        return out + (t + np.swapaxes(t, -2, -1))

    @cached_property
    def riemann_up(self) -> np.ndarray:
        """riemann_up[l, a, b, c] = R^l_abc, i.e. (R(e_a, e_b)e_c)^l.

        The factor curvature on its diagonal blocks plus T - T(a<->b), where
        T[l, a, b, c] collects the warping corrections linear in Y = e_b:
        (|grad f|^2 g2 + H^f / f)(X, Z) Y2, f g2(X, Z) (nabla grad f)(Y1),
        (H^h / h + |grad h|^2 g3)(X, Z) Y3 and h g3(X, Z) (nabla grad h)(Y12).
        """
        d, lead = self.product.dim, self._lead
        s1, s2, s3 = self.product.block_slices
        inner = slice(0, s3.start)
        f, h = _per_sample(self.f_value, 2), _per_sample(self.h_value, 2)
        gf2, gh2 = _per_sample(self.grad_f_norm2, 2), _per_sample(self.grad_h_norm2, 2)
        out = np.zeros(lead + (d, d, d, d))
        for sl, fr in zip((s1, s2, s3), (self.frame1, self.frame2, self.frame3)):
            out[..., sl, sl, sl, sl] = fr.riemann_up
        g2, g3, p2, p3 = self._fiber_blocks
        t = (
            _ac_lb(gf2 * g2 + _embed(d, s1, self.hess_f, lead) / f, p2)
            + _ac_lb(f * g2, _embed(d, s1, self.raised_hess_f, lead))
            + _ac_lb(_embed(d, inner, self.hess_h, lead) / h + gh2 * g3, p3)
            + _ac_lb(h * g3, _embed(d, inner, self.raised_hess_h, lead))
        )
        return out + (t - np.swapaxes(t, -3, -2))

    @cached_property
    def _fiber_blocks(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """g2 and g3 on their ambient blocks, then the projections onto those blocks."""
        d, lead = self.product.dim, self._lead
        _, s2, s3 = self.product.block_slices
        m2, m3 = self.product.m2.dim, self.product.m3.dim
        return (
            _embed(d, s2, self.frame2.metric, lead),
            _embed(d, s3, self.frame3.metric, lead),
            np.broadcast_to(_embed(d, s2, np.eye(m2)), lead + (d, d)),
            np.broadcast_to(_embed(d, s3, np.eye(m3)), lead + (d, d)),
        )

    def connection(self, x: BlockVector, y: BlockVector) -> BlockVector:
        """Levi-Civita derivative of constant-component block fields, per
        sample; each vector is one for all samples or one per sample."""
        gamma_y = matvec(self.christoffel, y.ambient[..., None, :])  # Gamma^k_ab Y^b
        return BlockVector.from_ambient(self.product, matvec(gamma_y, x.ambient))

    def curvature(self, x: BlockVector, y: BlockVector, z: BlockVector) -> BlockVector:
        """Curvature operator R(X, Y)Z per sample, vectors as in ``connection``."""
        r_z = matvec(self.riemann_up, z.ambient[..., None, None, :])  # R^l_abc Z^c
        r_yz = matvec(r_z, y.ambient[..., None, :])
        return BlockVector.from_ambient(self.product, matvec(r_yz, x.ambient))

    @cached_property
    def ricci(self) -> np.ndarray:
        """The Ricci tensor of Lemma 3, block by block: each factor's Ricci
        tensor minus (m2/f) H^f on M1, (m3/h) H^h on the inner blocks, and
        the energies ``f_energy`` g2 and ``h_energy`` g3 on M2 and M3."""
        d1, m2, m3 = self.product.dims
        f, h = _per_sample(self.f_value, 2), _per_sample(self.h_value, 2)
        outer_hess = (m3 / h) * self.hess_h
        b11 = self.frame1.ricci - (m2 / f) * self.hess_f - outer_hess[..., :d1, :d1]
        b22 = (
            self.frame2.ricci
            - _per_sample(self.f_energy, 2) * self.frame2.metric
            - outer_hess[..., d1:, d1:]
        )
        b33 = self.frame3.ricci - _per_sample(self.h_energy, 2) * self.frame3.metric

        d = self.product.dim
        out = np.zeros(self._lead + (d, d))
        s1, s2, s3 = self.product.block_slices
        out[..., s1, s1] = b11
        out[..., s2, s2] = b22
        out[..., s3, s3] = b33
        return out

    @cached_property
    def scalar(self) -> np.ndarray:
        return np.einsum("...ij,...ij->...", self.ambient_inverse, self.ricci)

    def factor_scalars(self, qe) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The factor scalar curvatures per sample that the printed corollary
        states for the decomposition ``qe = (alpha, beta, U)``, each given
        once or per sample."""
        alpha, beta, u = qe
        u = BlockVector.from_ambient(self.product, u)
        m1, m2, m3 = self.product.dims
        f, h = self.f_value, self.h_value
        g1u = dot(vecmat(u.x1, self.frame1.metric), u.x1)
        g2u = dot(vecmat(u.x2, self.frame2.metric), u.x2)
        g3u = dot(vecmat(u.x3, self.frame3.metric), u.x3)
        s1 = alpha * m1 + beta * g1u + (m2 / f) * self.lap_f + (m3 / h) * self.lap_h
        s2 = (
            (alpha * per_sample_power(f, 2) + self.f_energy) * m2
            + beta * per_sample_power(f, 4) * g2u
            + (m3 / h) * self.lap_h
        )
        s3 = (
            alpha * per_sample_power(h, 2) + self.h_energy
        ) * m3 + beta * per_sample_power(h, 4) * g3u
        return s1, s2, s3
