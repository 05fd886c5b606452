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
*Evaluating Derivatives*, 2nd ed., ch. 3 and 13): batched jets, and batched
matmuls over flattened index pairs, do for all N samples at once the
arithmetic of one sample at each.
The jets of a frame, at every N, come from ``JetProgram`` runs: one for
the metric entries, one for the scalar fields the frame was built with
(``fields``), one for ``d3metric``, and one per other field stage.  Each
program is compiled once per structure, and each distinct subexpression
among its roots is one node; see ``ChartFrame``.  An error names its
failing sample through one method, ``ChartFrame.where``.

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
from functools import cached_property, lru_cache, wraps
from typing import Iterable, Mapping, Sequence

import numpy as np

from .expressions import Const, DomainError, Expr, differentiate, parse
from .jets import JetProgram, JetRun, jet_program

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
    def __init__(self, name: str, point: Sequence[float], metric: np.ndarray):
        with np.errstate(over="ignore"):
            det = abs(float(np.linalg.det(metric)))
        super().__init__(
            f"metric of {name!r} is degenerate at {list(map(float, point))}: |det g| = {det:.3e}"
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


@lru_cache(maxsize=None)
def _frame_program(manifold: FactorManifold):
    """The program of a frame's metric: the (i, j, value) of the constant
    metric entries on and above the diagonal, then ``_varying`` of all of
    them, row by row."""
    upper = _upper(manifold.dim)
    entries = [manifold.metric[i][j] for i, j in upper]
    fixed = [(i, j, e.value) for (i, j), e in zip(upper, entries) if isinstance(e, Const)]
    return (fixed, *_varying(upper, entries, manifold.coords))


@lru_cache(maxsize=None)
def _d3_program(manifold: FactorManifold):
    """``_varying`` of the derivatives d_c g_ij (i <= j) of the metric
    entries of ``manifold``, c first."""
    index = [(c, i, j) for c in range(manifold.dim) for i, j in _upper(manifold.dim)]
    roots = [_derived(manifold.metric[i][j], manifold.coords[c]) for c, i, j in index]
    return _varying(index, roots, manifold.coords)


def _upper(m: int) -> list[tuple[int, int]]:
    """The (i, j) with i <= j < m, row by row."""
    return [(i, j) for i in range(m) for j in range(i, m)]


def _varying(index: list[tuple[int, ...]], exprs: list[Expr], coords: tuple[str, ...]):
    """The program of the ``exprs`` that are not constant, in order, and the
    columns of the kept ``index`` tuples (None when there is no root).  A
    constant's derivatives are zero, so a stage leaves it out."""
    keep = [k for k, e in enumerate(exprs) if not isinstance(e, Const)]
    roots = [exprs[k] for k in keep]
    program = JetProgram(roots, coords) if roots else None
    columns = [[index[k][a] for k in keep] for a in range(len(index[0]))]
    return program, tuple(np.array(column, dtype=np.intp) for column in columns)


def _per_field(method):
    """``method(self, phi)``, computed once per frame and field and returned
    read-only.  The computation is ``__wrapped__``, looked up at each call."""

    @wraps(method)
    def memoized(self, phi: Expr):
        key = (method.__name__, phi)
        out = self._per_field.get(key)
        if out is None:
            out = self._per_field[key] = memoized.__wrapped__(self, phi)
            for a in out if isinstance(out, tuple) else (out,):
                a.setflags(write=False)
        return out

    return memoized


class ChartFrame:
    """All pointwise geometry of one chart at a stack of sample points,
    computed lazily.

    ``points`` has shape ``(N, m)``; one point is a stack of one, and a
    1-D point raises ``GeometryError``.  Every stage and field method carries
    the sample axis first: ``metric`` is ``(N, m, m)``, ``christoffel``
    ``(N, m, m, m)``, ``det``, ``scalar`` and ``laplacian`` are ``(N,)``
    arrays.  Each sample gets its own arithmetic (batched ``matmul`` /
    ``inv`` / ``det``, broadcasts and ``...`` einsums), so a stack of N
    agrees bit for bit with N stacks of one.

    Jets: each stage runs one ``JetProgram`` over all samples and reads
    it once.  The metric entries (``_metric_jets``) and ``d3metric`` run
    programs of their own.  The scalar fields named in ``fields`` run as
    one program, so that each subexpression they share is evaluated once;
    ``field_jets`` reads that run field by field and drops it after the
    last read.  Any other field, and the third derivatives of a field
    (``dhessian``), run programs of their own.  A program is compiled on
    first use and cached by structure, so frames of one chart share it.
    The jets and the field methods ``gradient``, ``hessian`` and
    ``dhessian`` are computed once per field and are read-only.

    A stack raises the error a loop over its samples would raise first:
    ``GeometryError`` (non-finite jets), ``DegenerateMetricError`` and
    ``DomainError`` name the first failing sample through ``where``, which
    a subclass may override (the torus quadrature's blocks name a grid
    node).  A field read from the run of ``fields`` also raises the domain
    errors of the fields before it.  ``validate`` checks the metric values
    themselves.
    """

    def __init__(
        self,
        manifold: FactorManifold,
        points: Sequence[Sequence[float]] | np.ndarray,
        fields: Sequence[Expr] = (),
    ):
        self.manifold = manifold
        self.point = np.asarray(points, dtype=float)
        if self.point.ndim != 2 or self.point.shape[-1] != manifold.dim:
            raise GeometryError(
                f"{manifold.name!r} expects points of shape (N, {manifold.dim}), "
                f"got shape {self.point.shape}"
            )
        if not np.isfinite(self.point).all():
            finite = np.isfinite(self.point).all(axis=-1)
            raise GeometryError(f"non-finite point {self.where(int(np.argmin(finite)))}")
        self.fields = tuple(dict.fromkeys(fields))
        # reads of the run of ``fields`` still to come, one per field
        self._unread = len(self.fields)
        # what ``_per_field`` methods computed, by (method name, expression)
        self._per_field: dict[tuple[str, Expr], object] = {}

    def where(self, k: int) -> str:
        """Sample ``k`` as an error message names it: its point."""
        return str(self.point[k].tolist())

    def _roots(self, run: JetRun, start: int = 0, stop: int | None = None):
        """``run.roots(start, stop)``: per root, a value, gradient and Hessian
        per sample.

        A ``DomainError`` carries ``node``, the failing sample, and
        ``reason``; its message names the sample.  An overflow gives ``inf``
        without a warning: the stages that read the jets check them for
        finiteness.
        """
        try:
            return run.roots(start, stop)
        except DomainError as exc:
            err = DomainError(f"{exc.reason} at {self.where(exc.node)}")
            err.node, err.reason = exc.node, exc.reason
            raise err from None

    def _jets(self, roots: Sequence[Expr]):
        """``_roots`` of a run of the program of ``roots``, compiled once per structure."""
        return self._roots(jet_program(tuple(roots), self.manifold.coords).run(self.point))

    # -- metric jets --------------------------------------------------------

    @cached_property
    def _metric_jets(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Order-2 jets of the metric entries, unchecked: ``g`` ``(N, m, m)``,
        ``dg`` ``(N, m, m, m)`` and ``d2g`` ``(N, m, m, m, m)``, derivative
        axes first.

        Only the upper triangle is evaluated, and each jet is written to
        (i, j) and (j, i); a constant entry sets its value, and its
        derivatives stay zero.
        """
        count, m = self.point.shape
        g = np.zeros((count, m, m))
        dg = np.zeros((count, m, m, m))
        d2g = np.zeros((count, m, m, m, m))
        fixed, program, (i, j) = _frame_program(self.manifold)
        for a, b, value in fixed:
            g[:, a, b] = g[:, b, a] = value
        if program is not None:
            value, grad, hess = self._roots(program.run(self.point))
            g[:, i, j] = g[:, j, i] = value.T
            dg[..., i, j] = dg[..., j, i] = grad.transpose(1, 2, 0)
            d2g[..., i, j] = d2g[..., j, i] = hess.transpose(1, 2, 3, 0)
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
                f"is not finite at {self.where(int(np.argmin(finite)))}"
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
            lower = self._jets([metric[i][j] for i, j in mirrored])[0] if mirrored else ()
        except DomainError as exc:
            if exc.node:
                ChartFrame(self.manifold, points[: exc.node]).validate()
            err = DomainError(f"metric of {name!r}: {exc.reason} at {self.where(exc.node)}")
            err.node, err.reason = exc.node, f"metric of {name!r}: {exc.reason}"
            raise err from None
        finite = np.isfinite(g).all(axis=(1, 2))
        asymmetric = np.zeros(len(points), dtype=bool)
        for (i, j), values in zip(mirrored, lower):
            asymmetric |= values != g[:, j, i]
        safe = g if finite.all() else np.where(finite[:, None, None], g, np.eye(m))
        degenerate = self._degenerate if finite.all() else is_degenerate(safe)
        eigs = np.linalg.eigvalsh(safe)
        negatives = np.sum(eigs < 0.0, axis=1)
        lorentzian = self.manifold.signature == "lorentzian"
        bad = ~finite | asymmetric | degenerate | (negatives != int(lorentzian))
        if not bad.any():
            return
        k = int(np.argmax(bad))
        where = self.where(k)
        if not finite[k]:
            raise GeometryError(f"metric of {name!r} is not finite at {where}")
        if asymmetric[k]:
            raise MetricValidationError(f"{name!r}: metric entries asymmetric at {where}")
        if degenerate[k]:
            raise DegenerateMetricError(name, points[k], safe[k])
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
        """d3metric[a, b, c, i, j] = d_a d_b d_c g_ij: the Hessians of the
        symbolic first derivatives, from one program run."""
        m = self.manifold.dim
        program, index = _d3_program(self.manifold)
        d3g = np.zeros(self.point.shape[:-1] + (m, m, m, m, m))
        if program is not None:
            c, i, j = index
            hess = self._roots(program.run(self.point))[2].transpose(1, 2, 3, 0)
            d3g[..., c, i, j] = d3g[..., c, j, i] = hess
        return d3g

    @cached_property
    def det(self) -> np.ndarray:
        return np.linalg.det(self.metric)

    @cached_property
    def _degenerate(self) -> np.ndarray:
        """``is_degenerate`` of the metric values, read by ``inverse`` and ``validate``."""
        return is_degenerate(self._metric_jets[0])

    @cached_property
    def inverse(self) -> np.ndarray:
        g, degenerate = self.metric, self._degenerate
        if degenerate.any():
            k = int(np.argmax(degenerate))
            raise DegenerateMetricError(self.manifold.name, self.point[k], g[k])
        return np.linalg.inv(g)

    @cached_property
    def dinverse(self) -> np.ndarray:
        """dinverse[a, k, l] = d_a g^kl = -(g^-1 d_a g g^-1), one batched
        matmul pair with the inverse broadcast over a."""
        gi = self.inverse[..., None, :, :]
        return -(gi @ self.dmetric @ gi)

    @cached_property
    def d2inverse(self) -> np.ndarray:
        """d2inverse[a, b, k, l] = d_a d_b g^kl.

        Batched matmuls over the (a, b) pairs, O(m^5) per sample: the
        mixed term g^-1 dg_a g^-1 dg_b g^-1 reuses the cached
        ``dinverse`` (= -g^-1 dg_a g^-1), and g^-1 d_a d_b g g^-1 takes the
        inverse broadcast over (a, b).
        """
        gi, dg, d2g = self.inverse, self.dmetric, self.d2metric
        dg_gi = dg @ gi[..., None, :, :]
        mixed = -(self.dinverse[..., :, None, :, :] @ dg_gi[..., None, :, :, :])
        gi = gi[..., None, None, :, :]
        return mixed + np.swapaxes(mixed, -4, -3) - gi @ d2g @ gi

    # -- connection and curvature -------------------------------------------

    @cached_property
    def _gamma_source(self) -> np.ndarray:
        """T[l, i, j] = d_i g_jl + d_j g_il - d_l g_ij, in C order."""
        dg = self.dmetric
        return np.ascontiguousarray(
            np.einsum("...ijl->...lij", dg) + np.einsum("...jil->...lij", dg) - dg
        )

    @cached_property
    def christoffel(self) -> np.ndarray:
        """Gamma^k_ij = g^kl T_lij / 2, one matmul over the flattened (i, j) axis."""
        return 0.5 * _contract_first(self.inverse, self._gamma_source)

    @cached_property
    def _dgamma_source(self) -> np.ndarray:
        """d_a T_lij, in C order."""
        d2g = self.d2metric
        return np.ascontiguousarray(
            np.einsum("...aijl->...alij", d2g) + np.einsum("...ajil->...alij", d2g) - d2g
        )

    @cached_property
    def dchristoffel(self) -> np.ndarray:
        """dchristoffel[a, k, i, j] = d_a Gamma^k_ij = (d_a g^kl T_lij + g^kl d_a T_lij) / 2."""
        return 0.5 * (
            _contract_first(self.dinverse, self._gamma_source[..., None, :, :, :])
            + _contract_first(self.inverse[..., None, :, :], self._dgamma_source)
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
        """d_i Gamma^l_jk - d_j Gamma^l_ik + Q[l, i, j, k] - Q[l, j, i, k], with
        Q[l, i, j, k] = Gamma^l_im Gamma^m_jk one matmul over m."""
        ga, lead, m = self.christoffel, self.christoffel.shape[:-3], self.christoffel.shape[-1]
        dga = np.swapaxes(self.dchristoffel, -4, -3)  # dga[l, i, j, k] = d_i Gamma^l_jk
        q = ga.reshape(lead + (m * m, m)) @ ga.reshape(lead + (m, m * m))
        q = q.reshape(ga.shape + (m,))
        return dga - np.swapaxes(dga, -3, -2) + q - np.swapaxes(q, -3, -2)

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
        T cancel against the symmetric g^il.  Each contraction is a batched
        matmul over a flattened index pair, except g^il d_a d_i d_j g_kl,
        a two-operand einsum: its pair (i, l) is not contiguous in
        ``d3metric``, and a transposed copy costs more than the einsum.  Every
        one is O(m^5) per sample, and no (N, m^5) array is formed beyond
        ``d3metric``.  The last product is the one before it with j and k
        swapped, Gamma being symmetric in its lower indices.
        """
        gi, dgi, d2gi = self.inverse, self.dinverse, self.d2inverse
        t, dt, d3g = self._gamma_source, self._dgamma_source, self.d3metric
        ga, dga = self.christoffel, self.dchristoffel
        shape = ga.shape  # (..., a, j, k), as every term
        lead, m = shape[:-3], shape[-1]
        mm = m * m
        gi_col = gi.reshape(lead + (mm, 1))
        dgi_flat = dgi.reshape(lead + (m, mm))
        # 2 sum_i d_a d_i Gamma^i_jk: d_a d_i g^il T_ljk, d_a g^il d_i T_ljk,
        # d_i g^il d_a T_ljk, then g^il d_a d_i T_ljk term by term
        out = _contract_first(np.einsum("...aiil->...al", d2gi), t)
        out += (dgi_flat @ dt.reshape(lead + (mm, mm))).reshape(shape)
        traced_dgi = np.einsum("...iil->...l", dgi)[..., None, :]
        out += vecmat(traced_dgi, dt.reshape(lead + (m, m, mm))).reshape(shape)
        d3_traced = np.einsum("...il,...aijkl->...ajk", gi, d3g)
        out += d3_traced
        out += np.swapaxes(d3_traced, -2, -1)
        out -= (gi.reshape(lead + (1, 1, mm)) @ d3g.reshape(lead + (m, mm, mm))).reshape(shape)
        # - 2 sum_i d_a d_j Gamma^i_ik: d_a d_j g^il d_k g_il, d_a g^il d_j d_k g_il
        # and its a <-> j swap, g^il d_a d_j d_k g_il
        dg_rows = np.swapaxes(self.dmetric.reshape(lead + (m, mm)), -2, -1)
        out -= (d2gi.reshape(lead + (mm, mm)) @ dg_rows).reshape(shape)
        d2g_rows = np.swapaxes(self.d2metric.reshape(lead + (mm, mm)), -2, -1)
        cross = (dgi_flat @ d2g_rows).reshape(shape)
        out -= cross
        out -= np.swapaxes(cross, -3, -2)
        out -= (d3g.reshape(lead + (m * mm, mm)) @ gi_col).reshape(shape)
        out *= 0.5
        out += _contract_first(np.einsum("...aiim->...am", dga), ga)
        traced_ga = np.einsum("...iim->...m", ga)[..., None, :]
        out += vecmat(traced_ga, dga.reshape(lead + (m, m, mm))).reshape(shape)
        # d_a Gamma^i_jm Gamma^m_ik, one matmul over the flattened (i, m)
        dga_jim = np.swapaxes(dga, -3, -2).reshape(lead + (mm, mm))
        quadratic = (dga_jim @ np.swapaxes(ga, -3, -2).reshape(lead + (mm, m))).reshape(shape)
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
        """Divergence of a symmetric 2-tensor ``t`` with partials ``dt[a, i, j]``:
        g^ik d_i t_kj, less (g^ik Gamma^m_ik) t_mj as a matvec then a vecmat,
        less (g^-1 t)[i, m] Gamma^m_ij as a vecmat over the flattened (m, i)."""
        gi, ga = self.inverse, self.christoffel
        lead, m = t.shape[:-2], t.shape[-1]
        gi_flat = gi.reshape(lead + (m * m,))
        traced = matvec(ga.reshape(lead + (m, m * m)), gi_flat)
        git = np.swapaxes(gi @ t, -2, -1).reshape(lead + (m * m,))
        return (
            vecmat(gi_flat, dt.reshape(lead + (m * m, m)))
            - vecmat(traced, t)
            - vecmat(git, ga.reshape(lead + (m * m, m)))
        )

    # -- scalar fields -------------------------------------------------------

    @cached_property
    def _fields_run(self) -> JetRun:
        """The one run of ``fields``; ``field_jets`` drops it after its last read."""
        return jet_program(self.fields, self.manifold.coords).run(self.point)

    @_per_field
    def field_jets(self, phi: Expr) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Order-2 jets of ``phi``: value ``(N,)``, gradient ``(N, m)`` and
        Hessian ``(N, m, m)``.  A field named in ``fields`` is read from the
        run of ``fields``, any other from a run of its own."""
        if phi in self.fields:
            k = self.fields.index(phi)
            jets = self._roots(self._fields_run, k, k + 1)
            self._unread -= 1
            if not self._unread:
                del self._fields_run
        else:
            jets = self._jets([phi])
        return tuple(a[0] for a in jets)

    @_per_field
    def gradient(self, phi: Expr) -> np.ndarray:
        _, dphi, _ = self.field_jets(phi)
        return matvec(self.inverse, dphi)

    @_per_field
    def hessian(self, phi: Expr) -> np.ndarray:
        _, dphi, d2phi = self.field_jets(phi)
        return d2phi - np.einsum("...kij,...k->...ij", self.christoffel, dphi)

    def laplacian(self, phi: Expr) -> np.ndarray:
        return np.einsum("...ij,...ij->...", self.inverse, self.hessian(phi))

    def grad_norm2(self, phi: Expr) -> np.ndarray:
        _, dphi, _ = self.field_jets(phi)
        return dot(dphi, self.gradient(phi))

    @_per_field
    def _field_third(self, phi: Expr) -> np.ndarray:
        """d3[..., a, b, c] = d_a d_b d_c phi."""
        hess = self._jets([_derived(phi, c) for c in self.manifold.coords])[2]
        return hess.transpose(1, 2, 3, 0)

    @_per_field
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
        count, m = self.point.shape
        value, grad, _ = self._jets([e for row in entries for e in row])
        # C order, as the einsums of a frame's own tensors see them
        t = np.ascontiguousarray(value.T).reshape(count, m, m)
        dt = np.ascontiguousarray(grad.transpose(1, 2, 0)).reshape(count, m, m, m)
        return self._divergence(dt, t)


def is_degenerate(metric: np.ndarray) -> np.ndarray:
    """Whether ``|det g| <= DEGENERACY_THRESHOLD * prod_i ||row_i||``, per sample.

    By Hadamard's inequality the ratio ``|det g| / prod_i ||row_i||`` lies in
    [0, 1]; it is 1 for a diagonal metric and does not change when the
    metric is rescaled, so neither does the verdict.  ``log |det g|`` comes
    from ``slogdet`` and the row norms from ``hypot``, and the two sides are
    compared as logarithms, so nothing overflows or underflows for any
    finite metric; a singular metric or a zero row makes a side ``-inf`` and
    the metric degenerate.
    """
    with np.errstate(divide="ignore"):
        log_rows = np.sum(np.log(np.hypot.reduce(np.abs(metric), axis=-1)), axis=-1)
        return np.linalg.slogdet(metric)[1] <= np.log(DEGENERACY_THRESHOLD) + log_rows


def _contract_first(a: np.ndarray, t: np.ndarray) -> np.ndarray:
    """out[..., k, i, j] = sum_l a[..., k, l] t[..., l, i, j]: one batched
    matmul over the flattened (i, j) axis, leading axes broadcast."""
    out = a @ t.reshape(t.shape[:-2] + (-1,))
    return out.reshape(out.shape[:-1] + t.shape[-2:])


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
