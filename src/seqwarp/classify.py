"""Structure fits and identity checkers for warped-product curvature.

Three layers live here:

* pointwise algebraic fits: Einstein / quasi-Einstein structure of a
  Ricci tensor (``fit_quasi_einstein``) and the two-coefficient
  quasi-constant-curvature ansatz for a full curvature tensor
  (``check_quasi_constant_curvature``), batched: an ``(N, ...)`` stack in,
  one fit per sample out; the curvature fit takes its one-form from the
  quasi-Einstein fit of the same stack;
* identity evaluators tying factor curvature to a rank-one ambient
  decomposition (``proposition1_residuals``, one ``(N,)`` residual array
  per factor: the closed Ricci tensor of the frame against the
  decomposition, block by block), the scalar fields carrying the warping
  energies (``lambda_at`` / ``nu_at``), and volume-averaged forms of those
  fields over fully periodic factors (``torus_average_identity``).  The torus
  quadrature is the one place that evaluates geometry at thousands of
  points; it evaluates the grid in blocks of nodes, one ``ChartFrame`` per
  block whose averaged field and warpings run as one program, computes and
  validates the metric stages once per distinct value of the coordinates
  the metric mentions, and names a failing node by its index in the grid;
* hypothesis evaluators for the differential conditions under which the
  scalar fields are forced constant (``condition_residuals``, one ``(N,)``
  residual array per condition) and for the rigidity statements that force
  constant warpings (``theorem2_conditions``).

``theorem2_conditions`` never raises: its reports' pass flag is the
material implication "hypothesis holds at every sample implies the
conclusion holds numerically".  ``Residual`` carries one identity's
per-sample residuals to ``seqwarp.verify``, which reduces each to one
``IdentityReport``.

Every evaluator takes the ``WarpedFrame`` it reads, built at sample points
of shape ``(N, d)``, and returns per sample an ``(N,)`` array or a list of
N results; one frame serves all of them, and one point is a stack of one.
Proposition 1 and the lambda and nu fields read Lemma 3's warping terms
(``(m2/f) H^f``, ``(m3/h) H^h`` and the energies ``f_energy`` and
``h_energy``) from the frame, which computes each once; only the torus
integrand, which works on grid arrays rather than a frame, writes its own.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .chart import (
    ChartFrame,
    FactorManifold,
    GeometryError,
    dot,
    matvec,
    max_abs,
    outer,
    per_sample_power,
)
from .expressions import Expr, free_variables, to_string
from .warped import (
    BlockVector,
    PositivityError,
    SequentialWarpedProduct,
    WarpedFrame,
    _per_sample,
    inner_chart,
)

__all__ = [
    "QEFit",
    "QCCFit",
    "FitInputError",
    "IdentityReport",
    "Residual",
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
TORUS_TOL = 1e-10
# Grid nodes per batched torus-quadrature block: bounds the (B, ...) jet and
# curvature arrays, and so peak memory, whatever the grid size.
QUADRATURE_BLOCK = 1024
EINSTEIN_THRESHOLD = 1e-8
CLUSTER_GAP = 1e-6
# what overflows where a residual is not finite (``Residual.cause``)
METRIC_OVERFLOW = "the metric or its derivatives"
FIT_OVERFLOW = "the alpha, beta and U used"


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
class Residual:
    """One identity's residuals, one per sample, before they become its report.

    ``tolerance`` is one number or one per sample.  ``over`` marks the
    samples the report covers, every sample when ``None``: it states the
    largest residual there and how many samples that is, and is
    informational when there are none.

    With ``scaled``, ``over`` marks the samples where the identity's premise
    held.  The report then states the largest residual/tolerance ratio
    there against a tolerance of 1, counts every sample, and gates the
    verdict when the premise held somewhere.  Each value of ``details`` is
    then one entry per sample, and the report takes the entries of the
    first sample where the premise held, or of sample 0.

    ``cause`` names what overflows where a covered residual is not finite.
    """

    name: str
    values: np.ndarray
    tolerance: float | np.ndarray
    over: np.ndarray | None = None
    scaled: bool = False
    informational: bool = False
    details: dict = field(default_factory=dict)
    cause: str = METRIC_OVERFLOW


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
    """Two-coefficient curvature ansatz fit R = a G1 + b G2(A): the curvature fit
    takes its one-form from the quasi-Einstein fit of the same stack."""

    passed: bool
    a: float | None
    b: float | None
    A: np.ndarray | None
    residual: float
    reason: str = ""

    def summary(self) -> dict:
        return {
            "passed": self.passed,
            "a": self.a,
            "b": self.b,
            "residual": self.residual,
            "reason": self.reason,
        }


class FitInputError(GeometryError):
    """Input a structure fit cannot take; ``sample`` is its index in the stack."""

    def __init__(self, message: str, sample: int):
        super().__init__(message)
        self.sample = sample


def _first_bad(*stacks: np.ndarray) -> int:
    """Index of the first sample at which one of the ``(N, ...)`` stacks is not finite."""
    finite = [np.isfinite(x).all(axis=tuple(range(1, x.ndim))) for x in stacks]
    return int(np.argmin(np.logical_and.reduce(finite)))


def fit_quasi_einstein(
    g: np.ndarray, ric: np.ndarray, tol: float = DEFAULT_FIT_TOL
) -> list[QEFit]:
    """Fit ric = alpha g + beta A (x) A at each sample of a stack.

    ``g`` and ``ric`` are ``(N, m, m)`` stacks, giving a list of N fits; the
    linear algebra runs batched, verdicts in Python.

    alpha is the eigenvalue of the mixed endomorphism g^-1 ric carrying
    multiplicity >= m - 1 (clustered with relative gap
    ``CLUSTER_GAP * (1 + spectral radius)``); the remainder must be
    rank one within ``tol``.  Works for indefinite g: the causal
    character of U is reported, not rejected.  Input that is not finite
    raises ``FitInputError`` naming the first such sample.
    """
    g, ric = np.asarray(g, dtype=float), np.asarray(ric, dtype=float)
    m = g.shape[-1]
    if not (np.isfinite(g).all() and np.isfinite(ric).all()):
        message = "quasi-Einstein fit input (metric or Ricci tensor) is not finite"
        raise FitInputError(message, _first_bad(g, ric))
    eigs = np.linalg.eigvals(np.linalg.solve(g, ric))
    scale = 1.0 + np.abs(eigs).max(axis=-1)
    scales, ric_sizes = scale.tolist(), np.abs(ric).max(axis=(1, 2)).tolist()

    # cluster ids of the sorted real parts after the smallest (in cluster 0), a new
    # one wherever a gap exceeds the threshold; alpha is the first largest one's mean
    values = np.sort(eigs.real, axis=-1)
    ids = (values[:, 1:] - values[:, :-1] > CLUSTER_GAP * scale[:, None]).cumsum(axis=-1)
    sizes = (ids[:, :, None] == np.arange(m)).sum(axis=1) + (np.arange(m) == 0)
    multiplicity, top = sizes.max(axis=-1), sizes.argmax(axis=-1)
    mults = multiplicity.tolist()

    # why each sample fails ("" while it has not); each later stage runs on
    # the whole stack when some sample reaches it
    imag = np.abs(eigs.imag).max(axis=-1).tolist() if np.iscomplexobj(eigs) else [0.0] * len(g)
    reasons = [
        "mixed Ricci endomorphism has a complex eigenvalue pair" if im > 1e-8 * sc
        else f"largest eigenvalue cluster has multiplicity {mu} < {m - 1}" if mu < m - 1 else ""
        for im, sc, mu in zip(imag, scales, mults)
    ]
    if "" in reasons:
        alpha = values.sum(axis=-1) / m  # np.mean's own arithmetic
        if m - 1 in mults:  # such a cluster spans [0, m - 1) or [1, m)
            partial = np.where(top == 1, values[:, 1:].sum(axis=-1), values[:, :-1].sum(axis=-1))
            alpha = np.where(multiplicity == m - 1, partial / (m - 1), alpha)
        rest = ric - alpha[:, None, None] * g
        w, vecs = np.linalg.eigh(rest)
        samples, k = np.arange(len(g)), np.abs(w).argmax(axis=-1)
        sigma, direction = w[samples, k], vecs[samples, :, k]
        residual = max_abs(rest - sigma[:, None, None] * outer(direction, direction), 2)
        sigmas, residuals = sigma.tolist(), residual.tolist()
        for i, (res, size) in enumerate(zip(residuals, ric_sizes)):
            if not reasons[i] and res > tol * (1.0 + size):
                reasons[i] = "remainder after removing alpha g is not rank one"
        einstein = [abs(s) <= EINSTEIN_THRESHOLD * sc for s, sc in zip(sigmas, scales)]
        if any(not why and not zero for why, zero in zip(reasons, einstein)):
            u_raw = np.linalg.solve(g, direction[..., None])[..., 0]
            u_sizes = np.abs(u_raw).max(axis=-1).tolist()
        alphas, value_lists, ks = alpha.tolist(), values.tolist(), k.tolist()

    fits = []
    for i, reason in enumerate(reasons):
        if reason:
            fits.append(QEFit("neither", None, None, None, None, None, ric_sizes[i],
                              float("inf"), tuple(sorted(eigs[i].real.tolist())), reason))
            continue
        s, tail = sigmas[i], (abs(sigmas[i]), tuple(value_lists[i]))
        if einstein[i]:
            fits.append(QEFit("einstein", alphas[i], 0.0, np.zeros(m), None, None,
                              float(np.abs(rest[i]).max()), *tail))
            continue
        # g(U_raw, U_raw), dotted over the strided column: BLAS rounds a copy differently
        c = float(vecs[i, :, ks[i]] @ u_raw[i])
        if abs(c) <= 1e-10 * (1.0 + u_sizes[i] ** 2):
            # A is null for g; report the unnormalized direction
            fits.append(QEFit("quasi-einstein", alphas[i], s, direction[i], None, 0,
                              residuals[i], *tail,
                              "U direction is null; no unit normalization exists"))
        else:
            u = u_raw[i] / math.sqrt(abs(c))
            fits.append(QEFit("quasi-einstein", alphas[i], s * abs(c), g[i] @ u, u,
                              1 if c > 0 else -1, residuals[i], *tail))
    return fits


def _qcc_basis(g: np.ndarray, a_form: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The two basis tensors of the curvature fit, as broadcast outer
    products: t1[i, j, k, l] = g_jk g_il - g_ik g_jl and
    t2[i, j, k, l] = g_il A_j A_k - g_ik A_j A_l + g_jk A_i A_l - g_jl A_i A_k."""
    g_ik, g_il = g[..., :, None, :, None], g[..., :, None, None, :]
    g_jk, g_jl = g[..., None, :, :, None], g[..., None, :, None, :]
    a_i, a_j = a_form[..., :, None, None, None], a_form[..., None, :, None, None]
    a_k, a_l = a_form[..., None, None, :, None], a_form[..., None, None, None, :]
    t1 = g_jk * g_il - g_ik * g_jl
    t2 = g_il * a_j * a_k - g_ik * a_j * a_l + g_jk * a_i * a_l - g_jl * a_i * a_k
    return t1, t2


def check_quasi_constant_curvature(
    g: np.ndarray, riemann: np.ndarray, qe_fits: list[QEFit], tol: float = DEFAULT_FIT_TOL
) -> list[QCCFit]:
    """Least-squares fit of the lowered curvature tensor to the ansatz

        R[i,j,k,l] = a (g_jk g_il - g_ik g_jl)
                   + b (g_il A_j A_k - g_ik A_j A_l + g_jk A_i A_l - g_jl A_i A_k)

    The curvature fit takes its one-form from the quasi-Einstein fit of the
    same stack: A is ``qe_fits[i].A`` at sample i.

    ``g`` and ``riemann`` are ``(N, m, m)`` and ``(N, m, m, m, m)`` stacks and
    ``qe_fits`` N fits (else ``ValueError``), giving a list of N fits; all but
    each sample's two-column ``lstsq`` runs batched.  Raises ``FitInputError``
    at the first sample whose metric or curvature tensor is not finite, that
    lacks curvature symmetries, or whose fit basis is not finite, checked in
    that order sample by sample; a failed quasi-Einstein fit is reported.
    """
    g, r = np.asarray(g, dtype=float), np.asarray(riemann, dtype=float)
    if len(qe_fits) != len(g):
        raise ValueError(f"expected {len(g)} quasi-Einstein fits, got {len(qe_fits)}")
    m = g.shape[-1]
    # each check runs on the samples before the first one an earlier check failed
    n = stop = len(g)
    if not (np.isfinite(g).all() and np.isfinite(r).all()):
        stop = _first_bad(g, r)
        error = "curvature fit input (metric or curvature tensor) is not finite"
        g, r = g[:stop], r[:stop]
    r_size = np.abs(r).max(axis=(1, 2, 3, 4))
    scale = 1.0 + r_size
    worst = np.max([  # one temporary at a time: large ones cost page faults
        np.abs(r + r.swapaxes(1, 2)).max(axis=(1, 2, 3, 4)),
        np.abs(r + r.swapaxes(3, 4)).max(axis=(1, 2, 3, 4)),
        np.abs(r - r.transpose(0, 3, 4, 1, 2)).max(axis=(1, 2, 3, 4)),
    ], axis=0)
    asymmetric = worst > 1e-6 * scale
    if asymmetric.any():
        stop = int(np.argmax(asymmetric))
        error = f"input tensor lacks curvature symmetries (residual {worst[stop]:.3e})"
        g, r = g[:stop], r[:stop]

    # a failed quasi-Einstein fit is reported with max |R|; the basis is built,
    # with zeros for those samples, only if some sample's fit succeeded
    ok = np.array([fit.succeeded for fit in qe_fits[:stop]], dtype=bool)
    a_form = np.array([fit.A if fit.succeeded else np.zeros(m) for fit in qe_fits[:stop]])
    coeffs, residual = np.zeros((stop, 2)), r_size[:stop]
    if ok.any():
        with np.errstate(over="ignore", invalid="ignore"):
            t1, t2 = _qcc_basis(np.where(ok[:, None, None], g, 0.0), a_form)
        if not (np.isfinite(t1).all() and np.isfinite(t2).all()):
            basis = "two-coefficient curvature basis (products of metric entries) is not finite"
            raise FitInputError(basis, _first_bad(t1, t2))
        design = np.stack([t1.reshape(stop, -1), t2.reshape(stop, -1)], axis=-1)
        for i in np.flatnonzero(ok):
            coeffs[i] = np.linalg.lstsq(design[i], r[i].ravel(), rcond=None)[0]
        a, b = coeffs[:, 0].reshape(-1, 1, 1, 1, 1), coeffs[:, 1].reshape(-1, 1, 1, 1, 1)
        residual = np.abs(r - a * t1 - b * t2).max(axis=(1, 2, 3, 4))
    if stop < n:
        raise FitInputError(error, stop)
    return [
        QCCFit(res <= tol * sc, a_i, b_i, a_form[i], res)
        if fit.succeeded
        else QCCFit(False, None, None, None, res,
                    "Ricci contraction admits no rank-one decomposition")
        for i, (fit, (a_i, b_i), res, sc) in enumerate(
            zip(qe_fits, coeffs.tolist(), residual.tolist(), scale.tolist())
        )
    ]


# ---------------------------------------------------------------------------
# Factor identities under a rank-one ambient decomposition
# ---------------------------------------------------------------------------

def proposition1_residuals(
    frame: WarpedFrame, qe: tuple[float, float, object]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Residuals of the three factor Ricci identities implied by an
    ambient decomposition Ric = alpha g + beta A (x) A.

    On the block of factor k the decomposition reads
    alpha w_k^2 g_k + beta w_k^4 a_k (x) a_k, with w = (1, f, h) and
    a_k = g_k U_k, and the identity is that it equals the closed Ricci
    tensor of ``frame`` there: the factor's own Ricci tensor minus its
    warping terms.  One ``(N,)`` array per factor, M1, M2, M3: the max
    |Ric_kk - (alpha w_k^2 g_k + beta w_k^4 a_k (x) a_k)| of each sample,
    with ``alpha``, ``beta`` and ``U`` given once or per sample.
    """
    alpha, beta, u = qe
    ub = BlockVector.from_ambient(frame.product, u)
    residuals = []
    for sl, factor, w, u_k in zip(
        frame.product.block_slices,
        (frame.frame1, frame.frame2, frame.frame3),
        (np.ones_like(frame.f_value), frame.f_value, frame.h_value),
        (ub.x1, ub.x2, ub.x3),
    ):
        g = factor.metric
        a = matvec(g, u_k)
        stated = _per_sample(alpha * per_sample_power(w, 2), 2) * g + _per_sample(
            beta * per_sample_power(w, 4), 2
        ) * outer(a, a)
        residuals.append(max_abs(frame.ricci[..., sl, sl] - stated, 2))
    return tuple(residuals)


def lambda_at(frame: WarpedFrame, alpha: float | np.ndarray) -> np.ndarray:
    """alpha f^2 + ``frame.f_energy`` per sample, with ``alpha`` given once
    or per sample."""
    return alpha * per_sample_power(frame.f_value, 2) + frame.f_energy


def nu_at(frame: WarpedFrame, alpha: float | np.ndarray) -> np.ndarray:
    """alpha h^2 + ``frame.h_energy`` per sample, with ``alpha`` given once
    or per sample."""
    return alpha * per_sample_power(frame.h_value, 2) + frame.h_energy


# ---------------------------------------------------------------------------
# Torus quadrature
# ---------------------------------------------------------------------------

def _torus_grid(manifold: FactorManifold, nodes: int) -> np.ndarray:
    """The ``nodes``-per-period grid of a fully periodic chart, one node per row."""
    if isinstance(nodes, bool) or not isinstance(nodes, (int, np.integer)) or nodes < 1:
        raise ValueError(f"nodes must be an integer >= 1, got {nodes!r}")
    if not manifold.fully_periodic:
        raise GeometryError(
            f"{manifold.name!r} is not fully periodic; torus quadrature undefined"
        )
    axes = [np.arange(nodes) * (period / nodes) for period in manifold.periods]
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=-1)


class _GridFrame(ChartFrame):
    """Grid nodes ``nodes`` of a torus grid, at ``points``, as one frame:
    sample k is node ``nodes[k]``, and an error names a failing node by that
    index."""

    def __init__(
        self, manifold: FactorManifold, points: np.ndarray, nodes: range | np.ndarray, fields=()
    ):
        self.nodes = nodes
        super().__init__(manifold, points, fields)

    def where(self, k: int) -> str:
        return (
            f"node {self.nodes[k]} {self.point[k].tolist()} "
            f"of the {self.manifold.name!r} torus grid"
        )


class _GridBlock(_GridFrame):
    """A block of grid nodes on a chart whose metric mentions the
    coordinates ``columns``.

    Its metric stages are those of ``rows``, a ``_GridFrame`` at the first
    node of each distinct value of those coordinates (distinct by bit
    pattern, in order of first appearance), taken per node through
    ``row_of``: ``inverse``, ``det`` and ``christoffel``.  The first failing
    row is the row of the first failing node, and names that node, so the
    errors are the block's own.
    """

    def __init__(
        self, manifold: FactorManifold, points: np.ndarray, nodes: range, fields, columns: list
    ):
        super().__init__(manifold, points, nodes, fields)
        keys = self.point[:, columns].view(np.int64)
        if len(columns) == 1:
            keys = keys[:, 0]  # np.unique is faster on a 1-D array than by rows
        _, first, inverse = np.unique(keys, axis=0, return_index=True, return_inverse=True)
        order = np.argsort(first)  # the distinct values by first appearance
        self.row_of = np.argsort(order)[inverse.ravel()]
        first = first[order]
        self.rows = _GridFrame(manifold, self.point[first], nodes.start + first)

    @cached_property
    def inverse(self) -> np.ndarray:
        return self.rows.inverse[self.row_of]

    @cached_property
    def det(self) -> np.ndarray:
        return self.rows.det[self.row_of]

    @cached_property
    def christoffel(self) -> np.ndarray:
        return self.rows.christoffel[self.row_of]


def _volume_means(
    manifold: FactorManifold,
    grid: np.ndarray,
    phi: Expr,
    positive: tuple[tuple[str, Expr], ...],
    integrand,
) -> list[float]:
    """Volume-weighted means of pointwise field quantities over a torus grid.

    Equispaced nodes on a periodic chart make this the tensor-product
    trapezoid rule, exact in the limit and spectrally accurate for smooth
    integrands.

    The grid is evaluated in blocks of at most ``QUADRATURE_BLOCK`` nodes,
    each one ``_GridBlock`` built with ``phi`` and the warpings as its
    fields: the metric stages are computed once per distinct value of the
    coordinates the metric mentions (8 in a 1,024-node block of the ``nu``
    grid of a 1+1 product at 128 nodes per period) and gathered per node,
    and the fields run as one program.  A frame drops each run once it is
    read, before the block's tensors are built.  The frame's ``det``,
    Laplacian of ``phi`` and ``|grad phi|^2`` are those of a per-node loop
    of frames bit for bit, and the weighted sums are accumulated in node
    order, so the means are too (the tests check this on 1- and
    2-dimensional charts).
    ``integrand(value, lap, grad_norm2)`` maps the field data of a block to
    a tuple of arrays.

    Each node is checked in the order a walk of the block's stages would
    meet the failures: the metric's domain and the finiteness of its first
    two derivatives, its degeneracy (``DegenerateMetricError``), the domain
    and finiteness of the jets of ``phi`` (``GeometryError``), then the
    domain of each warping in ``positive`` (``(label, expr)`` pairs) and its
    positivity (``PositivityError``), then the metric values of its row as
    ``ChartFrame.validate`` checks them.  The error names the first failing
    node.
    """
    sums = None
    weight_total = 0.0
    fields = (phi, *(w for _, w in positive))
    mentioned = frozenset().union(*(free_variables(e) for row in manifold.metric for e in row))
    columns = [k for k, c in enumerate(manifold.coords) if c in mentioned]
    count = grid.shape[0]
    for start in range(0, count, QUADRATURE_BLOCK):
        stop = min(start + QUADRATURE_BLOCK, count)
        frame = _GridBlock(manifold, grid[start:stop], range(start, stop), fields, columns)
        with np.errstate(over="ignore", invalid="ignore"):
            frame.inverse  # raises for a degenerate metric
            det = frame.det
            value, dphi, d2phi = frame.field_jets(phi)
            finite = (
                np.isfinite(value)
                & np.isfinite(dphi).all(axis=1)
                & np.isfinite(d2phi).all(axis=(1, 2))
            )
            if not finite.all():
                raise GeometryError(
                    f"field {to_string(phi)!r} or one of its first two derivatives is not "
                    f"finite at {frame.where(int(np.argmin(finite)))}"
                )
            for label, w in positive:
                w_value = frame.field_jets(w)[0]
                if not (w_value > 0.0).all():
                    k = int(np.argmin(w_value > 0.0))
                    raise PositivityError(
                        f"{label} warping is {float(w_value[k])!r} (must be positive) at "
                        f"{frame.where(k)}"
                    )
            frame.rows.validate()

        weight = np.sqrt(np.abs(det))
        values = integrand(value, frame.laplacian(phi), frame.grad_norm2(phi))
        if sums is None:
            sums = [0.0] * len(values)
        for k, q in enumerate(values):
            sums[k] = _running_sum(sums[k], weight * q)
        weight_total = _running_sum(weight_total, weight)
    return [s / weight_total for s in sums]


def _running_sum(total: float, terms: np.ndarray) -> float:
    """``total + terms[0] + terms[1] + ...`` added left to right, as a loop
    would (``np.sum`` adds pairwise)."""
    return float(np.cumsum(np.concatenate(([total], terms)))[-1])


def torus_divergence_residual(
    manifold: FactorManifold, phi: Expr, nodes: int
) -> float:
    """|mean(phi Lap phi + |grad phi|^2)| over a fully periodic chart.

    The integrand is the divergence of phi grad phi, so the exact mean is
    zero on any closed manifold; the residual measures quadrature plus
    rounding error only.
    """
    grid = _torus_grid(manifold, nodes)

    def fields(value, lap, grad_norm2):
        return (value * lap + grad_norm2,)

    (mean,) = _volume_means(manifold, grid, phi, (), fields)
    return abs(mean)


def torus_average_identity(
    product: SequentialWarpedProduct,
    alpha: float,
    nodes: int,
    field_name: str = "lambda",
    tol: float = TORUS_TOL,
) -> IdentityReport:
    """Volume-averaged form of the lambda (or nu) field over a torus.

    Checks that the mean of the pointwise field equals
    ``alpha mean(w^2) + (d - 2) mean(|grad w|^2)`` where ``w`` is the
    relevant warping and ``d`` the warped fiber dimension; equivalently
    that ``mean(w Lap w + |grad w|^2) = 0`` by the divergence theorem.

    The grid is evaluated in batched blocks (see ``_volume_means``).  The
    averaged warping must be positive at every node, and for ``nu`` so must
    ``f``; otherwise ``PositivityError`` names the node.
    """
    if field_name == "lambda":
        manifold, phi, fiber_dim = product.m1, product.f, product.m2.dim
        positive = (("inner", product.f),)
    elif field_name == "nu":
        manifold, phi, fiber_dim = inner_chart(product), product.h, product.m3.dim
        positive = (("inner", product.f), ("outer", product.h))
    else:
        raise ValueError(f"field_name must be 'lambda' or 'nu', got {field_name!r}")

    grid = _torus_grid(manifold, nodes)

    def fields(value, lap, grad_norm2):
        lam = alpha * value**2 + value * lap + (fiber_dim - 1) * grad_norm2
        return (lam, value**2, grad_norm2)

    mean_field, mean_sq, mean_grad = _volume_means(manifold, grid, phi, positive, fields)
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
    frame: WarpedFrame, qe: tuple[float, float, object], lam: float
) -> tuple[np.ndarray, np.ndarray]:
    """Pointwise residuals of the two displayed differential conditions.

    Both identities are evaluated against every coordinate direction of
    the inner chart.  In the second condition the paired fiber arguments
    are taken equal to the probed direction, and the divergence of the
    scalar f^4 is read as its differential; these readings are recorded
    here once and used consistently.  ``lam`` may be given once or per
    sample.  The result is one ``(N,)`` array per condition, the max over
    the probed directions at each sample; a nonzero residual means the
    condition does not hold there.
    """
    product = frame.product
    alpha, beta, u = qe
    ub = BlockVector.from_ambient(product, u)
    m1, m2, m3 = product.dims
    f, h = frame.f_value, frame.h_value
    inner = frame.inner_frame
    d1 = m1
    dim = d1 + m2

    def extended(x: np.ndarray) -> np.ndarray:
        """A first-factor vector, padded with zeros on the second factor."""
        return np.concatenate([x, np.zeros(x.shape[:-1] + (m2,))], axis=-1)

    grad_f_ext, df_ext = extended(frame.grad_f), extended(frame.df)
    g1u1 = matvec(frame.frame1.metric, ub.x1)
    g2u2 = matvec(frame.frame2.metric, ub.x2)
    grad_h2 = frame.grad_h[..., d1:]

    div_hess_h = inner.div_hessian(product.h)
    dlap_h = inner.grad_laplacian(product.h)
    dlap_f = extended(frame.frame1.grad_laplacian(product.f))
    hess_h = frame.hess_h
    dh = frame.dh
    f_, h_ = _per_sample(f, 1), _per_sample(h, 1)
    h2 = _per_sample(per_sample_power(h, 2), 1)

    # condition forcing constant lambda, per inner direction j
    gradf_u1 = _per_sample(dot(frame.df, ub.x1), 1)
    div_hh_over_h = div_hess_h / h_ - matvec(hess_h, frame.grad_h) / h2
    dlap_h_over_h = dlap_h / h_ - _per_sample(frame.lap_h, 1) * dh / h2
    grad_f_hess_h = np.stack([dot(grad_f_ext, hess_h[..., :, j]) for j in range(dim)], axis=-1)
    lhs = (
        (m2 * beta / f_) * gradf_u1 * extended(g1u1)
        + (m2 * m3 / (f_ * h_)) * grad_f_hess_h
        + m3 * div_hh_over_h
    )
    rhs = (m3 / 2.0) * dlap_h_over_h + (2.0 * m2 / f_) * dlap_f
    res1 = max_abs(lhs - rhs, 1)

    # condition forcing constant nu, per inner direction j
    g2u2u2 = _per_sample(dot(ub.x2, g2u2), 1)
    gradh2_u2 = _per_sample(dot(grad_h2, g2u2), 1)
    g2xu = np.concatenate([np.zeros(g2u2.shape[:-1] + (d1,)), g2u2], axis=-1)
    f3 = _per_sample(per_sample_power(f, 3), 1)
    df4 = 4.0 * f3 * df_ext
    lhs = (
        (m3 / h_) * (_per_sample(lam, 1) - alpha) * dh
        + beta * df4 * per_sample_power(g2xu, 2)
        + (m3 * beta / h_) * _per_sample(per_sample_power(f, 4), 1) * gradh2_u2 * g2xu
    )
    rhs = (2.0 * m3 / h_) * dlap_h + 2.0 * beta * f3 * df_ext * g2u2u2
    res2 = max_abs(lhs - rhs, 1)
    return res1, res2


# ---------------------------------------------------------------------------
# Rigidity condition evaluators
# ---------------------------------------------------------------------------

def theorem2_conditions(
    frame: WarpedFrame,
    qe: tuple[float, float, object] | None,
    lam: float,
    nu: float,
    tol: float = DEFAULT_FIT_TOL,
) -> list[IdentityReport]:
    """Evaluate the three constancy-forcing hypothesis bundles over samples.

    Each report passes when the hypothesis fails somewhere (vacuous) or
    the conclusion - a vanishing warping gradient - holds numerically at
    every sample.  ``qe = None`` marks the rank-one decomposition itself
    unavailable, which voids every hypothesis.
    """
    product = frame.product
    alpha, beta = (qe[0], qe[1]) if qe is not None else (None, None)
    m2, m3 = product.m2.dim, product.m3.dim
    # the rigidity statements concern compact Riemannian factors; indefinite
    # gradient norms would make the hypotheses meaningless
    riemannian = all(fac.signature == "riemannian" for fac in product.factors)
    n = len(frame.point)

    scal3 = frame.frame3.scalar
    lap_h = frame.lap_h
    gradf2 = frame.grad_f_norm2
    gradh2 = frame.grad_h_norm2

    hyp1 = bool(
        riemannian
        and alpha is not None
        and beta is not None
        and alpha > tol
        and beta > tol
        and np.all(scal3 <= tol)
        and np.all(lap_h >= -tol)
    )
    gaps = lam - alpha * per_sample_power(frame.f_value, 2) if alpha is not None else None
    hyp2 = bool(
        riemannian
        and m2 == 1
        and gaps is not None
        and (np.all(gaps > tol) or np.all(gaps < -tol))
    )
    hyp3 = bool(
        riemannian
        and alpha is not None
        and alpha > tol
        and m2 >= 2
        and m3 >= 2
        and np.all(gradf2 >= lam / (m2 - 1) - tol)
        and np.all(gradh2 >= nu / (m3 - 1) - tol)
    )
    # each conclusion: the gradients named vanish at every sample
    bundles = (
        ("theorem2_i", hyp1, (gradh2,)),
        ("theorem2_ii", hyp2, (gradf2,)),
        ("theorem2_iii", hyp3, (gradf2, gradh2)),
    )
    return [
        IdentityReport.from_residual(
            name,
            max(np.max(np.abs(g)) for g in gradients) if holds else 0.0,
            tol,
            points=n,
            informational=True,
            details={"hypothesis_holds": holds},
        )
        for name, holds, gradients in bundles
    ]
