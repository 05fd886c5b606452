"""Forward-mode differentiation of expressions: exact gradients and Hessians.

Expressions are evaluated over ``JetStack``, order-2 jets (value, gradient
and Hessian) at a stack of N points at once, whose value, gradient and
Hessian have shapes ``(N,)``, ``(N, n)`` and ``(N, n, n)`` (vector forward
mode, Griewank & Walther, *Evaluating Derivatives*, 2nd ed., ch. 3 and 13),
so first and second partial derivatives come out exact to rounding.
Curvature work needs exact second derivatives of metric entries; finite
differences and the symbolic derivatives of ``expressions`` serve in the
test suite only, as independent cross-checks.  One point is a stack of
one.  Each point gets its own elementwise arithmetic, so row i of a stack
equals a stack of one at that row, bit for bit.

The Hessians produced here are bitwise symmetric: every update is built
from symmetric outer-product combinations, and a product adds its cross
term and that term's transpose as one group, ``(cross + cross.T)``, whose
entries (i, j) and (j, i) are the same sum.

A walk obeys the domain rules (``log`` and ``sqrt`` of non-positive values,
division by zero, zero to a negative integer power, a non-positive base
under a non-integer power) and raises ``DomainError`` at the first point
that breaks one; overflow gives ``inf``, which the callers check for.

A ``JetWalker`` holds the coordinate jets of one stack, seeded once, and
memoizes the jet of every subexpression it walks, keyed by structure: the
metric entries of a chart, their derivatives and the warping fields share
many subtrees, and each distinct one is walked once per walker.
``eval_jet_stack`` (a stack) and ``eval_jet`` (one point, order 1 or 2) are
one-expression walks on a fresh walker, so there is one code path.
"""

from __future__ import annotations

from typing import Mapping, Sequence

import numpy as np

from .expressions import (
    MAX_UNROLLED_EXPONENT,
    BinOp,
    Call,
    Const,
    DomainError,
    Expr,
    ExpressionError,
    Neg,
    Var,
    integer_exponent,
    to_string,
)

__all__ = ["JetStack", "JetWalker", "eval_jet", "eval_jet_stack"]


def _stack_fail(bad: np.ndarray, x: np.ndarray, reason: str, node: Expr) -> None:
    """Raise ``DomainError`` at the first node of a stack where ``bad`` holds.

    The error carries ``node`` (that index) and ``reason`` (the message
    without the node), so a caller that evaluated a slice of a larger grid
    can name the node in its own numbering.
    """
    if bad.any():
        i = int(np.argmax(bad))
        why = f"{reason.format(float(x[i]))} in {to_string(node)!r}"
        err = DomainError(f"{why} at node {i}")
        err.node, err.reason = i, why
        raise err


def _stack_fn_table(
    name: str, x: np.ndarray, node: Expr
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Value and first two derivatives of a unary function at each entry of
    ``x``; raises ``DomainError`` at the first entry outside its domain."""
    if name == "sin":
        s, c = np.sin(x), np.cos(x)
        return s, c, -s
    if name == "cos":
        s, c = np.sin(x), np.cos(x)
        return c, -s, -c
    if name == "tan":
        t = np.tan(x)
        d = 1.0 + t * t
        return t, d, 2.0 * t * d
    if name == "sinh":
        s = np.sinh(x)
        return s, np.cosh(x), s
    if name == "cosh":
        c = np.cosh(x)
        return c, np.sinh(x), c
    if name == "tanh":
        t = np.tanh(x)
        d = 1.0 - t * t
        return t, d, -2.0 * t * d
    if name == "exp":
        e = np.exp(x)
        return e, e, e
    if name == "log":
        _stack_fail(x <= 0.0, x, "log of non-positive value {!r}", node)
        return np.log(x), 1.0 / x, -1.0 / (x * x)
    if name == "sqrt":
        bad = x <= 0.0
        negative = bad.any() and x[np.argmax(bad)] < 0.0
        reason = "sqrt of negative value {!r}" if negative else "sqrt derivative at zero"
        _stack_fail(bad, x, reason, node)
        r = np.sqrt(x)
        return r, 0.5 / r, -0.25 / (x * r)
    raise ExpressionError(f"unknown function {name!r}")


class JetStack:
    """Second-order jets at N points: value ``(N,)``, gradient ``(N, n)``,
    Hessian ``(N, n, n)``.  ``dim`` is the pair ``(N, n)``."""

    __slots__ = ("value", "grad", "hess")

    def __init__(self, value: np.ndarray, grad: np.ndarray, hess: np.ndarray):
        self.value = value
        self.grad = grad
        self.hess = hess

    @classmethod
    def constant(cls, value: float, dim: tuple[int, int]) -> "JetStack":
        count, n = dim
        return cls(np.full(count, value), np.zeros((count, n)), np.zeros((count, n, n)))

    @classmethod
    def seed(cls, values: np.ndarray, index: int, dim: tuple[int, int]) -> "JetStack":
        count, n = dim
        g = np.zeros((count, n))
        g[:, index] = 1.0
        return cls(values, g, np.zeros((count, n, n)))

    def __add__(self, o: "JetStack") -> "JetStack":
        return JetStack(self.value + o.value, self.grad + o.grad, self.hess + o.hess)

    def __sub__(self, o: "JetStack") -> "JetStack":
        return JetStack(self.value - o.value, self.grad - o.grad, self.hess - o.hess)

    def __neg__(self) -> "JetStack":
        return JetStack(-self.value, -self.grad, -self.hess)

    def __mul__(self, o: "JetStack") -> "JetStack":
        cross = self.grad[:, :, None] * o.grad[:, None, :]
        a, b = self.value[:, None], o.value[:, None]
        return JetStack(
            self.value * o.value,
            a * o.grad + b * self.grad,
            a[:, :, None] * o.hess
            + b[:, :, None] * self.hess
            + (cross + cross.transpose(0, 2, 1)),
        )

    def reciprocal(self, node: Expr) -> "JetStack":
        _stack_fail(self.value == 0.0, self.value, "division by zero", node)
        v = 1.0 / self.value
        outer = self.grad[:, :, None] * self.grad[:, None, :]
        return JetStack(
            v,
            (-v * v)[:, None] * self.grad,
            (-v * v)[:, None, None] * self.hess + (2.0 * v**3)[:, None, None] * outer,
        )

    def chain(self, f: np.ndarray, df: np.ndarray, d2f: np.ndarray) -> "JetStack":
        outer = self.grad[:, :, None] * self.grad[:, None, :]
        return JetStack(
            f,
            df[:, None] * self.grad,
            df[:, None, None] * self.hess + d2f[:, None, None] * outer,
        )

    def int_power(self, n: int, node: Expr) -> "JetStack":
        """Analytic power rule; integer exponents keep negative bases legal."""
        if n < 0:
            _stack_fail(self.value == 0.0, self.value, "zero raised to a negative power", node)
        v = self.value
        return self.chain(v**n, n * v ** (n - 1), n * (n - 1) * v ** (n - 2))

    def require_positive_base(self, node: Expr) -> None:
        """A non-integer exponent needs a positive base."""
        _stack_fail(self.value <= 0.0, self.value, "power with non-positive base {!r}", node)

    def real_power(self, c: float) -> "JetStack":
        v = self.value
        return self.chain(v**c, c * v ** (c - 1.0), c * (c - 1.0) * v ** (c - 2.0))


def _int_power(u: JetStack, n: int, walk: "JetWalker", node: Expr) -> JetStack:
    if n == 0:
        return JetStack.constant(1.0, walk.dim)
    if abs(n) > MAX_UNROLLED_EXPONENT:
        return u.int_power(n, node)
    out = u
    for _ in range(abs(n) - 1):
        out = out * u
    if n < 0:
        out = out.reciprocal(node)
    return out


def _eval(e: Expr, walk: "JetWalker") -> JetStack:
    """The jet of ``e`` over ``walk``'s coordinate jets; subtrees go through
    ``walk.jet``, so each is walked once per walker."""
    if isinstance(e, Const):
        return JetStack.constant(e.value, walk.dim)
    if isinstance(e, Var):
        try:
            return walk.env[e.name]
        except KeyError:
            raise ExpressionError(f"unbound variable {e.name!r}") from None
    if isinstance(e, Neg):
        return -walk.jet(e.arg)
    if isinstance(e, Call):
        u = walk.jet(e.arg)
        return u.chain(*_stack_fn_table(e.fn, u.value, e))
    if isinstance(e, BinOp):
        if e.op == "^":
            u = walk.jet(e.left)
            n = integer_exponent(e.right)
            if n is not None:
                return _int_power(u, n, walk, node=e)
            u.require_positive_base(e)
            if isinstance(e.right, Const):
                return u.real_power(e.right.value)
            w = walk.jet(e.right)
            logu = u.chain(*_stack_fn_table("log", u.value, e))
            prod = w * logu
            return prod.chain(*_stack_fn_table("exp", prod.value, e))
        a = walk.jet(e.left)
        b = walk.jet(e.right)
        if e.op == "+":
            return a + b
        if e.op == "-":
            return a - b
        if e.op == "*":
            return a * b
        return a * b.reciprocal(e)
    raise TypeError(f"not an expression node: {e!r}")


def _read_only(*arrays: np.ndarray) -> tuple[np.ndarray, ...]:
    for a in arrays:
        a.flags.writeable = False
    return arrays


class JetWalker:
    """Jets of any number of expressions at every row of ``points``, shape
    ``(N, n)`` with columns in ``coords`` order.

    The coordinates are seeded once, at construction, and the jet of every
    subexpression is memoized by structure (``Expr`` equality), so a
    subtree shared by several expressions, or met twice in one, is walked
    once per walker.  A jet is a pure function of its subtree and the
    seeds, so the results are those of independent walks, bit for bit.  A
    subtree whose walk raises is not memoized.  The memo lives as long as
    the walker: drop the walker to release it.
    """

    __slots__ = ("dim", "env", "_memo")

    def __init__(self, points: np.ndarray, coords: Sequence[str]):
        points = np.asarray(points, dtype=float)
        self.dim = (points.shape[0], len(coords))
        self.env = {name: JetStack.seed(points[:, i], i, self.dim) for i, name in enumerate(coords)}
        self._memo: dict[Expr, JetStack] = {}

    def jet(self, e: Expr) -> JetStack:
        """The jet of ``e``, walked at most once per walker."""
        out = self._memo.get(e)
        if out is None:
            out = self._memo[e] = _eval(e, self)
        return out

    def jets(self, e: Expr) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(value, gradient, hessian)`` of ``e``; the arrays are read-only,
        because the memo shares them."""
        out = self.jet(e)
        return _read_only(out.value, out.grad, out.hess)


def eval_jet(
    e: Expr,
    point: Mapping[str, float],
    order: int,
    coords: Sequence[str] | None = None,
):
    """Evaluate with derivatives up to ``order`` (1 or 2) at one point.

    Returns ``(value, gradient)`` for order 1 and
    ``(value, gradient, hessian)`` for order 2: a float, an ``(n,)`` and an
    ``(n, n)`` read-only array, with derivative components ordered by
    ``coords`` (sorted point keys when omitted).  A walk over a stack of one;
    a ``DomainError`` names no node.
    """
    if order not in (1, 2):
        raise ValueError(f"order must be 1 or 2, got {order!r}")
    if coords is None:
        coords = sorted(point)
    row = np.array([[float(point[name]) for name in coords]])
    try:
        value, grad, hess = eval_jet_stack(e, row, coords)
    except DomainError as exc:
        err = DomainError(exc.reason)
        err.node, err.reason = exc.node, exc.reason
        raise err from None
    return (float(value[0]), grad[0], hess[0])[: order + 1]


def eval_jet_stack(e: Expr, points: np.ndarray, coords: Sequence[str]):
    """Order-2 jets of ``e`` at every row of ``points`` (shape ``(N, n)``,
    columns in ``coords`` order): ``(value (N,), gradient (N, n), hessian
    (N, n, n))``.  A one-expression walk on a fresh ``JetWalker``.

    Raises ``DomainError`` naming the first row that leaves a domain.
    """
    return JetWalker(points, coords).jets(e)
