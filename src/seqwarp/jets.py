"""Forward-mode differentiation of expressions: exact gradients and Hessians.

Expressions are evaluated over dual numbers (value + gradient) or
hyper-dual numbers (value + gradient + Hessian), so first and second
partial derivatives come out exact to rounding.  Curvature work needs
exact second derivatives of metric entries; finite differences exist in
the test suite only, as an independent cross-check.

The Hessians produced here are bitwise symmetric: every update is built
from symmetric outer-product combinations, and a product adds its cross
term and that term's transpose as one group, ``(cross + cross.T)``, whose
entries (i, j) and (j, i) are the same sum.

One walker, ``_eval``, serves every jet class.  The steps that depend on
values (the function table, the domain checks, the analytic power rule for
``|n| > MAX_UNROLLED_EXPONENT`` and real powers) are methods of the jet
class, so the same tree walk runs over scalar jets at one point (``Dual``,
``HyperDual``) and over ``JetStack``, order-2 jets at a stack of N points at
once, whose value, gradient and Hessian have shapes ``(N,)``, ``(N, n)`` and
``(N, n, n)`` (vector forward mode, Griewank & Walther, *Evaluating
Derivatives*, 2nd ed., ch. 3 and 13).  Every stack operation is the scalar
operation applied elementwise, so sums, products, ``sin``, ``cos`` and small
integer powers agree with the scalar jets bit for bit; the numpy versions of
``exp``, ``log``, ``tan``, ``tanh`` and ``**`` may differ from ``math`` in
the last ulp.  A stack obeys the scalar domain rules and raises at the first
node that breaks one; overflow gives ``inf`` rather than ``OverflowError``.

A ``JetWalker`` holds the coordinate jets of one point or one stack, seeded
once, and memoizes the jet of every subexpression it walks, keyed by
structure: the metric entries of a chart, their derivatives and the warping
fields share many subtrees, and each distinct one is walked once per walker.
``eval_jet`` (one point, order 1 or 2) and ``eval_jet_stack`` (a stack) are
one-expression walks on a fresh walker, so there is one code path.
"""

from __future__ import annotations

import math
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

__all__ = ["Dual", "HyperDual", "JetStack", "JetWalker", "eval_jet", "eval_jet_stack"]


def _fn_table(name: str, x: float, node: Expr) -> tuple[float, float, float]:
    """Value and first two derivatives of a unary function at ``x``."""
    if name == "sin":
        s, c = math.sin(x), math.cos(x)
        return s, c, -s
    if name == "cos":
        s, c = math.sin(x), math.cos(x)
        return c, -s, -c
    if name == "tan":
        t = math.tan(x)
        d = 1.0 + t * t
        return t, d, 2.0 * t * d
    if name == "sinh":
        return math.sinh(x), math.cosh(x), math.sinh(x)
    if name == "cosh":
        return math.cosh(x), math.sinh(x), math.cosh(x)
    if name == "tanh":
        t = math.tanh(x)
        d = 1.0 - t * t
        return t, d, -2.0 * t * d
    if name == "exp":
        e = math.exp(x)
        return e, e, e
    if name == "log":
        if x <= 0.0:
            raise DomainError(f"log of non-positive value {x!r} in {to_string(node)!r}")
        return math.log(x), 1.0 / x, -1.0 / (x * x)
    if name == "sqrt":
        if x < 0.0:
            raise DomainError(f"sqrt of negative value {x!r} in {to_string(node)!r}")
        if x == 0.0:
            raise DomainError(f"sqrt derivative at zero in {to_string(node)!r}")
        r = math.sqrt(x)
        return r, 0.5 / r, -0.25 / (x * r)
    raise ExpressionError(f"unknown function {name!r}")


class _JetRules:
    """Value-dependent walker steps whose arithmetic fits a float or a stack.

    Subclasses supply ``fn_table(name, x, node)`` and ``_fail_where(bad,
    reason, node)``, which raises ``DomainError`` where ``bad`` holds.
    """

    __slots__ = ()

    def int_power(self, n: int, node: Expr):
        """Analytic power rule; integer exponents keep negative bases legal."""
        if n < 0:
            self._fail_where(self.value == 0.0, "zero raised to a negative power", node)
        v = self.value
        return self.chain(v**n, n * v ** (n - 1), n * (n - 1) * v ** (n - 2))

    def require_positive_base(self, node: Expr) -> None:
        """A non-integer exponent needs a positive base."""
        self._fail_where(self.value <= 0.0, "power with non-positive base {!r}", node)

    def real_power(self, c: float):
        v = self.value
        return self.chain(v**c, c * v ** (c - 1.0), c * (c - 1.0) * v ** (c - 2.0))


class _ScalarJet(_JetRules):
    """Rules for jets at one point: ``math`` functions, ``if`` checks."""

    __slots__ = ()

    fn_table = staticmethod(_fn_table)

    def _fail_where(self, bad: bool, reason: str, node: Expr) -> None:
        if bad:
            raise DomainError(f"{reason.format(self.value)} in {to_string(node)!r}")


class Dual(_ScalarJet):
    """First-order jet: value plus gradient with respect to n coordinates."""

    __slots__ = ("value", "grad")

    def __init__(self, value: float, grad: np.ndarray):
        self.value = value
        self.grad = grad

    @classmethod
    def constant(cls, value: float, n: int) -> "Dual":
        return cls(value, np.zeros(n))

    @classmethod
    def seed(cls, value: float, index: int, n: int) -> "Dual":
        g = np.zeros(n)
        g[index] = 1.0
        return cls(value, g)

    def __add__(self, o: "Dual") -> "Dual":
        return Dual(self.value + o.value, self.grad + o.grad)

    def __sub__(self, o: "Dual") -> "Dual":
        return Dual(self.value - o.value, self.grad - o.grad)

    def __neg__(self) -> "Dual":
        return Dual(-self.value, -self.grad)

    def __mul__(self, o: "Dual") -> "Dual":
        return Dual(self.value * o.value, self.value * o.grad + o.value * self.grad)

    def reciprocal(self, node: Expr) -> "Dual":
        if self.value == 0.0:
            raise DomainError(f"division by zero in {to_string(node)!r}")
        v = 1.0 / self.value
        return Dual(v, -v * v * self.grad)

    def chain(self, f: float, df: float, _d2f: float) -> "Dual":
        return Dual(f, df * self.grad)


class HyperDual(_ScalarJet):
    """Second-order jet: value, gradient, and Hessian."""

    __slots__ = ("value", "grad", "hess")

    def __init__(self, value: float, grad: np.ndarray, hess: np.ndarray):
        self.value = value
        self.grad = grad
        self.hess = hess

    @classmethod
    def constant(cls, value: float, n: int) -> "HyperDual":
        return cls(value, np.zeros(n), np.zeros((n, n)))

    @classmethod
    def seed(cls, value: float, index: int, n: int) -> "HyperDual":
        g = np.zeros(n)
        g[index] = 1.0
        return cls(value, g, np.zeros((n, n)))

    def __add__(self, o: "HyperDual") -> "HyperDual":
        return HyperDual(self.value + o.value, self.grad + o.grad, self.hess + o.hess)

    def __sub__(self, o: "HyperDual") -> "HyperDual":
        return HyperDual(self.value - o.value, self.grad - o.grad, self.hess - o.hess)

    def __neg__(self) -> "HyperDual":
        return HyperDual(-self.value, -self.grad, -self.hess)

    def __mul__(self, o: "HyperDual") -> "HyperDual":
        cross = np.outer(self.grad, o.grad)
        return HyperDual(
            self.value * o.value,
            self.value * o.grad + o.value * self.grad,
            self.value * o.hess + o.value * self.hess + (cross + cross.T),
        )

    def reciprocal(self, node: Expr) -> "HyperDual":
        if self.value == 0.0:
            raise DomainError(f"division by zero in {to_string(node)!r}")
        v = 1.0 / self.value
        outer = np.outer(self.grad, self.grad)
        return HyperDual(v, -v * v * self.grad, -v * v * self.hess + 2.0 * v**3 * outer)

    def chain(self, f: float, df: float, d2f: float) -> "HyperDual":
        return HyperDual(
            f,
            df * self.grad,
            df * self.hess + d2f * np.outer(self.grad, self.grad),
        )


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
    """``_fn_table`` over a stack of arguments, with the same domain rules."""
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


class JetStack(_JetRules):
    """Second-order jets at N points: value ``(N,)``, gradient ``(N, n)``,
    Hessian ``(N, n, n)``.

    Each operation is the ``HyperDual`` operation applied node by node, in
    the same order.  ``dim`` is the pair ``(N, n)``.
    """

    __slots__ = ("value", "grad", "hess")

    fn_table = staticmethod(_stack_fn_table)

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

    def _fail_where(self, bad: np.ndarray, reason: str, node: Expr) -> None:
        _stack_fail(bad, self.value, reason, node)

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
        self._fail_where(self.value == 0.0, "division by zero", node)
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


def _int_power(u, n: int, walk: "JetWalker", node: Expr):
    if n == 0:
        return walk.cls.constant(1.0, walk.dim)
    if abs(n) > MAX_UNROLLED_EXPONENT:
        return u.int_power(n, node)
    out = u
    for _ in range(abs(n) - 1):
        out = out * u
    if n < 0:
        out = out.reciprocal(node)
    return out


def _eval(e: Expr, walk: "JetWalker"):
    """The jet of ``e`` over ``walk``'s coordinate jets; subtrees go through
    ``walk.jet``, so each is walked once per walker."""
    if isinstance(e, Const):
        return walk.cls.constant(e.value, walk.dim)
    if isinstance(e, Var):
        try:
            return walk.env[e.name]
        except KeyError:
            raise ExpressionError(f"unbound variable {e.name!r}") from None
    if isinstance(e, Neg):
        return -walk.jet(e.arg)
    if isinstance(e, Call):
        u = walk.jet(e.arg)
        return u.chain(*u.fn_table(e.fn, u.value, e))
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
            logu = u.chain(*u.fn_table("log", u.value, e))
            prod = w * logu
            return prod.chain(*u.fn_table("exp", prod.value, e))
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
    """Jets of any number of expressions over one set of coordinate jets.

    The coordinates are seeded once, at construction, and the jet of every
    subexpression is memoized by structure (``Expr`` equality), so a
    subtree shared by several expressions, or met twice in one, is walked
    once per walker.  A jet is a pure function of its subtree and the
    seeds, so the results are those of independent walks, bit for bit.  A
    subtree whose walk raises is not memoized.  The memo lives as long as
    the walker: drop the walker to release it.

    ``cls`` is the jet class (``Dual``, ``HyperDual`` or ``JetStack``) and
    ``dim`` what ``cls.constant`` takes.  Build one with ``at_point`` (jets
    at one point) or ``over_stack`` (order-2 jets at N points).
    """

    __slots__ = ("cls", "dim", "env", "_memo")

    def __init__(self, cls, dim, env: dict):
        self.cls, self.dim, self.env = cls, dim, env
        self._memo: dict[Expr, object] = {}

    @classmethod
    def at_point(
        cls, point: Mapping[str, float], order: int, coords: Sequence[str]
    ) -> "JetWalker":
        """Jets of order 1 (``Dual``) or 2 (``HyperDual``) at one point."""
        jet = {1: Dual, 2: HyperDual}.get(order)
        if jet is None:
            raise ValueError(f"order must be 1 or 2, got {order!r}")
        n = len(coords)
        env = {name: jet.seed(float(point[name]), i, n) for i, name in enumerate(coords)}
        return cls(jet, n, env)

    @classmethod
    def over_stack(cls, points: np.ndarray, coords: Sequence[str]) -> "JetWalker":
        """Order-2 jets (``JetStack``) at every row of ``points``, shape
        ``(N, n)`` with columns in ``coords`` order."""
        points = np.asarray(points, dtype=float)
        dim = (points.shape[0], len(coords))
        env = {name: JetStack.seed(points[:, i], i, dim) for i, name in enumerate(coords)}
        return cls(JetStack, dim, env)

    def jet(self, e: Expr):
        """The jet object of ``e``, walked at most once per walker."""
        out = self._memo.get(e)
        if out is None:
            out = self._memo[e] = _eval(e, self)
        return out

    def jets(self, e: Expr) -> tuple:
        """``(value, gradient)`` for ``Dual``, ``(value, gradient, hessian)``
        otherwise; the arrays are read-only, because the memo shares them."""
        out = self.jet(e)
        if self.cls is Dual:
            return (out.value,) + _read_only(out.grad)
        if self.cls is HyperDual:
            return (out.value,) + _read_only(out.grad, out.hess)
        return _read_only(out.value, out.grad, out.hess)


def eval_jet(
    e: Expr,
    point: Mapping[str, float],
    order: int,
    coords: Sequence[str] | None = None,
):
    """Evaluate with derivatives up to ``order`` (1 or 2).

    Returns ``(value, gradient)`` for order 1 and
    ``(value, gradient, hessian)`` for order 2, with derivative components
    ordered by ``coords`` (sorted point keys when omitted).  A one-expression
    walk on a fresh ``JetWalker``.
    """
    if coords is None:
        coords = sorted(point)
    return JetWalker.at_point(point, order, coords).jets(e)


def eval_jet_stack(e: Expr, points: np.ndarray, coords: Sequence[str]):
    """Order-2 jets of ``e`` at every row of ``points`` (shape ``(N, n)``,
    columns in ``coords`` order): ``(value (N,), gradient (N, n), hessian
    (N, n, n))``.  A one-expression walk on a fresh ``JetWalker``.

    Raises ``DomainError`` naming the first row that leaves a domain.
    """
    return JetWalker.over_stack(points, coords).jets(e)
