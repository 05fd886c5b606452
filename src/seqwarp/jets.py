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

A ``JetProgram`` is the jet engine: a tuple of root expressions compiled
once into a straight-line program, the classic AD tape (ch. 13).  Each
distinct subexpression becomes one node, numbered in the post-order of a
walk over the roots in order; integer powers up to
``MAX_UNROLLED_EXPONENT`` unroll into a chain of products.  A node's level
is one more than its children's highest, and the nodes of one level that
apply the same operation (the same function, the same exponent) run as one
``JetStack`` operation on a ``(K, N, ...)`` batch.  Every operation is
elementwise, so each node gets the arithmetic a walk of its subtree would
give it, bit for bit.  ``jet_program`` caches programs by structure.

A run obeys the domain rules (``log`` and ``sqrt`` of non-positive values,
division by zero, zero to a negative integer power, a non-positive base
under a non-integer power).  It computes through a broken node, with every
floating-point warning off, and records where each checked node breaks;
``JetRun.roots`` then raises ``DomainError`` for the first broken node in
walk order among the nodes of the roots asked for, at its first broken
point: the error a walk of those roots would raise.  So one run can serve
stages that a walk would check one after another.  Overflow gives ``inf``,
which the callers check for.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Mapping, Sequence

import numpy as np

from .expressions import (
    FUNCTIONS,
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

__all__ = ["JetStack", "JetProgram", "JetRun", "jet_program", "eval_jet", "eval_jet_stack"]


# the default ``out`` of a JetStack operation: fresh arrays
_FRESH = (None, None, None)


def _fn_table(name: str, x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Value and first two derivatives of a unary function at each entry of
    ``x``; the domain is checked by the caller."""
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
        return np.log(x), 1.0 / x, -1.0 / (x * x)
    r = np.sqrt(x)
    return r, 0.5 / r, -0.25 / (x * r)


class JetStack:
    """Second-order jets at N points: value ``(N,)``, gradient ``(N, n)``,
    Hessian ``(N, n, n)``.  Leading batch axes are allowed: a ``(K, N)``
    value with ``(K, N, n)`` and ``(K, N, n, n)`` derivatives is K stacks,
    each with its own elementwise arithmetic.

    Every operation takes ``out``, three arrays that receive the result's
    value, gradient and Hessian (fresh arrays by default); the operators
    give fresh arrays."""

    __slots__ = ("value", "grad", "hess")

    def __init__(self, value: np.ndarray, grad: np.ndarray, hess: np.ndarray):
        self.value = value
        self.grad = grad
        self.hess = hess

    def add(self, o: "JetStack", out=_FRESH) -> "JetStack":
        v, g, h = out
        return JetStack(
            np.add(self.value, o.value, out=v),
            np.add(self.grad, o.grad, out=g),
            np.add(self.hess, o.hess, out=h),
        )

    def sub(self, o: "JetStack", out=_FRESH) -> "JetStack":
        v, g, h = out
        return JetStack(
            np.subtract(self.value, o.value, out=v),
            np.subtract(self.grad, o.grad, out=g),
            np.subtract(self.hess, o.hess, out=h),
        )

    def neg(self, out=_FRESH) -> "JetStack":
        v, g, h = out
        return JetStack(
            np.negative(self.value, out=v),
            np.negative(self.grad, out=g),
            np.negative(self.hess, out=h),
        )

    def mul(self, o: "JetStack", out=_FRESH) -> "JetStack":
        v, g, h = out
        cross = self.grad[..., :, None] * o.grad[..., None, :]
        a, b = self.value[..., None], o.value[..., None]
        return JetStack(
            np.multiply(self.value, o.value, out=v),
            np.add(a * o.grad, b * self.grad, out=g),
            np.add(
                a[..., None] * o.hess + b[..., None] * self.hess,
                cross + cross.swapaxes(-1, -2),
                out=h,
            ),
        )

    __add__, __sub__, __neg__, __mul__ = add, sub, neg, mul

    def reciprocal(self, out=_FRESH) -> "JetStack":
        v, g, h = out
        v = np.divide(1.0, self.value, out=v)
        outer = self.grad[..., :, None] * self.grad[..., None, :]
        return JetStack(
            v,
            np.multiply((-v * v)[..., None], self.grad, out=g),
            np.add(
                (-v * v)[..., None, None] * self.hess,
                (2.0 * v**3)[..., None, None] * outer,
                out=h,
            ),
        )

    def chain(self, f: np.ndarray, df: np.ndarray, d2f: np.ndarray, out=_FRESH) -> "JetStack":
        v, g, h = out
        outer = self.grad[..., :, None] * self.grad[..., None, :]
        if v is not None:
            v[...] = f
        return JetStack(
            f if v is None else v,
            np.multiply(df[..., None], self.grad, out=g),
            np.add(df[..., None, None] * self.hess, d2f[..., None, None] * outer, out=h),
        )

    def int_power(self, n: int, out=_FRESH) -> "JetStack":
        """Analytic power rule; integer exponents keep negative bases legal."""
        v = self.value
        try:
            second = float(n * (n - 1))
        except OverflowError:  # |n| above about 1.3e154
            second = np.inf
        return self.chain(v**n, n * v ** (n - 1), second * v ** (n - 2), out)

    def real_power(self, c: float, out=_FRESH) -> "JetStack":
        v = self.value
        return self.chain(v**c, c * v ** (c - 1.0), c * (c - 1.0) * v ** (c - 2.0), out)


# operation -> JetStack kernel(param, *operands, out); a function name is an
# operation
_KERNELS = {
    "neg": lambda p, a, out: a.neg(out),
    "+": lambda p, a, b, out: a.add(b, out),
    "-": lambda p, a, b, out: a.sub(b, out),
    "*": lambda p, a, b, out: a.mul(b, out),
    "recip": lambda p, a, out: a.reciprocal(out),
    "ipow": lambda p, a, out: a.int_power(p, out),
    "rpow": lambda p, a, out: a.real_power(p, out),
    **{fn: (lambda p, a, out, fn=fn: a.chain(*_fn_table(fn, a.value), out)) for fn in FUNCTIONS},
}

# operation -> (broken test on the operand's value, reason); "base" checks a
# non-integer power's base and computes nothing
_CHECKS = {
    "log": (np.less_equal, "log of non-positive value {!r}"),
    "sqrt": (np.less_equal, "sqrt of negative value {!r}"),
    "recip": (np.equal, "division by zero"),
    "ipow": (np.equal, "zero raised to a negative power"),
    "base": (np.less_equal, "power with non-positive base {!r}"),
}


def _reason(op: str, x: float) -> str:
    if op == "sqrt" and x == 0.0:
        return "sqrt derivative at zero"
    return _CHECKS[op][1].format(x)


class _Compiler:
    """Numbers the nodes of a root tuple in walk order, each distinct
    subexpression once (``expr`` memoizes ``compile`` by structure) and
    each distinct (operation, parameter, operands) once.  The coordinates
    are nodes 0 to n - 1, in column order."""

    def __init__(self, coords: Sequence[str]):
        self.columns = {name: i for i, name in enumerate(coords)}
        self.nodes: list[tuple[str, object, tuple[int, ...], Expr | None]] = []
        self.levels: list[int] = []
        self._keys: dict[tuple, int] = {}
        self._memo: dict[Expr, int] = {}
        for i in range(len(coords)):
            self.node("var", i, ())

    def node(self, op: str, param, args: tuple[int, ...], e: Expr | None = None) -> int:
        """The index of the node ``op(param)`` of ``args``; ``e`` names it in
        a domain error."""
        key = (op, param, args)
        i = self._keys.get(key)
        if i is None:
            i = self._keys[key] = len(self.nodes)
            self.nodes.append((op, param, args, e))
            levels = self.levels
            levels.append(1 + max([-1] + [levels[a] for a in args]))
        return i

    def expr(self, e: Expr) -> int:
        i = self._memo.get(e)
        if i is None:
            i = self._memo[e] = self.compile(e)
        return i

    def compile(self, e: Expr) -> int:
        if isinstance(e, BinOp):
            return self.binop(e)
        if isinstance(e, Call):
            if e.fn not in FUNCTIONS:
                raise ExpressionError(f"unknown function {e.fn!r}")
            return self.node(e.fn, None, (self.expr(e.arg),), e)
        if isinstance(e, Const):
            return self.node("const", e.value, ())
        if isinstance(e, Var):
            if e.name not in self.columns:
                raise ExpressionError(f"unbound variable {e.name!r}")
            return self.columns[e.name]
        if isinstance(e, Neg):
            return self.node("neg", None, (self.expr(e.arg),))
        raise TypeError(f"not an expression node: {e!r}")

    def binop(self, e: BinOp) -> int:
        if e.op == "^":
            u = self.expr(e.left)
            n = integer_exponent(e.right)
            if n is not None:
                return self.int_power(u, n, e)
            # the base is checked before the exponent is walked
            self.node("base", None, (u,), e)
            if isinstance(e.right, Const):
                return self.node("rpow", e.right.value, (u,))
            w = self.expr(e.right)
            product = self.node("*", None, (w, self.node("log", None, (u,), e)))
            return self.node("exp", None, (product,))
        a, b = self.expr(e.left), self.expr(e.right)
        if e.op in ("+", "-", "*"):
            return self.node(e.op, None, (a, b))
        return self.node("*", None, (a, self.node("recip", None, (b,), e)))

    def int_power(self, u: int, n: int, e: Expr) -> int:
        if n == 0:
            return self.node("const", 1.0, ())
        if abs(n) > MAX_UNROLLED_EXPONENT:
            return self.node("ipow", n, (u,), e)
        out = u
        for _ in range(abs(n) - 1):
            out = self.node("*", None, (out, u))
        return self.node("recip", None, (out,), e) if n < 0 else out


def _index(rows: list[int]) -> slice | np.ndarray:
    """A slice when ``rows`` is a run of consecutive slots, else an array."""
    if rows == list(range(rows[0], rows[0] + len(rows))):
        return slice(rows[0], rows[0] + len(rows))
    return np.array(rows, dtype=np.intp)


def _gather(rows: slice | np.ndarray, value, grad, hess) -> JetStack:
    """The jets at ``rows``: a view of a run, a copy otherwise."""
    if isinstance(rows, slice):
        return JetStack(value[rows], grad[rows], hess[rows])
    return JetStack(value.take(rows, 0), grad.take(rows, 0), hess.take(rows, 0))


class JetProgram:
    """Order-2 jets of a tuple of root expressions at every row of a points
    array, shape ``(N, n)`` with columns in ``coords`` order.

    Compiled once (see the module docstring): the nodes that compute a jet
    get one slot each, grouped by (level, operation, parameter), so a group
    is a run of consecutive slots.  The coordinates and then the constants
    fill level 0; every later group is one step, which gathers its
    operands' jets and applies one ``JetStack`` operation to the batch,
    writing into the group's slots.  A step that checks a domain records
    its operands' broken points, and ``JetRun.roots`` raises for the first
    broken node in walk order.
    """

    __slots__ = (
        "roots", "coords", "node_count", "_size", "_consts", "_seeds", "_steps", "_roots", "_ends"
    )

    def __init__(self, roots: Sequence[Expr], coords: Sequence[str]):
        self.roots = tuple(roots)
        self.coords = tuple(coords)
        compiler = _Compiler(self.coords)
        root_nodes = []
        # _ends[k]: the nodes of roots[:k] are the nodes numbered below it
        self._ends = [len(compiler.nodes)]
        for e in self.roots:
            root_nodes.append(compiler.expr(e))
            self._ends.append(len(compiler.nodes))
        nodes, levels = compiler.nodes, compiler.levels
        self.node_count = len(nodes)
        groups: dict[tuple, list[int]] = {}
        for i, (op, param, _, _) in enumerate(nodes):
            leaf = op in ("var", "const")
            groups.setdefault((levels[i], op, None if leaf else param), []).append(i)
        slot = [0] * len(nodes)
        size = 0
        steps = []
        # by level, and in order of first appearance within one: the
        # coordinates (nodes 0 to n - 1), the constants, then the steps
        for (level, op, param), members in sorted(groups.items(), key=lambda kv: kv[0][0]):
            out = None
            if op != "base":
                out = slice(size, size + len(members))
                for i in members:
                    slot[i] = size
                    size += 1
            if not level:
                continue
            operands = zip(*(nodes[i][2] for i in members))
            args = tuple(_index([slot[a] for a in rows]) for rows in operands)
            check = None
            if op in _CHECKS and (op != "ipow" or param < 0):
                check = (op, members, [nodes[i][3] for i in members])
            steps.append((_KERNELS.get(op), param, out, args, check))
        consts = [nodes[i][1] for i in groups.get((0, "const", None), [])]
        n = len(self.coords)
        self._consts = np.array(consts, dtype=float)[:, None]
        # the gradients of the coordinates, then of the constants
        seeds = [[float(i == j) for j in range(n)] for i in range(n)] + [[0.0] * n] * len(consts)
        self._seeds = np.array(seeds).reshape(-1, 1, n)
        self._size = size
        self._steps = steps
        self._roots = np.array([slot[i] for i in root_nodes], dtype=np.intp)

    def run(self, points: np.ndarray) -> "JetRun":
        """Every node's jets at every row of ``points``, broken or not."""
        points = np.asarray(points, dtype=float)
        count, n = points.shape[0], len(self.coords)
        # one allocation, carved into the three arrays
        size = self._size
        block = np.empty(size * count * (1 + n + n * n))
        value = block[: size * count].reshape(size, count)
        grad = block[size * count : size * count * (1 + n)].reshape(size, count, n)
        hess = block[size * count * (1 + n) :].reshape(size, count, n, n)
        leaves = n + len(self._consts)
        value[:n] = points.T
        value[n:leaves] = self._consts
        grad[:leaves] = self._seeds
        hess[:leaves] = 0.0
        broken = []
        with np.errstate(all="ignore"):
            for kernel, param, out, args, check in self._steps:
                if check is not None:
                    rows = args[0]
                    x = value[rows] if isinstance(rows, slice) else value.take(rows, 0)
                    bad = _CHECKS[check[0]][0](x, 0.0)
                    if bad.any():
                        broken.append((check, bad, x))
                if out is not None:
                    operands = [_gather(a, value, grad, hess) for a in args]
                    kernel(param, *operands, (value[out], grad[out], hess[out]))
        return JetRun(self, (value, grad, hess), broken)


class JetRun:
    """The jets of every node of a ``JetProgram`` run, and its broken nodes."""

    __slots__ = ("program", "_jets", "_broken")

    def __init__(self, program: JetProgram, jets: tuple[np.ndarray, ...], broken: list):
        self.program, self._jets, self._broken = program, jets, broken

    def roots(self, start: int = 0, stop: int | None = None):
        """``(value (R, N), gradient (R, N, n), hessian (R, N, n, n))`` of
        roots ``start:stop``, root axis first: fresh read-only arrays.

        First raises ``DomainError`` for the broken node first in walk order
        among the nodes of roots ``:stop``, as a walk of those roots would:
        ``node`` is its first broken row, ``reason`` the message without
        that row.
        """
        program = self.program
        if stop is None:
            stop = len(program.roots)
        if self._broken:
            _raise_first(self._broken, program._ends[stop])
        jets = tuple(a.take(program._roots[start:stop], 0) for a in self._jets)
        for a in jets:
            a.setflags(write=False)
        return jets


def _raise_first(broken: list, end: int) -> None:
    """Raise ``DomainError`` for the broken node numbered below ``end`` that
    is first in walk order, at its first broken row.  A step's nodes are in
    walk order, so its first such node is its first such row."""
    first = None
    for (op, order, exprs), bad, x in broken:
        rows = [k for k in np.flatnonzero(bad.any(axis=1)) if order[k] < end]
        if rows and (first is None or order[rows[0]] < first[0]):
            k = rows[0]
            first = (order[k], exprs[k], bad[k], x[k], op)
    if first is None:
        return
    _, e, bad, x, op = first
    i = int(np.argmax(bad))
    why = f"{_reason(op, float(x[i]))} in {to_string(e)!r}"
    err = DomainError(f"{why} at node {i}")
    err.node, err.reason = i, why
    raise err


@lru_cache(maxsize=None)
def jet_program(roots: tuple[Expr, ...], coords: tuple[str, ...]) -> JetProgram:
    """The ``JetProgram`` of ``roots``, compiled once per structure."""
    return JetProgram(roots, coords)


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
    ``coords`` (sorted point keys when omitted).  A run over a stack of one;
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
    (N, n, n))``, read-only.  A one-root ``jet_program``.

    Raises ``DomainError`` naming the first row that leaves a domain.
    """
    return tuple(a[0] for a in jet_program((e,), tuple(coords)).run(points).roots())
