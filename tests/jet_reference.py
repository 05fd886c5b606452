"""A recursive ``JetStack`` walk: the reference that ``JetProgram`` must
equal bit for bit.

It walks the tree as written, with no memo and no batching, applies each
domain rule where the walk meets it and raises at the first broken node,
at that node's first broken point.  Its arithmetic is ``JetStack``'s, so any
difference from a program run is the program's scheduling: node numbering,
sharing, levels, batching or the choice of the first error.
"""

from __future__ import annotations

import numpy as np

from seqwarp.expressions import (
    MAX_UNROLLED_EXPONENT,
    Call,
    Const,
    DomainError,
    Neg,
    Var,
    integer_exponent,
    to_string,
)
from seqwarp.jets import JetStack, _fn_table


def reference_jets(e, points, coords):
    """``(value, gradient, hessian)`` of ``e`` at every row of ``points``."""
    points = np.asarray(points, dtype=float)
    with np.errstate(all="ignore"):
        jet = _Walk(points, tuple(coords)).jet(e)
    return jet.value, jet.grad, jet.hess


def _fail(bad, x, reason: str, node) -> None:
    if bad.any():
        i = int(np.argmax(bad))
        why = f"{reason.format(float(x[i]))} in {to_string(node)!r}"
        err = DomainError(f"{why} at node {i}")
        err.node, err.reason = i, why
        raise err


class _Walk:
    def __init__(self, points, coords):
        self.count, self.n = points.shape[0], len(coords)
        self.points, self.coords = points, coords

    def constant(self, value):
        count, n = self.count, self.n
        return JetStack(np.full(count, value), np.zeros((count, n)), np.zeros((count, n, n)))

    def jet(self, e) -> JetStack:
        if isinstance(e, Const):
            return self.constant(e.value)
        if isinstance(e, Var):
            i = self.coords.index(e.name)
            grad = np.zeros((self.count, self.n))
            grad[:, i] = 1.0
            return JetStack(self.points[:, i], grad, np.zeros((self.count, self.n, self.n)))
        if isinstance(e, Neg):
            return -self.jet(e.arg)
        if isinstance(e, Call):
            return self.call(e.fn, self.jet(e.arg), e)
        if e.op == "^":
            u = self.jet(e.left)
            n = integer_exponent(e.right)
            if n is not None:
                return self.int_power(u, n, e)
            _fail(u.value <= 0.0, u.value, "power with non-positive base {!r}", e)
            if isinstance(e.right, Const):
                return u.real_power(e.right.value)
            w = self.jet(e.right)
            return self.call("exp", w * self.call("log", u, e), e)
        a, b = self.jet(e.left), self.jet(e.right)
        if e.op == "+":
            return a + b
        if e.op == "-":
            return a - b
        if e.op == "*":
            return a * b
        return a * self.reciprocal(b, e)

    def call(self, fn, u, e) -> JetStack:
        x = u.value
        if fn == "log":
            _fail(x <= 0.0, x, "log of non-positive value {!r}", e)
        if fn == "sqrt":
            bad = x <= 0.0
            negative = bad.any() and x[np.argmax(bad)] < 0.0
            reason = "sqrt of negative value {!r}" if negative else "sqrt derivative at zero"
            _fail(bad, x, reason, e)
        return u.chain(*_fn_table(fn, x))

    def reciprocal(self, u, e) -> JetStack:
        _fail(u.value == 0.0, u.value, "division by zero", e)
        return u.reciprocal()

    def int_power(self, u, n, e) -> JetStack:
        if n == 0:
            return self.constant(1.0)
        if abs(n) > MAX_UNROLLED_EXPONENT:
            if n < 0:
                _fail(u.value == 0.0, u.value, "zero raised to a negative power", e)
            return u.int_power(n)
        out = u
        for _ in range(abs(n) - 1):
            out = out * u
        return self.reciprocal(out, e) if n < 0 else out
