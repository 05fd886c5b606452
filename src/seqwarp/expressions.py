"""Scalar expression language over named real coordinates.

Expressions are immutable ASTs built from decimal constants, coordinate
names, the arithmetic operators ``+ - * / ^``, unary negation, and the
one-argument functions sin, cos, tan, sinh, cosh, tanh, exp, log, sqrt.
They carry the metric components and warping functions of every manifold
in this package, so everything downstream (jets, curvature, quadrature)
reduces to walking these trees.

Grammar (whitespace-insensitive)::

    expr   := term (("+"|"-") term)*
    term   := factor (("*"|"/") factor)*
    factor := ("-" factor) | power
    power  := atom ("^" factor)?
    atom   := NUMBER | IDENT | IDENT "(" expr ")" | "(" expr ")"

``^`` binds tightest and is right-associative; unary minus sits between
``^`` and ``*``.  Integer exponents with magnitude <= 12 are evaluated by
repeated multiplication so that negative bases stay legal and derivatives
stay smooth; any other exponent requires a positive base.  An expression
nests at most ``MAX_NESTING`` levels: each operator of a chain, unary minus,
exponent, call and pair of parentheses is one level above what it holds.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Iterable, Mapping

__all__ = [
    "Expr",
    "Const",
    "Var",
    "Neg",
    "BinOp",
    "Call",
    "ExpressionError",
    "ParseError",
    "DomainError",
    "FUNCTIONS",
    "parse",
    "evaluate",
    "differentiate",
    "to_string",
    "free_variables",
]

FUNCTIONS = frozenset(
    {"sin", "cos", "tan", "sinh", "cosh", "tanh", "exp", "log", "sqrt"}
)

# Integer exponents up to this magnitude are unrolled to products.
MAX_UNROLLED_EXPONENT = 12

# Parsing, hashing, compiling and differentiating recurse per level (a
# derivative can be twice as deep); every shape of nesting still ran 150
# levels deep under Python's default recursion limit.
MAX_NESTING = 100


class ExpressionError(ValueError):
    """Base class for expression problems; ``offset`` is a 0-based byte index."""

    def __init__(self, message: str, offset: int | None = None):
        super().__init__(message)
        self.offset = offset


class ParseError(ExpressionError):
    """Malformed source text or an undeclared identifier."""


class DomainError(ExpressionError):
    """Evaluation left a function's domain (log of a negative, 1/0, ...).

    Raised by a jet program run (``seqwarp.jets``), it always carries
    ``node``, the index of the first offending point of the stack, and
    ``reason``, the message without that index.
    """


class Expr:
    """Immutable expression node; concrete kinds are the subclasses below.

    Equality and hashing are structural.  A node keeps its hash once
    computed, so hashing a tree whose subtrees were hashed before costs one
    step, not a walk: jet programs are compiled and cached by structure.
    """

    __slots__ = ("_hash",)

    def __str__(self) -> str:
        return to_string(self)


def _keeps_hash(cls):
    """Cache the structural ``__hash__`` the dataclass generated for ``cls``."""
    structural = cls.__hash__

    def __hash__(self) -> int:
        try:
            return self._hash
        except AttributeError:
            h = structural(self)
            object.__setattr__(self, "_hash", h)
            return h

    cls.__hash__ = __hash__
    return cls


@_keeps_hash
@dataclass(frozen=True, slots=True)
class Const(Expr):
    value: float


@_keeps_hash
@dataclass(frozen=True, slots=True)
class Var(Expr):
    name: str


@_keeps_hash
@dataclass(frozen=True, slots=True)
class Neg(Expr):
    arg: Expr


@_keeps_hash
@dataclass(frozen=True, slots=True)
class BinOp(Expr):
    op: str  # one of "+", "-", "*", "/", "^"
    left: Expr
    right: Expr


@_keeps_hash
@dataclass(frozen=True, slots=True)
class Call(Expr):
    fn: str
    arg: Expr


ZERO = Const(0.0)
ONE = Const(1.0)


# ---------------------------------------------------------------------------
# Tokenizer / parser
# ---------------------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<number>(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)
  | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<op>[-+*/^()])
    """,
    re.VERBOSE,
)


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(
                f"unexpected character {text[pos]!r} at offset {pos}", offset=pos
            )
        if m.lastgroup != "ws":
            tokens.append((m.lastgroup, m.group(), pos))
        pos = m.end()
    tokens.append(("end", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str, coords: frozenset[str]):
        self.text = text
        self.coords = coords
        self.tokens = _tokenize(text)
        self.pos = 0
        self.open = 0  # open calls of ``factor``: never more than the tree's height

    def peek(self) -> tuple[str, str, int]:
        return self.tokens[self.pos]

    def advance(self) -> tuple[str, str, int]:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def fail(self, expected: str) -> ParseError:
        kind, text, offset = self.peek()
        got = "end of input" if kind == "end" else repr(text)
        return ParseError(
            f"expected {expected} but found {got} at offset {offset}", offset=offset
        )

    def level(self, *heights: int) -> int:
        """The height of a node over subtrees of ``heights``, at most ``MAX_NESTING``."""
        if max(heights) >= MAX_NESTING:
            at = self.peek()[2]
            raise ParseError(f"expression nested deeper than {MAX_NESTING} levels at offset {at}", at)
        return 1 + max(heights)

    # each rule returns its tree and the tree's height
    def parse(self) -> Expr:
        node, _ = self.expr()
        if self.peek()[0] != "end":
            raise self.fail("end of input")
        return node

    def expr(self) -> tuple[Expr, int]:
        node, height = self.term()
        while self.peek()[1] in ("+", "-"):
            op = self.advance()[1]
            right, h = self.term()
            node, height = BinOp(op, node, right), self.level(height, h)
        return node, height

    def term(self) -> tuple[Expr, int]:
        node, height = self.factor()
        while self.peek()[1] in ("*", "/"):
            op = self.advance()[1]
            right, h = self.factor()
            node, height = BinOp(op, node, right), self.level(height, h)
        return node, height

    def factor(self) -> tuple[Expr, int]:
        self.open = self.level(self.open)  # bounds the parser's own recursion
        if self.peek()[1] == "-":
            self.advance()
            node, height = self.factor()
            node, height = Neg(node), self.level(height)
        else:
            node, height = self.power()
        self.open -= 1
        return node, height

    def power(self) -> tuple[Expr, int]:
        base, height = self.atom()
        if self.peek()[1] == "^":
            self.advance()
            exponent, h = self.factor()
            return BinOp("^", base, exponent), self.level(height, h)
        return base, height

    def atom(self) -> tuple[Expr, int]:
        kind, text, offset = self.peek()
        if kind == "number":
            self.advance()
            return Const(float(text)), 1
        if kind == "ident":
            self.advance()
            if self.peek()[1] == "(":
                if text not in FUNCTIONS:
                    raise ParseError(
                        f"unknown function {text!r} at offset {offset}", offset=offset
                    )
                self.advance()
                arg, height = self.expr()
                if self.peek()[1] != ")":
                    raise self.fail("')'")
                self.advance()
                return Call(text, arg), self.level(height)
            if text not in self.coords:
                raise ParseError(
                    f"unknown identifier {text!r} at offset {offset}", offset=offset
                )
            return Var(text), 1
        if text == "(":
            self.advance()
            node, height = self.expr()
            if self.peek()[1] != ")":
                raise self.fail("')'")
            self.advance()
            return node, self.level(height)
        raise self.fail("a number, name, or '('")


def parse(text: str, coords: Iterable[str]) -> Expr:
    """Parse ``text`` into an expression over the declared coordinate names."""
    if not text or not text.strip():
        raise ParseError("empty expression", offset=0)
    return _Parser(text, frozenset(coords)).parse()


# ---------------------------------------------------------------------------
# Printing
# ---------------------------------------------------------------------------

_PREC_ADD, _PREC_MUL, _PREC_NEG, _PREC_POW, _PREC_ATOM = 1, 2, 3, 4, 5


def _precedence(e: Expr) -> int:
    if isinstance(e, BinOp):
        return {"+": _PREC_ADD, "-": _PREC_ADD, "*": _PREC_MUL, "/": _PREC_MUL, "^": _PREC_POW}[e.op]
    if isinstance(e, Neg):
        return _PREC_NEG
    return _PREC_ATOM


def _wrap(e: Expr, text: str, needed: int, strict: bool) -> str:
    p = _precedence(e)
    if p < needed or (strict and p == needed):
        return f"({text})"
    return text


def to_string(e: Expr) -> str:
    """Render an expression so that ``parse(to_string(e))`` rebuilds ``e``."""
    if isinstance(e, Const):
        return repr(e.value)
    if isinstance(e, Var):
        return e.name
    if isinstance(e, Call):
        return f"{e.fn}({to_string(e.arg)})"
    if isinstance(e, Neg):
        # the operand of unary minus must parse back as a factor
        return "-" + _wrap(e.arg, to_string(e.arg), _PREC_NEG, strict=False)
    if isinstance(e, BinOp):
        lt, rt = to_string(e.left), to_string(e.right)
        if e.op in "+-":
            return f"{_wrap(e.left, lt, _PREC_ADD, False)} {e.op} {_wrap(e.right, rt, _PREC_ADD, True)}"
        if e.op in "*/":
            return f"{_wrap(e.left, lt, _PREC_MUL, False)} {e.op} {_wrap(e.right, rt, _PREC_MUL, True)}"
        # "^": the base must be an atom, the exponent a factor
        return f"{_wrap(e.left, lt, _PREC_POW, True)}^{_wrap(e.right, rt, _PREC_NEG, False)}"
    raise TypeError(f"not an expression node: {e!r}")


def free_variables(e: Expr) -> frozenset[str]:
    if isinstance(e, Var):
        return frozenset({e.name})
    if isinstance(e, Const):
        return frozenset()
    if isinstance(e, Neg):
        return free_variables(e.arg)
    if isinstance(e, Call):
        return free_variables(e.arg)
    if isinstance(e, BinOp):
        return free_variables(e.left) | free_variables(e.right)
    raise TypeError(f"not an expression node: {e!r}")


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------

def integer_exponent(e: Expr) -> int | None:
    """Exponent value when ``e`` is an integer constant, else None."""
    if isinstance(e, Const) and float(e.value).is_integer():
        return int(e.value)
    return None


def _domain(cond: bool, message: str, node: Expr) -> None:
    if not cond:
        raise DomainError(f"{message} in {to_string(node)!r}")


def evaluate(e: Expr, point: Mapping[str, float]) -> float:
    """Evaluate at a coordinate assignment; raises DomainError off-domain."""
    if isinstance(e, Const):
        return e.value
    if isinstance(e, Var):
        try:
            return float(point[e.name])
        except KeyError:
            raise ExpressionError(f"unbound variable {e.name!r}") from None
    if isinstance(e, Neg):
        return -evaluate(e.arg, point)
    if isinstance(e, Call):
        x = evaluate(e.arg, point)
        if e.fn == "log":
            _domain(x > 0.0, f"log of non-positive value {x!r}", e)
        elif e.fn == "sqrt":
            _domain(x >= 0.0, f"sqrt of negative value {x!r}", e)
        return getattr(math, e.fn)(x)
    if isinstance(e, BinOp):
        a = evaluate(e.left, point)
        if e.op == "^":
            n = integer_exponent(e.right)
            if n is not None:
                return _int_pow(a, n, e)
            b = evaluate(e.right, point)
            _domain(a > 0.0, f"power with non-positive base {a!r}", e)
            return a**b
        b = evaluate(e.right, point)
        if e.op == "+":
            return a + b
        if e.op == "-":
            return a - b
        if e.op == "*":
            return a * b
        _domain(b != 0.0, "division by zero", e)
        return a / b
    raise TypeError(f"not an expression node: {e!r}")


def _int_pow(base: float, n: int, node: Expr) -> float:
    """Integer power: unrolled products up to the unrolling bound, the
    float power rule beyond (legal for negative bases at integer n)."""
    if n == 0:
        return 1.0
    if n < 0:
        _domain(base != 0.0, "zero raised to a negative power", node)
    if abs(n) > MAX_UNROLLED_EXPONENT:
        return float(base) ** n
    out = 1.0
    for _ in range(abs(n)):
        out *= base
    return out if n > 0 else 1.0 / out


# ---------------------------------------------------------------------------
# Symbolic differentiation
# ---------------------------------------------------------------------------

def _is_const(e: Expr, v: float) -> bool:
    return isinstance(e, Const) and e.value == v


def _add(a: Expr, b: Expr) -> Expr:
    if _is_const(a, 0.0):
        return b
    if _is_const(b, 0.0):
        return a
    return BinOp("+", a, b)


def _sub(a: Expr, b: Expr) -> Expr:
    if _is_const(b, 0.0):
        return a
    if _is_const(a, 0.0):
        return Neg(b)
    return BinOp("-", a, b)


def _mul(a: Expr, b: Expr) -> Expr:
    if _is_const(a, 0.0) or _is_const(b, 0.0):
        return ZERO
    if _is_const(a, 1.0):
        return b
    if _is_const(b, 1.0):
        return a
    return BinOp("*", a, b)


def _div(a: Expr, b: Expr) -> Expr:
    if _is_const(a, 0.0):
        return ZERO
    if _is_const(b, 1.0):
        return a
    return BinOp("/", a, b)


_DERIVATIVE_BUILDERS = {
    "sin": lambda u: Call("cos", u),
    "cos": lambda u: Neg(Call("sin", u)),
    "tan": lambda u: _div(ONE, _mul(Call("cos", u), Call("cos", u))),
    "sinh": lambda u: Call("cosh", u),
    "cosh": lambda u: Call("sinh", u),
    "tanh": lambda u: _sub(ONE, _mul(Call("tanh", u), Call("tanh", u))),
    "exp": lambda u: Call("exp", u),
    "log": lambda u: _div(ONE, u),
    "sqrt": lambda u: _div(ONE, _mul(Const(2.0), Call("sqrt", u))),
}


def differentiate(e: Expr, name: str) -> Expr:
    """Exact partial derivative with respect to one coordinate."""
    if isinstance(e, Const):
        return ZERO
    if isinstance(e, Var):
        return ONE if e.name == name else ZERO
    if isinstance(e, Neg):
        inner = differentiate(e.arg, name)
        return ZERO if _is_const(inner, 0.0) else Neg(inner)
    if isinstance(e, Call):
        du = differentiate(e.arg, name)
        return _mul(_DERIVATIVE_BUILDERS[e.fn](e.arg), du)
    if isinstance(e, BinOp):
        da = differentiate(e.left, name)
        db = differentiate(e.right, name)
        if e.op == "+":
            return _add(da, db)
        if e.op == "-":
            return _sub(da, db)
        if e.op == "*":
            return _add(_mul(da, e.right), _mul(e.left, db))
        if e.op == "/":
            return _sub(_div(da, e.right), _div(_mul(e.left, db), _mul(e.right, e.right)))
        # u^w: split on a constant exponent to keep results compact
        if isinstance(e.right, Const):
            c = e.right.value
            power = BinOp("^", e.left, Const(c - 1.0))
            return _mul(_mul(Const(c), power), da)
        # general exponent: u^w * (dw * log u + w * du / u)
        term = _add(
            _mul(db, Call("log", e.left)),
            _div(_mul(e.right, da), e.left),
        )
        return _mul(e, term)
    raise TypeError(f"not an expression node: {e!r}")
