"""Forward-mode jet tests: frozen values, finite-difference and symbolic
cross-checks, and the bitwise Hessian symmetry guarantee."""

import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import expr_fn, fd_gradient, fd_hessian
from seqwarp.expressions import (
    FUNCTIONS,
    BinOp,
    Const,
    DomainError,
    Var,
    differentiate,
    evaluate,
    parse,
)
from seqwarp import jets
from seqwarp.jets import JetWalker, eval_jet, eval_jet_stack


class TestFrozenValues:
    def test_square(self):
        value, grad, hess = eval_jet(parse("x^2", ("x",)), {"x": 3.0}, 2)
        assert value == 9.0
        assert grad.tolist() == [6.0]
        assert hess.tolist() == [[2.0]]

    def test_product_first_order(self):
        value, grad = eval_jet(parse("sin(x)*y", ("x", "y")), {"x": 0.0, "y": 2.0}, 1)
        assert value == 0.0
        assert grad.tolist() == [2.0, 0.0]

    def test_exp_all_orders_match_fd(self):
        e = parse("exp(x)", ("x",))
        value, grad, hess = eval_jet(e, {"x": 1.0}, 2)
        assert value == pytest.approx(math.e, rel=1e-12)
        fn = expr_fn(e, ["x"])
        fd_g = fd_gradient(fn, np.array([1.0]))
        fd_h = fd_hessian(fn, np.array([1.0]))
        assert grad[0] == pytest.approx(fd_g[0], rel=1e-6)
        assert hess[0, 0] == pytest.approx(fd_h[0, 0], rel=1e-6)

    def test_constant_jet_is_exactly_flat(self):
        value, grad, hess = eval_jet(parse("7", ("x", "y")), {"x": 0.3, "y": 2.0}, 2)
        assert value == 7.0
        assert not grad.any()
        assert not hess.any()


SMOOTH_CASES = [
    ("x^2*sin(y) + cosh(x)", {"x": 0.8, "y": -0.6}),
    ("exp(x)*tanh(y) + x*y^3", {"x": -0.4, "y": 1.2}),
    ("log(3 + sin(x)) * sqrt(4 + y^2)", {"x": 2.1, "y": 0.7}),
    ("1/(2 + cos(x)) + tan(y)", {"x": 0.5, "y": 0.9}),
    ("(2 + sin(x))^3 / (1 + y^2)", {"x": 1.0, "y": -0.3}),
    ("x^y", {"x": 2.5, "y": 1.7}),
    ("sinh(x*y)", {"x": 0.3, "y": 0.8}),
]


@pytest.mark.parametrize("text,point", SMOOTH_CASES)
def test_gradient_matches_central_differences(text, point):
    coords = sorted(point)
    e = parse(text, coords)
    _, grad = eval_jet(e, point, 1, coords)
    fd = fd_gradient(expr_fn(e, coords), np.array([point[c] for c in coords]))
    assert grad == pytest.approx(fd, rel=1e-6, abs=1e-9)


@pytest.mark.parametrize("text,point", SMOOTH_CASES)
def test_hessian_matches_central_differences(text, point):
    coords = sorted(point)
    e = parse(text, coords)
    _, _, hess = eval_jet(e, point, 2, coords)
    fd = fd_hessian(expr_fn(e, coords), np.array([point[c] for c in coords]))
    assert hess == pytest.approx(fd, rel=2e-5, abs=1e-6)


@pytest.mark.parametrize("text,point", SMOOTH_CASES)
def test_hessian_bitwise_symmetric(text, point):
    coords = sorted(point)
    _, _, hess = eval_jet(parse(text, coords), point, 2, coords)
    assert np.array_equal(hess, hess.T)


def test_hessian_bitwise_symmetric_at_random_points():
    # a product of two non-trivial factors: its cross term and that term's
    # transpose must enter the Hessian as one symmetric group
    coords = ["x", "y"]
    e = parse("x^y * sin(x*y)", coords)
    rng = np.random.default_rng(512)
    points = np.column_stack([rng.uniform(0.5, 2.0, 512), rng.uniform(-2.0, 2.0, 512)])
    for point in points:
        _, _, hess = eval_jet(e, dict(zip(coords, point)), 2, coords)
        assert np.array_equal(hess, hess.T)
    _, _, hess = eval_jet_stack(e, points, coords)
    assert np.array_equal(hess, hess.transpose(0, 2, 1))


class TestPowers:
    def test_integer_power_negative_base(self):
        value, grad, hess = eval_jet(parse("x^3", ("x",)), {"x": -2.0}, 2)
        assert (value, grad[0], hess[0, 0]) == (-8.0, 12.0, -12.0)

    def test_negative_integer_power(self):
        value, grad = eval_jet(parse("x^-2", ("x",)), {"x": 2.0}, 1)
        assert value == 0.25
        assert grad[0] == pytest.approx(-2.0 * 2.0**-3)

    def test_fractional_power_matches_sqrt(self):
        a = eval_jet(parse("x^0.5", ("x",)), {"x": 2.3}, 2)
        b = eval_jet(parse("sqrt(x)", ("x",)), {"x": 2.3}, 2)
        assert a[0] == pytest.approx(b[0], rel=1e-14)
        assert a[1][0] == pytest.approx(b[1][0], rel=1e-12)
        assert a[2][0, 0] == pytest.approx(b[2][0, 0], rel=1e-12)

    def test_fractional_power_domain(self):
        with pytest.raises(DomainError):
            eval_jet(parse("x^0.5", ("x",)), {"x": -1.0}, 1)

    def test_division_by_zero(self):
        with pytest.raises(DomainError):
            eval_jet(parse("1/x", ("x",)), {"x": 0.0}, 2)


def test_coordinate_order_controls_component_order():
    e = parse("x + 2*y", ("x", "y"))
    _, grad = eval_jet(e, {"x": 0.0, "y": 0.0}, 1, coords=("y", "x"))
    assert grad.tolist() == [2.0, 1.0]


def test_unknown_order():
    with pytest.raises(ValueError):
        eval_jet(parse("x", ("x",)), {"x": 1.0}, 3)


@settings(max_examples=150, deadline=None)
@given(
    case=st.integers(min_value=0, max_value=len(SMOOTH_CASES) - 1),
    dx=st.floats(min_value=-0.3, max_value=0.3),
    dy=st.floats(min_value=-0.3, max_value=0.3),
)
def test_gradient_fd_agreement_on_random_points(case, dx, dy):
    # random points inside safe neighborhoods of the curated inputs
    text, base = SMOOTH_CASES[case]
    coords = sorted(base)
    point = {coords[0]: base[coords[0]] + dx, coords[1]: base[coords[1]] + dy}
    e = parse(text, coords)
    _, grad = eval_jet(e, point, 1, coords)
    fd = fd_gradient(expr_fn(e, coords), np.array([point[c] for c in coords]))
    scale = 1.0 + float(np.max(np.abs(fd)))
    assert np.max(np.abs(grad - fd)) <= 1e-6 * scale


# ---------------------------------------------------------------------------
# Jets over a stack of points
# ---------------------------------------------------------------------------

STACK_POINTS = 512
COORDS = ("x", "y")

# (expression, x range, y range, value agrees bitwise with ``evaluate``: it
# takes only + - *, sin, cos and unrolled positive integer powers, on which
# numpy and math agree)
STACK_CASES = [
    ("x + y", (-3.0, 3.0), (-3.0, 3.0), True),
    ("x - y", (-3.0, 3.0), (-3.0, 3.0), True),
    ("x * y", (-3.0, 3.0), (-3.0, 3.0), True),
    ("-x * y + 2", (-3.0, 3.0), (-3.0, 3.0), True),
    ("x / y", (-3.0, 3.0), (0.5, 3.0), False),
    ("sin(x * y)", (-3.0, 3.0), (-3.0, 3.0), True),
    ("cos(x * y)", (-3.0, 3.0), (-3.0, 3.0), True),
    ("tan(x)", (-1.2, 1.2), (0.0, 1.0), False),
    ("sinh(x * y)", (-2.0, 2.0), (-1.0, 1.0), False),
    ("cosh(x * y)", (-2.0, 2.0), (-1.0, 1.0), False),
    # 1 - tanh^2 cancels for |x| > 1 and magnifies a last-ulp gap of np.tanh
    ("tanh(x * y)", (-1.0, 1.0), (-1.0, 1.0), False),
    ("exp(x * y)", (-2.0, 2.0), (-1.0, 1.0), False),
    ("log(x)", (0.1, 3.0), (0.0, 1.0), False),
    ("sqrt(x)", (0.1, 3.0), (0.0, 1.0), False),
    ("x^3 * y^12", (-2.0, 2.0), (-1.2, 1.2), True),
    ("x^7", (-2.0, 2.0), (0.0, 1.0), True),
    ("x^-3", (0.5, 2.0), (0.0, 1.0), False),  # parses as a real power of Neg(3)
    (BinOp("^", Var("x"), Const(-3.0)), (0.5, 2.0), (0.0, 1.0), False),
    ("x^13", (-2.0, 2.0), (0.0, 1.0), False),
    (BinOp("^", Var("x"), Const(-13.0)), (0.5, 2.0), (0.0, 1.0), False),
    ("x^2.5", (0.1, 3.0), (0.0, 1.0), False),
    ("x^y", (0.5, 2.0), (-2.0, 2.0), False),
]


def _stack_points(x_range, y_range):
    rng = np.random.default_rng(0)
    lo = np.array([x_range[0], y_range[0]])
    hi = np.array([x_range[1], y_range[1]])
    return lo + (hi - lo) * rng.random((STACK_POINTS, 2))


def _symbolic_jets(e, points):
    """Value, gradient and Hessian from ``evaluate`` of the symbolic
    derivatives: a reference that shares no code with ``seqwarp.jets``."""
    grad = [differentiate(e, c) for c in COORDS]
    hess = [[differentiate(d, c) for c in COORDS] for d in grad]
    at = [dict(zip(COORDS, p)) for p in points]
    return (
        np.array([evaluate(e, p) for p in at]),
        np.array([[evaluate(d, p) for d in grad] for p in at]),
        np.array([[[evaluate(d, p) for d in row] for row in hess] for p in at]),
    )


def test_stack_cases_cover_every_function():
    texts = [text for text, *_ in STACK_CASES if isinstance(text, str)]
    assert {name for text in texts for name in FUNCTIONS if f"{name}(" in text} == FUNCTIONS


@pytest.mark.parametrize("text,x_range,y_range,bitwise", STACK_CASES)
def test_stack_agrees_with_scalar_jets(text, x_range, y_range, bitwise):
    e = text if isinstance(text, BinOp) else parse(text, COORDS)
    points = _stack_points(x_range, y_range)
    if isinstance(text, BinOp):
        points[::2, 0] *= -1.0  # integer exponents keep negative bases legal
    stack = eval_jet_stack(e, points, COORDS)
    symbolic = _symbolic_jets(e, points)
    for got, want in zip(stack, symbolic):
        assert got.shape == want.shape
        # relative to the largest entry of the component at the same point:
        # a Hessian entry that cancels to near zero keeps only absolute digits
        scale = np.abs(want).reshape(len(want), -1).max(axis=1)
        gap = np.abs(got - want).reshape(len(want), -1).max(axis=1)
        assert np.all(gap <= 4e-15 * scale)
    if bitwise:
        assert np.array_equal(stack[0], symbolic[0])
    # each point gets its own arithmetic: row i of a stack of any size is the
    # one-point jet of ``eval_jet`` (a stack of one) at that row, bit for bit
    ones = [eval_jet(e, dict(zip(COORDS, p)), 2, COORDS) for p in points]
    for count in (STACK_POINTS, 7, 3):
        rows = eval_jet_stack(e, points[:count], COORDS)
        for i in range(count):
            for got, want in zip(rows, ones[i]):
                assert np.array_equal(got[i], want)


# (expression, x values with at least one breaking a domain rule)
DOMAIN_CASES = [
    ("log(x)", [1.0, 0.5, 0.0, -1.0]),
    ("log(x)", [2.0, -0.5, 3.0, 0.0]),
    ("sqrt(x)", [1.0, 0.0, -1.0, 2.0]),
    ("sqrt(x)", [1.0, -2.0, 0.0, 2.0]),
    ("1 / x", [1.0, 2.0, 0.0, -3.0]),
    ("x^0.5", [1.0, -1.0, 2.0, 0.0]),
    ("x^y", [1.0, 2.0, 0.0, 3.0]),
    (BinOp("^", Var("x"), Const(-13.0)), [1.0, 2.0, -1.0, 0.0]),
]


@pytest.mark.parametrize("text,xs", DOMAIN_CASES)
def test_stack_domain_rules_match_scalar(text, xs):
    e = text if isinstance(text, BinOp) else parse(text, COORDS)
    points = np.array([[x, 0.7] for x in xs])
    broken = []
    for i in range(len(points)):
        try:
            eval_jet_stack(e, points[i : i + 1], COORDS)
        except DomainError as exc:
            assert exc.node == 0
            broken.append((i, exc.reason))
    assert broken, "every case breaks a rule at some node"
    first, reason = broken[0]
    with pytest.raises(DomainError) as info:
        eval_jet_stack(e, points, COORDS)
    assert (info.value.node, info.value.reason) == (first, reason)
    assert str(info.value) == f"{reason} at node {first}"
    valid = [i for i in range(len(xs)) if i not in dict(broken)]
    eval_jet_stack(e, points[valid], COORDS)


# ---------------------------------------------------------------------------
# One walker, many expressions
# ---------------------------------------------------------------------------

SHARED = ("sin(x*y)^2 + exp(x)", "sin(x*y)^2 * (2 + cos(y))", "exp(x)/(2 + cos(y))", "7")


def _walkers():
    points = _stack_points((0.5, 2.0), (-2.0, 2.0))[:5]
    return tuple(
        (JetWalker(p, COORDS), lambda e, p=p: eval_jet_stack(e, p, COORDS))
        for p in (points[:1], points)
    )


def _tree_size(e) -> int:
    children = [getattr(e, name, None) for name in ("arg", "left", "right")]
    return 1 + sum(_tree_size(c) for c in children if c is not None)


def _spy_walks(monkeypatch) -> Counter:
    walks = Counter()
    real_eval = jets._eval

    def spy(e, walk):
        walks[e] += 1
        return real_eval(e, walk)

    monkeypatch.setattr(jets, "_eval", spy)
    return walks


@pytest.mark.parametrize("case", range(2), ids=["point", "stack"])
def test_walker_walks_each_distinct_subtree_once(case, monkeypatch):
    walker, independent = _walkers()[case]
    exprs = [parse(text, COORDS) for text in SHARED]
    want = [independent(e) for e in exprs]
    walks = _spy_walks(monkeypatch)
    for _ in range(2):
        for e, expected in zip(exprs, want):
            for got, o in zip(walker.jets(e), expected):
                assert np.array_equal(got, o)
    assert max(walks.values()) == 1
    # sin(x*y) and its parts, exp(x), 2 + cos(y) and theirs are shared
    assert walks[parse("sin(x*y)^2", COORDS)] == walks[parse("exp(x)", COORDS)] == 1
    assert sum(walks.values()) < sum(_tree_size(e) for e in exprs)


def test_walker_domain_error_keeps_its_message_and_is_not_memoized(monkeypatch):
    points = np.array([[1.0, 0.5], [2.0, 0.5], [-1.0, 0.5], [0.0, 0.5]])
    e = parse("y*y + log(x)", COORDS)
    with pytest.raises(DomainError) as info:
        eval_jet_stack(e, points, COORDS)
    assert info.value.node == 2
    assert str(info.value) == "log of non-positive value -1.0 in 'log(x)' at node 2"
    walker = JetWalker(points, COORDS)
    walks = _spy_walks(monkeypatch)
    for _ in range(2):
        with pytest.raises(DomainError) as again:
            walker.jets(e)
        assert (again.value.node, str(again.value)) == (info.value.node, str(info.value))
        assert again.value.reason == info.value.reason
    # the failing subtrees are walked again, the finished y*y is not
    assert walks[parse("log(x)", COORDS)] == walks[e] == 2
    assert walks[parse("y*y", COORDS)] == 1
    # one point names no node
    with pytest.raises(DomainError, match=r"^log of non-positive value -1.0 in 'log\(x\)'$"):
        eval_jet(e, {"x": -1.0, "y": 0.5}, 2, COORDS)


@pytest.mark.parametrize("case", range(2), ids=["point", "stack"])
def test_walker_arrays_are_read_only(case):
    walker, independent = _walkers()[case]
    for text in ("sin(x*y) + x", "x"):
        e = parse(text, COORDS)
        one_point = eval_jet(e, {"x": 1.0, "y": 0.5}, 2, COORDS)[1:]  # and a float value
        for array in (*walker.jets(e), *one_point):
            with pytest.raises(ValueError, match="read-only"):
                array[...] = 0.0
        for got, want in zip(walker.jets(e), independent(e)):
            assert np.array_equal(got, want)
