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
    Call,
    Const,
    DomainError,
    Neg,
    Var,
    differentiate,
    evaluate,
    parse,
)
from seqwarp import jets
from seqwarp import factor
from seqwarp.chart import ChartFrame, DegenerateMetricError, FactorManifold, GeometryError
from seqwarp.classify import _volume_means
from seqwarp.jets import JetProgram, eval_jet, eval_jet_stack
from seqwarp.warped import PositivityError
from jet_reference import reference_jets


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
# The compiled program against the reference walk
# ---------------------------------------------------------------------------

SHARED = ("sin(x*y)^2 + exp(x)", "sin(x*y)^2 * (2 + cos(y))", "exp(x)/(2 + cos(y))", "7")


def _stacks():
    points = _stack_points((0.5, 2.0), (-2.0, 2.0))[:5]
    return points[:1], points


def _tree_size(e) -> int:
    children = [getattr(e, name, None) for name in ("arg", "left", "right")]
    return 1 + sum(_tree_size(c) for c in children if c is not None)


def _spy_compiles(monkeypatch) -> Counter:
    compiles = Counter()
    real_compile = jets._Compiler.compile

    def spy(compiler, e):
        compiles[e] += 1
        return real_compile(compiler, e)

    monkeypatch.setattr(jets._Compiler, "compile", spy)
    return compiles


def _same_bits(got, want) -> bool:
    return got.shape == want.shape and got.tobytes() == want.tobytes()


def assert_program_matches_reference(roots, points):
    """A run equals the reference walk of each root, or raises the error the
    reference walks of the roots in order raise first."""
    want, error = [], None
    for e in roots:
        try:
            want.append(reference_jets(e, points, COORDS))
        except DomainError as exc:
            error = (exc.node, exc.reason, str(exc))
            break
    program = JetProgram(roots, COORDS)
    if error is not None:
        with pytest.raises(DomainError) as info:
            program.run(points).roots()
        assert (info.value.node, info.value.reason, str(info.value)) == error
        return
    got = program.run(points).roots()
    for k, jet in enumerate(want):
        for a, b in zip((g[k] for g in got), jet):
            assert _same_bits(a, b), roots[k]


@pytest.mark.parametrize("case", range(2), ids=["point", "stack"])
def test_program_compiles_each_shared_subtree_once(case, monkeypatch):
    points = _stacks()[case]
    exprs = [parse(text, COORDS) for text in SHARED]
    compiles = _spy_compiles(monkeypatch)
    program = JetProgram(exprs, COORDS)
    assert max(compiles.values()) == 1
    # sin(x*y)^2, exp(x), 2 + cos(y) and their parts are shared
    for text in ("sin(x*y)^2", "exp(x)", "2 + cos(y)", "x*y"):
        assert compiles[parse(text, COORDS)] == 1
    assert program.node_count < sum(_tree_size(e) for e in exprs)
    for _ in range(2):
        got = program.run(points).roots()
        for k, e in enumerate(exprs):
            for a, b in zip((g[k] for g in got), reference_jets(e, points, COORDS)):
                assert _same_bits(a, b)


def test_program_domain_error_keeps_its_message():
    points = np.array([[1.0, 0.5], [2.0, 0.5], [-1.0, 0.5], [0.0, 0.5]])
    e = parse("y*y + log(x)", COORDS)
    program = JetProgram([e], COORDS)
    for _ in range(2):
        with pytest.raises(DomainError) as info:
            program.run(points).roots()
        reason = "log of non-positive value -1.0 in 'log(x)'"
        assert (info.value.node, info.value.reason) == (2, reason)
        assert str(info.value) == f"{reason} at node 2"
    # one point names no node
    with pytest.raises(DomainError, match=r"^log of non-positive value -1.0 in 'log\(x\)'$"):
        eval_jet(e, {"x": -1.0, "y": 0.5}, 2, COORDS)


@pytest.mark.parametrize("case", range(2), ids=["point", "stack"])
def test_walker_arrays_are_read_only(case):
    """Every jet a run returns is read-only, constants included, and owns
    no view of the program's working arrays."""
    points = _stacks()[case]
    for text in ("sin(x*y) + x", "x", "7"):
        e = parse(text, COORDS)
        one_point = eval_jet(e, {"x": 1.0, "y": 0.5}, 2, COORDS)[1:]  # and a float value
        run = JetProgram([e, parse("x*y", COORDS)], COORDS).run(points).roots()
        frame = ChartFrame(factor("plane", COORDS, [["1", "0"], ["0", "1"]]), points)
        arrays = (*eval_jet_stack(e, points, COORDS), *one_point, *run, *frame.field_jets(e))
        for array in arrays:
            with pytest.raises(ValueError, match="read-only"):
                array[...] = 0.0
        for array in run:
            assert array.base is None
        for got, want in zip(eval_jet_stack(e, points, COORDS), reference_jets(e, points, COORDS)):
            assert _same_bits(got, want)


# every kind of node: constants, coordinates, negation, the nine functions,
# + - * /, and ^ with unrolled, negative, beyond-unrolled (both signs), real
# constant and general exponents
EVERY_KIND = (
    "-x + 0.5*y",
    "sin(x) * cos(y) - tan(0.3*x) / sinh(y)",
    "cosh(x*y) + tanh(x) * exp(-y)",
    "log(2 + x*x) + sqrt(3 + sin(y))",
    BinOp("^", parse("1 + x*x", COORDS), Const(-3.0)),
    BinOp("^", parse("sin(x) + 2", COORDS), Const(13.0)),
    BinOp("^", parse("1 + y*y", COORDS), Const(-14.0)),
    parse("(2 + cos(x))^2.5 * (2 + sin(x))^(1 + y*y) + x^0 + y^1", COORDS),
)


def _roots(texts):
    return [e if isinstance(e, BinOp) else parse(e, COORDS) for e in texts]


def _kinds(e) -> set:
    kind = e.fn if isinstance(e, Call) else e.op if isinstance(e, BinOp) else type(e).__name__
    children = [getattr(e, name, None) for name in ("arg", "left", "right")]
    return {kind}.union(*(_kinds(c) for c in children if c is not None))


def test_cases_cover_every_node_kind():
    kinds = set().union(*(_kinds(e) for e in _roots(EVERY_KIND)))
    assert kinds == FUNCTIONS | {"Const", "Var", "Neg", "+", "-", "*", "/", "^"}


@pytest.mark.parametrize("count", [1, 3, 7])
def test_program_matches_reference_on_every_node_kind(count):
    roots = _roots(EVERY_KIND)
    points = _stack_points((-1.0, 1.0), (0.2, 1.5))[:count]
    assert_program_matches_reference(roots, points)
    assert_program_matches_reference(roots[::-1], points)


_LEAF_VALUES = (0.0, 0.5, -1.5, 2.0, 3.0)
_SAMPLE_VALUES = st.sampled_from((-1.5, -0.5, 0.0, 0.25, 0.5, 1.0, 2.0)) | st.floats(-2.0, 2.0)
_INT_EXPONENTS = (-3, -2, -1, 0, 1, 2, 3, 5, 12, 13, -13, 15)
_REAL_EXPONENTS = (0.5, 2.5, -1.5)


@st.composite
def root_sets(draw):
    """Roots built from a pool of subtrees, each new subtree from earlier
    ones, so that roots share subtrees."""
    pool = [Var("x"), Var("y"), Const(draw(st.sampled_from(_LEAF_VALUES)))]

    def pick():
        return pool[draw(st.integers(0, len(pool) - 1))]

    for _ in range(draw(st.integers(2, 10))):
        kind = draw(st.sampled_from(("neg", "call", "+", "-", "*", "/", "int", "real", "general")))
        if kind == "neg":
            e = Neg(pick())
        elif kind == "call":
            e = Call(draw(st.sampled_from(sorted(FUNCTIONS))), pick())
        elif kind == "int":
            e = BinOp("^", pick(), Const(float(draw(st.sampled_from(_INT_EXPONENTS)))))
        elif kind == "real":
            e = BinOp("^", pick(), Const(draw(st.sampled_from(_REAL_EXPONENTS))))
        elif kind == "general":
            e = BinOp("^", pick(), pick())
        else:
            e = BinOp(kind, pick(), pick())
        pool.append(e)
    return draw(st.lists(st.sampled_from(pool[3:]), min_size=1, max_size=4))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    roots=root_sets(),
    rows=st.sampled_from((1, 3, 7)).flatmap(
        lambda n: st.lists(st.tuples(_SAMPLE_VALUES, _SAMPLE_VALUES), min_size=n, max_size=n)
    ),
)
def test_program_matches_reference_walk(roots, rows):
    assert_program_matches_reference(roots, np.array(rows, dtype=float))


# ---------------------------------------------------------------------------
# Which domain error a run raises
# ---------------------------------------------------------------------------

# x, y at five samples
DOMAIN_POINTS = np.array([[1.5, 1.0], [2.0, 0.0], [2.5, 2.0], [-1.0, 1.0], [3.0, 1.0]])

# (roots, rule of the error raised); every root set breaks two rules or one
# rule twice, at different samples and levels
ORDER_CASES = {
    "deep log first, shallow division later": (("exp(sin(x)) * log(x*x*x)", "1/y"), "log"),
    "one level, the second node breaks first": (("log(x + 0.5)", "log(y - 0.5)"), "log"),
    "one level, two functions": (("sqrt(y - 0.5) + log(x + 0.5)",), "sqrt of negative"),
    "one level, two functions, swapped": (("log(x + 0.5) + sqrt(y - 0.5)",), "log"),
    "sqrt derivative at zero": (("sin(x) + sqrt(y - 1)", "1/(x - 2)"), "sqrt derivative"),
    "division by zero": (("cos(y) + 1/(x - 2.5)", "log(x + 0.5)"), "division by zero"),
    "zero to a negative power": (
        (BinOp("^", parse("x - 2.5", COORDS), Const(-13.0)), "sqrt(y - 0.5)"),
        "zero raised",
    ),
    "non-positive base, real exponent": (("y + (x - 1.8)^0.5", "1/y"), "power with"),
    "non-positive base before its exponent": (
        ("(x - 2.2)^log(y - 0.5)", "log(x + 0.5)"),
        "power with",
    ),
}


def _broken(roots, points) -> bool:
    try:
        _first_reference_error(roots, points)
    except AssertionError:
        return False
    return True


def _first_reference_error(roots, points):
    for e in roots:
        try:
            reference_jets(e, points, COORDS)
        except DomainError as exc:
            return exc
    raise AssertionError("every case breaks a rule")


@pytest.mark.parametrize("case", ORDER_CASES)
def test_domain_error_is_the_first_in_walk_order(case):
    # the suite turns RuntimeWarning into an error (pyproject.toml), so no
    # nan computed past a broken node may warn
    texts, rule = ORDER_CASES[case]
    roots, points = _roots(texts), DOMAIN_POINTS
    # eval_jet_stack: one sum of the roots, walked in root order
    total = roots[0]
    for e in roots[1:]:
        total = BinOp("+", total, e)
    want = _first_reference_error([total], points)
    assert rule in want.reason
    assert len(roots) == 1 or want.node != _first_reference_error(roots[::-1], points).node
    with pytest.raises(DomainError) as info:
        eval_jet_stack(total, points, COORDS)
    got = info.value
    assert (got.node, got.reason, str(got)) == (want.node, want.reason, str(want))
    one = _first_reference_error([total], points[want.node : want.node + 1])
    with pytest.raises(DomainError) as info:
        eval_jet(total, dict(zip(COORDS, points[want.node])), 2, COORDS)
    assert str(info.value) == one.reason

    # ChartFrame.validate: the roots as metric entries, positive definite
    # wherever they are defined
    pad = roots + [Const(0.0)] * (3 - len(roots))
    entries = [
        BinOp("+", Const(2.0), Call("sin", pad[0])),
        BinOp("*", Const(0.1), Call("sin", pad[1])),
        BinOp("+", Const(2.0), Call("sin", pad[2])),
    ]
    manifold = FactorManifold("m", COORDS, ((entries[0], entries[1]), (entries[1], entries[2])))
    # validate raises the error of the first broken sample, as a loop over
    # the samples would
    k = next(k for k in range(len(points)) if _broken(entries, points[k : k + 1]))
    one = _first_reference_error(entries, points[k : k + 1])
    with pytest.raises(DomainError) as info:
        ChartFrame(manifold, points).validate()
    assert str(info.value) == f"metric of 'm': {one.reason} at {points[k].tolist()}"

    # the torus quadrature's blocks: the first broken node in walk order
    want = _first_reference_error(entries, points)
    assert rule in want.reason
    with pytest.raises(DomainError) as info:
        _volume_means(manifold, points, Var("x"), (), lambda *a: a)
    where = f"node {want.node} {points[want.node].tolist()} of the 'm' torus grid"
    assert str(info.value) == f"{want.reason} at {where}"


def test_quadrature_keeps_signed_zeros_apart(monkeypatch):
    """A quadrature block's metric rows are distinct by bit pattern: x = 0.0
    and x = -0.0 are two rows of a metric that mentions x only, and the means
    are those of one frame per point, bit for bit."""
    manifold = factor("m", COORDS, [["2 + sin(x)", "0"], ["0", "1"]])
    points = np.array([[0.0, 0.5], [-0.0, 1.0], [0.7, 1.5], [0.0, 2.0], [-0.0, 2.5]])
    phi = parse("sin(x)*cos(y) + y*y", COORDS)
    runs = []
    real_run = JetProgram.run

    def spy(program, at):
        runs.append(np.shape(at))
        return real_run(program, at)

    monkeypatch.setattr(JetProgram, "run", spy)
    means = _volume_means(manifold, points, phi, (), lambda *block: block)
    # the metric at 0.0, -0.0 and 0.7, then the field at every point
    assert runs == [(3, 2), (5, 2)]
    monkeypatch.undo()
    sums, total = [0.0, 0.0, 0.0], 0.0
    for row in points:
        frame = ChartFrame(manifold, [row])
        weight = math.sqrt(abs(frame.det[0]))
        data = (frame.field_jets(phi)[0][0], frame.laplacian(phi)[0], frame.grad_norm2(phi)[0])
        for k, q in enumerate(data):
            sums[k] += weight * q
        total += weight
    assert [m.hex() for m in means] == [(s / total).hex() for s in sums]


def test_quadrature_rows_keep_the_order_of_their_points():
    """A quadrature block's metric rows are in order of first appearance, so
    the first failing row is the row of the first failing point, whatever
    the order of the values."""
    manifold = factor("m", COORDS, [["1", "0"], ["0", "y*y*(y - 2)*(y - 2)"]])
    points = np.array([[0.5, 1.0], [0.1, 2.0], [0.2, 0.0], [0.3, 1.0]])
    with pytest.raises(DegenerateMetricError) as info:
        _volume_means(manifold, points, parse("x", COORDS), (), lambda *block: block)
    assert info.value.point == (0.1, 2.0)


# (metric entries, field, warpings, error): each case breaks a later stage
# at an earlier sample than the stage that raises
BLOCK_CASES = {
    "degenerate metric before the field's domain": (
        ("1", "0", "y*y"), "log(x - 1.6)", (), DegenerateMetricError,
    ),
    "field not finite before a warping's domain": (
        ("1", "0", "1"), "exp(1000*x)", ("sqrt(y - 0.5)",), GeometryError,
    ),
    "field's domain before a warping's domain": (
        ("1", "0", "1"), "y + log(x + 0.5)", ("sqrt(y - 0.5)",), DomainError,
    ),
    "non-positive warping before a later warping's domain": (
        ("1", "0", "1"), "x", ("y - 0.5", "sqrt(y - 1.5)"), PositivityError,
    ),
}


@pytest.mark.parametrize("case", BLOCK_CASES)
def test_quadrature_block_raises_in_walk_order(case):
    """One program run serves a whole quadrature block, and its stages
    raise in the order a walk of them would: the metric's domain, the
    metric's checks, the field's domain and checks, then each warping's."""
    (g00, g01, g11), phi, warpings, error = BLOCK_CASES[case]
    manifold = factor("m", COORDS, [[g00, g01], [g01, g11]])
    positive = tuple((f"w{k}", parse(w, COORDS)) for k, w in enumerate(warpings))
    with pytest.raises(error) as info:
        _volume_means(manifold, DOMAIN_POINTS, parse(phi, COORDS), positive, lambda *a: a)
    assert type(info.value) is error
