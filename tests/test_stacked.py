"""Stacked frames: one ChartFrame or WarpedFrame over N sample points.

Each sample of a stack must agree with a one-point frame built at that
sample: bit for bit where the stacked jets do (``+ - *``, integer powers
0-12, ``sin``, ``cos``, ``sqrt``), and within 1e-14 normalized where numpy's
``exp``, ``cosh``, real powers or the stacked reciprocal may move the last
ulp.
"""

import re

import numpy as np
import pytest

from seqwarp import factor
from seqwarp.chart import ChartFrame, DegenerateMetricError, GeometryError
from seqwarp.classify import (
    QCCFit,
    QEFit,
    check_quasi_constant_curvature,
    condition_residuals,
    fit_quasi_einstein,
    lambda_at,
    nu_at,
    proposition1_residuals,
    theorem2_conditions,
)
from seqwarp.cli import catalog_names, catalog_spec
from seqwarp.expressions import BinOp, Call, Const, DomainError, Neg, Var, integer_exponent
from seqwarp.spacetime import grw_theorem_check, ssst_theorem_check, time_axis
from seqwarp.specfile import spec_from_dict
from seqwarp.verify import VerificationInputError, run_verify
from seqwarp.warped import PositivityError, WarpedFrame, flatten_to_chart

STAGES = (
    "metric", "d3metric", "det", "inverse", "dinverse", "d2inverse", "christoffel",
    "dchristoffel", "d2christoffel", "riemann_up", "riemann", "ricci", "scalar",
    "driemann_up", "dricci", "dscalar", "div_ricci",
)
FIELD_METHODS = (
    "gradient", "hessian", "laplacian", "grad_norm2", "dhessian", "grad_laplacian",
    "div_hessian",
)
WARPED_STAGES = (
    "f_value", "h_value", "df", "grad_f", "hess_f", "lap_f", "grad_f_norm2", "dh",
    "grad_h", "hess_h", "lap_h", "grad_h_norm2", "christoffel", "riemann_up", "ricci",
    "scalar",
)
SAMPLES = 6

GENERIC_SPEC = {
    "kind": "swp",
    "factors": [
        {"name": "line_x", "coords": ["x"], "metric": [["1"]]},
        {"name": "line_u", "coords": ["u"], "metric": [["1"]]},
        {"name": "line_w", "coords": ["w"], "metric": [["1"]]},
    ],
    "warpings": {"f": "exp(0.3*x)", "h": "2 + sin(x)*cos(u)"},
}
SPECS = (*catalog_names(), "generic_outer_warp")

# Two-dimensional factors with non-diagonal metrics, h mixing both of them
NON_DIAGONAL_SPEC = {
    "kind": "swp",
    "factors": [
        {
            "name": "base",
            "coords": ["p", "q"],
            "metric": [["2 + sin(p)^2", "0.3*cos(p*q)"], ["0.3*cos(p*q)", "2 + cos(q)^2"]],
        },
        {
            "name": "mid",
            "coords": ["r", "s"],
            "metric": [["1.5 + 0.2*sin(s)", "0.1*sin(r + s)"], ["0.1*sin(r + s)", "1.5"]],
        },
        {"name": "fib", "coords": ["w"], "metric": [["1"]]},
    ],
    "warpings": {"f": "2 + sin(p)*cos(q)", "h": "(2 + cos(p))*(2 + sin(r*s))"},
}


def load(name: str):
    if name == "generic_outer_warp":
        return spec_from_dict(GENERIC_SPEC, name=name)
    if name == "non_diagonal":
        return spec_from_dict(NON_DIAGONAL_SPEC, name=name)
    return catalog_spec(name)


def bitwise_safe(e) -> bool:
    """Whether stacked jets of ``e`` equal the scalar jets bit for bit."""
    if isinstance(e, (Const, Var)):
        return True
    if isinstance(e, Neg):
        return bitwise_safe(e.arg)
    if isinstance(e, Call):
        return e.fn in ("sin", "cos", "sqrt") and bitwise_safe(e.arg)
    assert isinstance(e, BinOp)
    if e.op == "/":
        return False
    if e.op == "^":
        n = integer_exponent(e.right)
        return n is not None and 0 <= n <= 12 and bitwise_safe(e.left)
    return bitwise_safe(e.left) and bitwise_safe(e.right)


def chart_bitwise(chart, fields=()) -> bool:
    return all(bitwise_safe(e) for row in chart.metric for e in row) and all(
        bitwise_safe(phi) for phi in fields
    )


def random_chart():
    """A non-diagonal, diagonally dominant (so positive-definite) dim-4 chart."""
    rng = np.random.default_rng(7)
    coords = ["p", "q", "r", "s"]
    entries = [[""] * 4 for _ in range(4)]
    for i in range(4):
        for j in range(i, 4):
            a, b = (round(float(v), 3) for v in rng.uniform(0.5, 1.5, 2))
            if i == j:
                e = f"{3 + a} + {b}*sin({coords[i]})^2 + 0.1*cos({coords[(i + 1) % 4]})^3"
            else:
                e = f"{round(0.2 * a, 3)}*cos({b}*{coords[i]} + {coords[j]}*{coords[i]})"
            entries[i][j] = entries[j][i] = e
    chart = factor("random4", coords, entries)
    fields = (
        BinOp("*", Call("sin", Var("p")), BinOp("^", Var("q"), Const(3.0))),
        BinOp("+", Call("cos", BinOp("*", Var("r"), Var("s"))), Var("p")),
    )
    return chart, fields, rng.uniform(-1.0, 1.0, (SAMPLES, 4))


def chart_case(name: str):
    if name == "random_dim4":
        return random_chart()
    product = load(name).product
    points = load(name).sample_points(SAMPLES, 0)
    return flatten_to_chart(product), (product.f, product.h), points


def assert_agree(stacked, single, bitwise: bool, what: str) -> None:
    stacked, single = np.asarray(stacked), np.asarray(single)
    assert stacked.shape == single.shape, what
    if bitwise:
        assert np.array_equal(stacked, single), what
    else:
        gap = np.max(np.abs(stacked - single), initial=0.0)
        assert gap <= 1e-14 * (1.0 + np.max(np.abs(single), initial=0.0)), what


def test_bitwise_specs_are_the_expected_ones():
    safe = {name for name in SPECS if chart_bitwise(flatten_to_chart(load(name).product))}
    assert safe == {
        "circle_lambda", "euclidean_product", "flrw_radiation", "planted_qe",
    }
    assert chart_bitwise(*random_chart()[:2])


@pytest.mark.parametrize("name", (*SPECS, "random_dim4"))
def test_stacked_chart_frame_matches_one_point_frames(name):
    chart, fields, points = chart_case(name)
    bitwise = chart_bitwise(chart, fields)
    stack = ChartFrame(chart, points)
    m = chart.dim
    assert stack.metric.shape == (SAMPLES, m, m)
    assert stack.scalar.shape == stack.det.shape == (SAMPLES,)
    for i, point in enumerate(points):
        one = ChartFrame(chart, point)
        for stage in STAGES:
            assert_agree(getattr(stack, stage)[i], getattr(one, stage), bitwise, f"{stage} {i}")
        for phi in fields:
            for k, (s, o) in enumerate(zip(stack.field_jets(phi), one.field_jets(phi))):
                assert_agree(s[i], o, bitwise, f"field_jets[{k}] {i}")
            for method in FIELD_METHODS:
                s, o = getattr(stack, method)(phi), getattr(one, method)(phi)
                assert_agree(s[i], o, bitwise, f"{method} {i}")
        s, o = stack.div_sym2(chart.metric), one.div_sym2(chart.metric)
        assert_agree(s[i], o, bitwise, f"div_sym2 {i}")
        assert type(one.det) is type(one.scalar) is type(one.laplacian(fields[0])) is float


@pytest.mark.parametrize("name", SPECS)
def test_stacked_warped_frame_matches_one_point_frames(name):
    spec = load(name)
    product = spec.product
    fields = (product.f, product.h)
    bitwise = all(chart_bitwise(fac) for fac in product.factors) and all(
        bitwise_safe(phi) for phi in fields
    )
    points = spec.sample_points(SAMPLES, 0)
    stack = WarpedFrame(product, points)
    for i, point in enumerate(points):
        one = WarpedFrame(product, point)
        for stage in WARPED_STAGES:
            assert_agree(getattr(stack, stage)[i], getattr(one, stage), bitwise, f"{stage} {i}")


def assert_reports_agree(stacked, single, bitwise: bool, what: str) -> None:
    assert [r.name for r in stacked] == [r.name for r in single], what
    for s, o in zip(stacked, single):
        where = f"{what} {o.name}"
        assert (s.passed, s.informational, s.points) == (o.passed, o.informational, o.points), where
        assert_agree(s.max_residual, o.max_residual, bitwise, where)
        assert_agree(s.tolerance, o.tolerance, bitwise, where)
        assert s.details.keys() == o.details.keys(), where
        for key, value in o.details.items():
            if isinstance(value, float):
                assert_agree(s.details[key], value, bitwise, f"{where} {key}")
            else:
                assert s.details[key] == value, f"{where} {key}"


def premise_fits(product, count: int) -> tuple[list, list]:
    """Made-up fits, different at every sample, whose premises (a unit time
    part of U, a two-coefficient fit with b != 0) hold except at every third
    sample, where the quasi-Einstein fit failed."""
    qes, qccs = [], []
    for i in range(count):
        u = np.linspace(0.1, 0.3, product.dim) * (i + 1)
        u[time_axis(product)] = 1.0
        if i % 3:
            qes.append(QEFit("quasi-einstein", 0.2 * i - 0.5, 0.1 * i + 0.3, u, u, 1, 0.0, 1.0, ()))
        else:
            qes.append(QEFit("neither", None, None, None, None, None, 1.0, float("inf"), ()))
        qccs.append(QCCFit(True, 0.4 - 0.1 * i, 0.2 + 0.05 * i, u, 0.0, None))
    return qes, qccs


@pytest.mark.parametrize("name", (*catalog_names(), "non_diagonal"))
def test_evaluators_on_a_stack_match_one_point_calls(name):
    spec = load(name)
    product = spec.product
    bitwise = all(chart_bitwise(fac) for fac in product.factors) and all(
        bitwise_safe(phi) for phi in (product.f, product.h)
    )
    points = spec.sample_points(SAMPLES, 0)
    stack = WarpedFrame(product, points)
    flat = ChartFrame(flatten_to_chart(product), points)
    ones = [WarpedFrame(product, point) for point in points]
    qe_fits = [fit_quasi_einstein(g, ric) for g, ric in zip(flat.metric, flat.ricci)]
    qcc_fits = [check_quasi_constant_curvature(g, r) for g, r in zip(flat.metric, flat.riemann)]
    # per-sample decompositions, and a made-up one where the fit failed
    decompositions = [
        (fit.alpha, fit.beta, fit.U if fit.U is not None else np.zeros(product.dim))
        if fit.succeeded
        else (0.5, -0.25, np.linspace(0.1, 0.4, product.dim))
        for fit in qe_fits
    ]
    per_sample = tuple(np.array(column) for column in zip(*decompositions))

    for evaluator in (lambda_at, nu_at):
        s = evaluator(product, stack, 0.7)
        assert_agree(s, [evaluator(product, one, 0.7) for one in ones], bitwise, evaluator.__name__)
    for qe, qe_of in ((None, lambda i: None), (per_sample, lambda i: decompositions[i])):
        for k, s in enumerate(stack.factor_scalars(qe)):
            o = [one.factor_scalars(qe_of(i))[k] for i, one in enumerate(ones)]
            assert_agree(s, o, bitwise, f"factor_scalars[{k}]")

    lam = lambda_at(product, stack, 0.7)
    shared = decompositions[0]
    bundles = zip(
        proposition1_residuals(product, stack, per_sample),
        condition_residuals(product, stack, shared, lam, 0.3),
    )
    for i, (one, (prop, conditions)) in enumerate(zip(ones, bundles)):
        single = proposition1_residuals(product, one, decompositions[i])
        assert_reports_agree(prop, single, bitwise, f"proposition1 {i}")
        single = condition_residuals(product, one, shared, float(lam[i]), 0.3)
        assert_reports_agree(conditions, single, bitwise, f"conditions {i}")

    for qe in (None, (1.0, 0.5, None), (-1.0, 0.0, None)):
        reports = theorem2_conditions(product, qe, float(lam[0]), 0.3, stack)
        single = theorem2_conditions(product, qe, float(lam[0]), 0.3, list(points))
        assert_reports_agree(reports, single, True, "theorem2")

    if spec.kind in ("ssst", "grw"):
        check = ssst_theorem_check if spec.kind == "ssst" else grw_theorem_check
        for qes, qccs in ((qe_fits, qcc_fits), premise_fits(product, SAMPLES)):
            bundles = check(product, stack, qes, qccs, flat=flat)
            for i, one in enumerate(ones):
                single = check(product, one, qes[i], qccs[i])
                assert_reports_agree(bundles[i], single, bitwise, f"{spec.kind} {i}")


# ---------------------------------------------------------------------------
# Errors name the first failing sample, as a loop of one-point frames would
# ---------------------------------------------------------------------------

def lines_spec(f: str = "1", h: str = "1", a_metric: str = "1") -> dict:
    return {
        "kind": "swp",
        "factors": [
            {"name": "a", "coords": ["x"], "metric": [[a_metric]]},
            {"name": "b", "coords": ["u"], "metric": [["1"]]},
            {"name": "c", "coords": ["w"], "metric": [["1"]]},
        ],
        "warpings": {"f": f, "h": h},
        "sampling": {"points": 5, "seed": 3},
    }


def bump_at_sample(k: int) -> tuple[str, np.ndarray]:
    """An expression that is 1 at sample ``k`` of ``lines_spec`` and ~0 at the others."""
    samples = spec_from_dict(lines_spec()).sample_points()
    return f"exp(-1000000*(x - {float(samples[k, 0])!r})^2)", samples


def one_point_error(exc_type, fn, points):
    """The first error a loop of one-point evaluations raises."""
    for point in points:
        try:
            fn(point)
        except exc_type as exc:
            return str(exc)
    raise AssertionError("no sample fails")


def test_degenerate_sample_error_names_the_sample():
    bump, samples = bump_at_sample(3)
    spec = spec_from_dict(lines_spec(a_metric=f"1 - {bump}"))
    m1 = spec.product.m1
    x = samples[:, :1]
    expected = f"metric of 'a' is degenerate at {[float(x[3, 0])]}: |det g| = 0.000e+00"
    one_point = one_point_error(DegenerateMetricError, lambda p: ChartFrame(m1, p).inverse, x)
    assert one_point == expected
    with pytest.raises(DegenerateMetricError) as stacked:
        ChartFrame(m1, x).inverse
    assert str(stacked.value) == expected
    assert stacked.value.point == (float(x[3, 0]),)
    with pytest.raises(VerificationInputError) as verified:
        run_verify(spec)
    assert str(verified.value) == expected


@pytest.mark.parametrize("which", ["f", "h"])
def test_nonpositive_warping_error_names_the_sample(which):
    bump, samples = bump_at_sample(3)
    spec = spec_from_dict(lines_spec(**{which: f"0.5 - {bump}"}))
    product = spec.product
    if which == "f":
        expected = f"inner warping is -0.5 (must be positive) at {samples[3, :1].tolist()}"
    else:
        expected = f"outer warping is -0.5 (must be positive) at {samples[3].tolist()}"

    def both(point):
        frame = WarpedFrame(product, point)
        return frame.f_value, frame.h_value

    assert one_point_error(PositivityError, both, samples) == expected
    for first in ("f_value", "h_value"):
        with pytest.raises(PositivityError) as stacked:
            getattr(WarpedFrame(product, samples), first)
        assert str(stacked.value) == expected
    with pytest.raises(VerificationInputError) as verified:
        run_verify(spec)
    assert str(verified.value) == expected


def test_positivity_checks_samples_in_order_f_before_h():
    bump3, samples = bump_at_sample(3)
    bump1, _ = bump_at_sample(1)
    # f fails at sample 3, h already at sample 1: the h error comes first
    product = spec_from_dict(lines_spec(f=f"0.5 - {bump3}", h=f"0.5 - {bump1}")).product
    expected = f"outer warping is -0.5 (must be positive) at {samples[1].tolist()}"
    with pytest.raises(PositivityError, match=re.escape(expected)):
        WarpedFrame(product, samples).f_value
    # both fail at sample 3: f is named
    product = spec_from_dict(lines_spec(f=f"0.5 - {bump3}", h=f"0.5 - {bump3}")).product
    with pytest.raises(PositivityError, match="inner warping"):
        WarpedFrame(product, samples).h_value


def test_stack_errors_name_the_first_failing_sample():
    chart = factor("a", ["x"], [["2 + log(x)"]])
    points = np.array([[1.0], [0.5], [-0.25], [-0.5]])
    message = r"log of non-positive value -0.25 in 'log\(x\)' at \[-0.25\]"
    with pytest.raises(DomainError, match=message):
        ChartFrame(chart, points).metric
    overflow = factor("a", ["x"], [["exp(x)^2"]])
    points = np.array([[1.0], [400.0], [500.0]])
    with pytest.raises(GeometryError, match=r"not finite at \[400.0\]"):
        ChartFrame(overflow, points).metric
    with pytest.raises(GeometryError, match=r"non-finite point array\(\[nan\]\)"):
        ChartFrame(overflow, np.array([[1.0], [np.nan]]))


def test_one_sample_stack_uses_the_scalar_jets():
    spec = catalog_spec("hyperbolic_fiber")
    chart = flatten_to_chart(spec.product)
    point = spec.sample_points(1, 0)
    stack, one = ChartFrame(chart, point), ChartFrame(chart, point[0])
    for stage in STAGES:
        assert_agree(getattr(stack, stage)[0], getattr(one, stage), True, stage)


# ---------------------------------------------------------------------------
# Verdicts the refactor must not flip
# ---------------------------------------------------------------------------

# spec -> (identity count, identities that do not pass, QE verdict counts)
VERDICTS = {
    "circle_lambda": (20, ("condition1",), {"neither": 30}),
    "euclidean_product": (20, (), {"einstein": 30}),
    "exp_warp": (19, ("condition1", "condition2"), {"einstein": 30}),
    "flrw_radiation": (24, ("condition1", "condition2"), {"quasi-einstein": 30}),
    "grw_exponential": (24, ("condition2",), {"einstein": 30}),
    "hyperbolic_fiber": (19, ("condition1", "condition2"), {"neither": 30}),
    "planted_qe": (20, (), {"quasi-einstein": 30}),
    "sphere_fiber": (19, ("condition1", "condition2"), {"neither": 30}),
    "ssst_basic": (29, ("condition2",), {"quasi-einstein": 30}),
}


@pytest.mark.parametrize("name", catalog_names())
def test_catalog_verdicts_are_pinned(name):
    report = run_verify(catalog_spec(name))
    count, failing, verdicts = VERDICTS[name]
    assert len(report.identities) == count
    assert tuple(r.name for r in report.identities if not r.passed) == failing
    assert report.fits["quasi_einstein"]["verdicts"] == verdicts
    assert report.overall_pass
