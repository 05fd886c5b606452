"""Stacked frames: one ChartFrame or WarpedFrame over N sample points.

Each sample of a stack of N must agree bit for bit with a stack of one built
at that sample: every sample gets its own arithmetic, in the jets and in the
stages built from them.
"""

import dataclasses
import itertools
import math
import re
from collections import Counter
from types import SimpleNamespace

import numpy as np
import pytest

from seqwarp import chart as chart_module, factor, jets
from seqwarp.chart import ChartFrame, DegenerateMetricError, GeometryError, max_abs
from seqwarp.classify import (
    FitInputError,
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
from seqwarp.expressions import (
    BinOp,
    Call,
    Const,
    DomainError,
    Var,
    differentiate,
    to_string,
)
from seqwarp.spacetime import grw_theorem_check, ssst_theorem_check, time_axis
from seqwarp.specfile import spec_from_dict
from seqwarp.verify import (
    VerificationInputError,
    _plain,
    _structure_fits,
    run_classify,
    run_verify,
)
from seqwarp.warped import BlockVector, PositivityError, WarpedFrame, flatten_to_chart

from conftest import contracted_fits
from jet_reference import reference_jets

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
    "grad_h", "hess_h", "lap_h", "grad_h_norm2", "f_energy", "h_energy", "christoffel",
    "riemann_up", "ricci", "scalar",
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
    if name.startswith("sweep_dim"):
        return spec_from_dict(sweep_spec(int(name[len("sweep_dim"):]) // 3), name=name)
    if name == "generic_outer_warp":
        return spec_from_dict(GENERIC_SPEC, name=name)
    if name == "non_diagonal":
        return spec_from_dict(NON_DIAGONAL_SPEC, name=name)
    return catalog_spec(name)


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


def assert_agree(stacked, single, what: str) -> None:
    stacked, single = np.asarray(stacked), np.asarray(single)
    assert stacked.shape == single.shape, what
    assert np.array_equal(stacked, single), what


@pytest.mark.parametrize("name", (*SPECS, "random_dim4"))
def test_stacked_chart_frame_matches_one_point_frames(name):
    chart, fields, points = chart_case(name)
    stack = ChartFrame(chart, points)
    m = chart.dim
    assert stack.metric.shape == (SAMPLES, m, m)
    assert stack.scalar.shape == stack.det.shape == (SAMPLES,)
    for i, point in enumerate(points):
        one = ChartFrame(chart, point[None])
        for stage in STAGES:
            assert_agree(getattr(stack, stage)[i], getattr(one, stage)[0], f"{stage} {i}")
        for phi in fields:
            for k, (s, o) in enumerate(zip(stack.field_jets(phi), one.field_jets(phi))):
                assert_agree(s[i], o[0], f"field_jets[{k}] {i}")
            for method in FIELD_METHODS:
                s, o = getattr(stack, method)(phi), getattr(one, method)(phi)
                assert_agree(s[i], o[0], f"{method} {i}")
        s, o = stack.div_sym2(chart.metric), one.div_sym2(chart.metric)
        assert_agree(s[i], o[0], f"div_sym2 {i}")


@pytest.mark.parametrize("name", (*SPECS, "random_dim4"))
def test_fields_read_from_the_shared_run_match_runs_of_their_own(name):
    """A frame built with its fields reads them from the one run they share:
    every stage and field method agrees bit for bit with a frame that runs
    each field on its own, and the run is dropped after the last read."""
    chart, fields, points = chart_case(name)
    shared, alone = ChartFrame(chart, points, fields), ChartFrame(chart, points)
    for stage in STAGES:
        assert_agree(getattr(shared, stage), getattr(alone, stage), stage)
    for phi in fields:
        for k, (s, o) in enumerate(zip(shared.field_jets(phi), alone.field_jets(phi))):
            assert_agree(s, o, f"field_jets[{k}]")
        for method in FIELD_METHODS:
            assert_agree(getattr(shared, method)(phi), getattr(alone, method)(phi), method)
    assert "_fields_run" not in vars(shared)


def test_field_derivatives_are_computed_once_per_frame_and_field(monkeypatch):
    """``gradient``, ``hessian`` and ``dhessian`` are memoized like the field
    jets: across one ``run_verify`` each runs once per (frame, field), and
    what they return is read-only."""
    computed = Counter()
    frames = []  # kept alive, so that no two frames share an id
    for method in ("gradient", "hessian", "dhessian"):
        memoized = getattr(ChartFrame, method)

        def counting(frame, phi, _method=method, _compute=memoized.__wrapped__):
            frames.append(frame)
            computed[_method, id(frame), phi] += 1
            return _compute(frame, phi)

        monkeypatch.setattr(memoized, "__wrapped__", counting)
    spec = catalog_spec("sphere_fiber")
    run_verify(spec, points=10)
    # two (frame, field) pairs: f on the first factor, h on the inner chart
    assert Counter(method for method, _, _ in computed) == {
        "gradient": 2, "hessian": 2, "dhessian": 2
    }
    assert set(computed.values()) == {1}
    frame = WarpedFrame(spec.product, spec.sample_points(3, 0)).inner_frame
    for method in ("field_jets", "gradient", "hessian", "dhessian"):
        out = getattr(frame, method)(spec.product.h)
        assert out is getattr(frame, method)(spec.product.h)
        assert not any(a.flags.writeable for a in (out if isinstance(out, tuple) else (out,)))


@pytest.mark.parametrize("name", SPECS)
def test_stacked_warped_frame_matches_one_point_frames(name):
    spec = load(name)
    product = spec.product
    fields = (product.f, product.h)
    points = spec.sample_points(SAMPLES, 0)
    stack = WarpedFrame(product, points)
    for i, point in enumerate(points):
        one = WarpedFrame(product, point[None])
        for stage in WARPED_STAGES:
            assert_agree(getattr(stack, stage)[i], getattr(one, stage)[0], f"{stage} {i}")


@pytest.mark.parametrize("name", SPECS)
def test_connection_and_curvature_on_a_stack_match_stacks_of_one(name):
    spec = load(name)
    product = spec.product
    points = spec.sample_points(3, 0)
    stack = WarpedFrame(product, points)
    rng = np.random.default_rng(9)
    # x, y and z differ per sample; the basis vector is one for all samples
    x, y, z = (BlockVector.from_ambient(product, rng.normal(size=(3, product.dim))) for _ in "xyz")
    basis = BlockVector.basis(product, product.dim - 1)
    connection = stack.connection(x, basis).ambient
    curvature = stack.curvature(x, y, z).ambient
    assert connection.shape == curvature.shape == (3, product.dim)
    for i, point in enumerate(points):
        one = WarpedFrame(product, point[None])
        xi, yi, zi = (BlockVector.from_ambient(product, v.ambient[i : i + 1]) for v in (x, y, z))
        o = one.connection(xi, basis).ambient
        assert_agree(connection[i], o[0], f"connection {i}")
        o = one.curvature(xi, yi, zi).ambient
        assert_agree(curvature[i], o[0], f"curvature {i}")


def assert_reports_agree(stacked, single, what: str) -> None:
    assert [r.name for r in stacked] == [r.name for r in single], what
    for s, o in zip(stacked, single):
        where = f"{what} {o.name}"
        assert (s.passed, s.informational, s.points) == (o.passed, o.informational, o.points), where
        assert_agree(s.max_residual, o.max_residual, where)
        assert_agree(s.tolerance, o.tolerance, where)
        assert s.details.keys() == o.details.keys(), where
        for key, value in o.details.items():
            if isinstance(value, float):
                assert_agree(s.details[key], value, f"{where} {key}")
            else:
                assert s.details[key] == value, f"{where} {key}"


def assert_residuals_agree(stacked, i: int, single, what: str) -> None:
    """Sample ``i`` of the stacked ``Residual`` list against the one sample of ``single``."""
    assert [r.name for r in stacked] == [r.name for r in single], what
    for s, o in zip(stacked, single):
        where = f"{what} {o.name}"
        assert (s.scaled, s.informational, s.cause) == (o.scaled, o.informational, o.cause), where
        assert (s.over is None or s.over[i]) == (o.over is None or o.over[0]), where
        assert_agree(s.values[i], o.values[0], where)
        tolerance = np.broadcast_to(s.tolerance, s.values.shape)[i]
        assert_agree(tolerance, np.broadcast_to(o.tolerance, o.values.shape)[0], where)
        assert s.details.keys() == o.details.keys(), where
        for key, value in o.details.items():
            mine, theirs = _plain(s.details[key][i]), _plain(value[0])
            if isinstance(theirs, float):
                assert_agree(mine, theirs, f"{where} {key}")
            else:
                assert mine == theirs, f"{where} {key}"


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
        qccs.append(QCCFit(True, 0.4 - 0.1 * i, 0.2 + 0.05 * i, u, 0.0))
    return qes, qccs


@pytest.mark.parametrize("name", (*catalog_names(), "non_diagonal"))
def test_evaluators_on_a_stack_match_one_point_calls(name):
    spec = load(name)
    product = spec.product
    points = spec.sample_points(SAMPLES, 0)
    stack = WarpedFrame(product, points)
    flat = ChartFrame(flatten_to_chart(product), points)
    ones = [WarpedFrame(product, point[None]) for point in points]
    qe_fits = [fit_quasi_einstein(g[None], ric[None])[0] for g, ric in zip(flat.metric, flat.ricci)]
    qcc_fits = [
        check_quasi_constant_curvature(g[None], r[None], [qe])[0]
        for g, r, qe in zip(flat.metric, flat.riemann, qe_fits)
    ]
    # per-sample decompositions, and a made-up one where the fit failed
    decompositions = [
        (fit.alpha, fit.beta, fit.U if fit.U is not None else np.zeros(product.dim))
        if fit.succeeded
        else (0.5, -0.25, np.linspace(0.1, 0.4, product.dim))
        for fit in qe_fits
    ]
    per_sample = tuple(np.array(column) for column in zip(*decompositions))

    for evaluator in (lambda_at, nu_at):
        s = evaluator(stack, 0.7)
        o = [evaluator(one, 0.7)[0] for one in ones]
        assert_agree(s, o, evaluator.__name__)
    for k, s in enumerate(stack.factor_scalars(per_sample)):
        o = [one.factor_scalars(decompositions[i])[k][0] for i, one in enumerate(ones)]
        assert_agree(s, o, f"factor_scalars[{k}]")

    lam = lambda_at(stack, 0.7)
    shared = decompositions[0]
    prop = proposition1_residuals(stack, per_sample)
    conditions = condition_residuals(stack, shared, lam)
    for i, one in enumerate(ones):
        single = proposition1_residuals(one, decompositions[i])
        assert_agree([r[i] for r in prop], [r[0] for r in single], f"proposition1 {i}")
        single = condition_residuals(one, shared, float(lam[i]))
        assert_agree([r[i] for r in conditions], [r[0] for r in single], f"conditions {i}")

    for qe in (None, (1.0, 0.5, None), (-1.0, 0.0, None)):
        reports = theorem2_conditions(stack, qe, float(lam[0]), 0.3)
        single = theorem2_conditions(WarpedFrame(product, points), qe, float(lam[0]), 0.3)
        assert_reports_agree(reports, single, "theorem2")

    if spec.kind in ("ssst", "grw"):
        check = ssst_theorem_check if spec.kind == "ssst" else grw_theorem_check
        for qes, qccs in ((qe_fits, qcc_fits), premise_fits(product, SAMPLES)):
            stacked = check(stack, flat, qes, qccs)
            for i, one in enumerate(ones):
                one_flat = ChartFrame(flatten_to_chart(product), one.point)
                single = check(one, one_flat, [qes[i]], [qccs[i]])
                assert_residuals_agree(stacked, i, single, f"{spec.kind} {i}")


def printed_proposition1(frame: WarpedFrame, qe) -> list[np.ndarray]:
    """Proposition 1 in its printed form, the warping terms on the side of
    the decomposition, each written out from the frame's warping jets:

        Ric_1 = alpha g1 + beta a1 (x) a1 + (m2/f) H^f + (m3/h) H^h|_11
        Ric_2 = lambda g2 + beta f^4 a2 (x) a2 + (m3/h) H^h|_22
        Ric_3 = nu g3 + beta h^4 a3 (x) a3

    with a_k = g_k U_k, lambda = alpha f^2 + f Lap f + (m2 - 1)|grad f|^2 and
    nu = alpha h^2 + h Lap h + (m3 - 1)|grad h|^2.  Per factor, the max
    |Ric_k - rhs_k| of each sample."""
    alpha, beta, u = (np.asarray(x, dtype=float) for x in qe)
    n = len(frame.point)
    alpha, beta = np.broadcast_to(alpha, (n,)), np.broadcast_to(beta, (n,))
    u = np.broadcast_to(u, (n, frame.product.dim))
    d1, m2, m3 = frame.product.dims
    f, h = frame.f_value, frame.h_value
    lam = alpha * f**2 + f * frame.lap_f + (m2 - 1) * frame.grad_f_norm2
    nu = alpha * h**2 + h * frame.lap_h + (m3 - 1) * frame.grad_h_norm2
    hh = frame.hess_h
    factors = (frame.frame1, frame.frame2, frame.frame3)
    g1, g2, g3 = (fr.metric for fr in factors)
    a1, a2, a3 = (
        np.einsum("nij,nj->ni", fr.metric, u[:, sl])
        for fr, sl in zip(factors, frame.product.block_slices)
    )

    def aa(a):
        return np.einsum("ni,nj->nij", a, a)

    rhs = (
        alpha[:, None, None] * g1
        + beta[:, None, None] * aa(a1)
        + (m2 / f)[:, None, None] * frame.hess_f
        + (m3 / h)[:, None, None] * hh[:, :d1, :d1],
        lam[:, None, None] * g2
        + (beta * f**4)[:, None, None] * aa(a2)
        + (m3 / h)[:, None, None] * hh[:, d1:, d1:],
        nu[:, None, None] * g3 + (beta * h**4)[:, None, None] * aa(a3),
    )
    return [np.abs(fr.ricci - r).max(axis=(1, 2)) for fr, r in zip(factors, rhs)]


@pytest.mark.parametrize("name", (*SPECS, "sweep_dim6", "non_diagonal"))
def test_proposition1_matches_its_printed_form(name):
    # with an arbitrary (alpha, beta, U) the residuals are O(1), so a sign
    # slip in one block of the closed Ricci or of the decomposition shows
    spec = load(name)
    product, points = spec.product, spec.sample_points(SAMPLES, 0)
    rng = np.random.default_rng(11)
    per_sample = (
        rng.uniform(-2.0, 2.0, SAMPLES),
        rng.uniform(-2.0, 2.0, SAMPLES),
        rng.uniform(-1.0, 1.0, (SAMPLES, product.dim)),
    )
    shared = (0.7, -1.3, rng.uniform(-1.0, 1.0, product.dim))
    for frame, qe in (
        (WarpedFrame(product, points), per_sample),
        (WarpedFrame(product, points), shared),
        (WarpedFrame(product, points[:1]), shared),
    ):
        closed = proposition1_residuals(frame, qe)
        printed = printed_proposition1(frame, qe)
        for k, (c, p) in enumerate(zip(closed, printed), start=1):
            assert c.shape == p.shape == (len(frame.point),)
            assert np.all(p > 1e-3), f"M{k}: the residual should be O(1), got {p}"
            np.testing.assert_allclose(c, p, rtol=1e-12, atol=0.0, err_msg=f"M{k}")


# ---------------------------------------------------------------------------
# Errors name the first failing sample, as a loop of stacks of one would
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
    """The first error a loop of evaluations on stacks of one raises."""
    for point in points:
        try:
            fn(point[None])
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
    with pytest.raises(GeometryError, match=r"non-finite point \[nan\]$"):
        ChartFrame(overflow, np.array([[1.0], [np.nan]]))


def sweep_spec(k: int) -> dict:
    """Three k-dimensional factors with non-diagonal metrics: ambient dim 3k."""

    def block(prefix: str, name: str) -> dict:
        coords = [f"{prefix}{i}" for i in range(k)]
        metric = [
            [
                f"1.5 + 0.3*sin({ci})^2" if i == j else f"0.1*cos({ci} + {cj})"
                for j, cj in enumerate(coords)
            ]
            for i, ci in enumerate(coords)
        ]
        return {"name": name, "coords": coords, "metric": metric}

    return {
        "kind": "swp",
        "factors": [block("a", "base"), block("b", "middle"), block("c", "fiber")],
        "warpings": {"f": "exp(0.3*a0)", "h": "exp(0.3*a0)*(2 + sin(b0))"},
    }


def independent_jets(e, chart, points):
    """Jets of ``e`` from the reference walk of its tree alone."""
    return reference_jets(e, points, chart.coords)


@pytest.mark.parametrize("count", [1, SAMPLES])
@pytest.mark.parametrize("name", (*SPECS, "sweep_dim6", "sweep_dim9", "sweep_dim12"))
def test_shared_walk_matches_independent_walks(name, count, monkeypatch):
    """Every metric entry, every d_c g_ij and the warpings of the ambient,
    inner and factor frames equal walks of each tree alone bit for bit, and
    each program compiles each distinct subtree once."""
    spec = load(name)
    product = spec.product
    points = spec.sample_points(count, 0)
    compiles = Counter()
    compilers = []  # kept alive, so that no two compilers share an id

    def spy(compiler, e):
        compilers.append(compiler)
        compiles[id(compiler), e] += 1
        return real_compile(compiler, e)

    real_compile = jets._Compiler.compile
    monkeypatch.setattr(jets._Compiler, "compile", spy)
    for cached in (jets.jet_program, chart_module._frame_program, chart_module._d3_program):
        cached.cache_clear()
    warped = WarpedFrame(product, points)
    flat = ChartFrame(flatten_to_chart(product), points)
    frames = (flat, warped.inner_frame, warped.frame1, warped.frame2, warped.frame3)
    for frame in frames:
        chart, at = frame.manifold, frame.point
        g, dg, d2g = frame._metric_jets
        d3g = frame.d3metric
        for i, j in itertools.product(range(chart.dim), repeat=2):
            entry = chart.metric[i][j]
            for k, (s, o) in enumerate(zip((g, dg, d2g), independent_jets(entry, chart, at))):
                assert_agree(s[(Ellipsis, i, j)], o, f"{chart.name} jet {k} of {i}, {j}")
            for c, cname in enumerate(chart.coords):
                o = independent_jets(differentiate(entry, cname), chart, at)[2]
                assert_agree(d3g[..., c, i, j], o, f"{chart.name} d_{cname} g_{i}{j}")
    for frame, phi in ((warped.frame1, product.f), (warped.inner_frame, product.h)):
        want = independent_jets(phi, frame.manifold, frame.point)
        for k, (s, o) in enumerate(zip(frame.field_jets(phi), want)):
            assert_agree(s, o, f"jet {k} of {to_string(phi)}")
    assert compiles and max(compiles.values()) == 1


@pytest.mark.parametrize("build", [ChartFrame, WarpedFrame])
def test_frames_reject_a_one_dimensional_point(build):
    product = catalog_spec("exp_warp").product
    owner = flatten_to_chart(product) if build is ChartFrame else product
    point = np.zeros(owner.dim)
    expected = rf"shape \(N, {owner.dim}\), got shape \({owner.dim},\)"
    with pytest.raises(GeometryError, match=expected):
        build(owner, point)
    build(owner, point[None])


# ---------------------------------------------------------------------------
# Structure fits: a stack agrees bit for bit with the per-point fits
# ---------------------------------------------------------------------------
# The reference is the per-point implementation the batched fits replaced,
# kept here because a one-point call now runs the batched code.

def reference_qe(g: np.ndarray, ric: np.ndarray, tol: float = 1e-6) -> QEFit:
    if not (np.isfinite(g).all() and np.isfinite(ric).all()):
        raise GeometryError("quasi-Einstein fit input (metric or Ricci tensor) is not finite")
    m = g.shape[0]
    eigs = np.linalg.eigvals(np.linalg.solve(g, ric))
    scale = 1.0 + float(np.max(np.abs(eigs)))

    def failure(reason: str) -> QEFit:
        eigenvalues = tuple(sorted(float(v) for v in eigs.real))
        return QEFit("neither", None, None, None, None, None, float(np.max(np.abs(ric))),
                     float("inf"), eigenvalues, reason)

    if float(np.max(np.abs(eigs.imag))) > 1e-8 * scale:
        return failure("mixed Ricci endomorphism has a complex eigenvalue pair")
    values = np.sort(eigs.real)
    order = np.argsort(values)
    groups = [[int(order[0])]]
    for idx in order[1:]:
        if values[idx] - values[groups[-1][-1]] <= 1e-6 * scale:
            groups[-1].append(int(idx))
        else:
            groups.append([int(idx)])
    top = sorted(groups, key=len, reverse=True)[0]
    if len(top) < m - 1:
        return failure(f"largest eigenvalue cluster has multiplicity {len(top)} < {m - 1}")
    alpha = float(np.mean(values[top]))
    rest = ric - alpha * g
    w, vecs = np.linalg.eigh(rest)
    k = int(np.argmax(np.abs(w)))
    sigma, direction = float(w[k]), vecs[:, k]
    rank_one = sigma * np.outer(direction, direction)
    residual = float(np.max(np.abs(rest - rank_one)))
    if residual > tol * (1.0 + float(np.max(np.abs(ric)))):
        return failure("remainder after removing alpha g is not rank one")
    eigenvalues = tuple(float(v) for v in values)
    if abs(sigma) <= 1e-8 * scale:
        return QEFit("einstein", alpha, 0.0, np.zeros(m), None, None,
                     float(np.max(np.abs(rest))), abs(sigma), eigenvalues)
    u_raw = np.linalg.solve(g, direction)
    causal = float(direction @ u_raw)
    if abs(causal) <= 1e-10 * (1.0 + float(np.max(np.abs(u_raw))) ** 2):
        return QEFit("quasi-einstein", alpha, sigma, direction, None, 0, residual, abs(sigma),
                     eigenvalues, "U direction is null; no unit normalization exists")
    u = u_raw / math.sqrt(abs(causal))
    return QEFit("quasi-einstein", alpha, sigma * abs(causal), g @ u, u,
                 1 if causal > 0 else -1, residual, abs(sigma), eigenvalues)


def reference_qcc(g: np.ndarray, r: np.ndarray, qe: QEFit, tol: float = 1e-6) -> QCCFit:
    if not (np.isfinite(g).all() and np.isfinite(r).all()):
        raise GeometryError("curvature fit input (metric or curvature tensor) is not finite")
    scale = 1.0 + float(np.max(np.abs(r)))
    worst = max(
        float(np.max(np.abs(r + np.einsum("jikl->ijkl", r)))),
        float(np.max(np.abs(r + np.einsum("ijlk->ijkl", r)))),
        float(np.max(np.abs(r - np.einsum("klij->ijkl", r)))),
    )
    if worst > 1e-6 * scale:
        raise GeometryError(f"input tensor lacks curvature symmetries (residual {worst:.3e})")
    if not qe.succeeded:
        return QCCFit(False, None, None, None, float(np.max(np.abs(r))),
                      "Ricci contraction admits no rank-one decomposition")
    a_form = qe.A
    with np.errstate(over="ignore", invalid="ignore"):
        t1 = np.einsum("jk,il->ijkl", g, g) - np.einsum("ik,jl->ijkl", g, g)
        t2 = (
            np.einsum("il,j,k->ijkl", g, a_form, a_form)
            - np.einsum("ik,j,l->ijkl", g, a_form, a_form)
            + np.einsum("jk,i,l->ijkl", g, a_form, a_form)
            - np.einsum("jl,i,k->ijkl", g, a_form, a_form)
        )
    if not (np.isfinite(t1).all() and np.isfinite(t2).all()):
        raise GeometryError(
            "two-coefficient curvature basis (products of metric entries) is not finite"
        )
    design = np.stack([t1.ravel(), t2.ravel()], axis=1)
    coeffs, *_ = np.linalg.lstsq(design, r.ravel(), rcond=None)
    a, b = float(coeffs[0]), float(coeffs[1])
    residual = float(np.max(np.abs(r - a * t1 - b * t2)))
    return QCCFit(bool(residual <= tol * scale), a, b, a_form, residual)


def assert_same_fit(stacked, reference, what: str) -> None:
    """Every field equal and of the same type; floats and arrays bit for bit."""
    assert type(stacked) is type(reference), what
    for fld in dataclasses.fields(reference):
        x, y = getattr(stacked, fld.name), getattr(reference, fld.name)
        where = f"{what}.{fld.name}"
        if isinstance(y, (float, tuple, np.ndarray)):
            assert type(x) is type(y) and np.shape(x) == np.shape(y), where
            assert np.asarray(x, float).tobytes() == np.asarray(y, float).tobytes(), where
        else:
            assert type(x) is type(y) and x == y, where


def assert_fits_match_reference(fit, reference, g, tensor, tol, what: str, *given) -> None:
    """``fit(g, tensor, *given, tol)`` on the stack against ``reference`` sample
    by sample, and a stack of one against the reference at the first sample;
    each of ``given`` holds one entry per sample."""
    def per_point(i: int):
        return reference(g[i], tensor[i], *(x[i] for x in given), tol)

    for i, stacked in enumerate(fit(g, tensor, *given, tol)):
        assert_same_fit(stacked, per_point(i), f"{what} sample {i}")
    (one,) = fit(g[:1], tensor[:1], *(x[:1] for x in given), tol)
    assert_same_fit(one, per_point(0), f"{what} one point")


@pytest.mark.parametrize("name", (*SPECS, "non_diagonal"))
def test_stacked_fits_match_the_per_point_fits(name):
    spec = load(name)
    points = spec.sample_points(spec.points, 0)
    flat = ChartFrame(flatten_to_chart(spec.product), points)
    warped = WarpedFrame(spec.product, points)
    assert_fits_match_reference(
        fit_quasi_einstein, reference_qe, flat.metric, flat.ricci, 1e-6, f"{name} ambient"
    )
    qe_fits = fit_quasi_einstein(flat.metric, flat.ricci, 1e-6)
    assert_fits_match_reference(
        check_quasi_constant_curvature, reference_qcc, flat.metric, flat.riemann, 1e-6, name,
        qe_fits,
    )
    for frame in (warped.frame1, warped.frame2, warped.frame3):
        m = frame.manifold.dim
        g, ric = frame.metric.reshape(-1, m, m), frame.ricci.reshape(-1, m, m)
        assert_fits_match_reference(
            fit_quasi_einstein, reference_qe, g, ric, 1e-6, f"{name} {frame.manifold.name}"
        )


LORENTZ = np.diag([-1.0, 1.0, 1.0, 1.0])


def qe_branch_stack() -> tuple[np.ndarray, np.ndarray, list]:
    """Samples that reach every quasi-Einstein branch, and the verdict, unit
    sign and failure reason each reaches with the tolerance 1e-8."""
    spacelike, timelike = np.array([0.0, 1.0, 0.3, 0.0]), np.array([1.0, 0.2, 0.0, 0.0])
    null = np.array([1.0, 1.0, 0.0, 0.0]) / math.sqrt(2.0)
    pair = np.diag([0.0, 0.0, 2.0, 2.0])
    pair[0, 1] = pair[1, 0] = 1.0  # g^-1 ric rotates the (t, x) plane
    euclid = np.diag([1.0, 2.0, 0.5, 1.5])
    tilted = np.array([0.2, -0.5, 0.1, 0.3])
    near_null = np.array([math.cos(math.pi / 4 + 2e-10), math.sin(math.pi / 4 + 2e-10), 0.0, 0.0])
    cases = [
        (euclid, -1.3 * euclid, ("einstein", None, "")),
        (LORENTZ, 0.5 * LORENTZ + 2.0 * np.outer(spacelike, spacelike), ("quasi-einstein", 1, "")),
        (LORENTZ, 0.5 * LORENTZ + 0.7 * np.outer(timelike, timelike), ("quasi-einstein", -1, "")),
        (LORENTZ, 1.5 * LORENTZ + 0.7 * np.outer(null, null), ("quasi-einstein", 0, "null")),
        (LORENTZ, pair, ("neither", None, "complex")),
        (np.eye(4), np.diag([1.0, 2.0, 3.0, 4.0]), ("neither", None, "multiplicity 1 < 3")),
        (np.eye(4), np.diag([1.0, 1.0, 1.0 + 2e-6, 3.0]), ("neither", None, "not rank one")),
        # the largest cluster above the smallest value: alpha from [1, m)
        (np.eye(4), np.diag([-2.0, 1.0, 1.0, 1.0]), ("quasi-einstein", 1, "")),
        (euclid, np.zeros((4, 4)), ("einstein", None, "")),
        # just inside the Einstein threshold, a gap just beyond the cluster one,
        # and g(U, U) = 2e-10 just beyond the null one, 1e-10 (1 + max |U|^2)
        (euclid, 0.9 * euclid + 5e-8 * np.outer(tilted, tilted), ("einstein", None, "")),
        (np.eye(4), np.diag([1.0, 1.0, 1.0, 1.0 + 3e-6]), ("quasi-einstein", 1, "")),
        (LORENTZ, 0.5 * LORENTZ + 0.7 * np.outer(near_null, near_null), ("quasi-einstein", 1, "")),
    ]
    g, ric, expected = zip(*cases)
    return np.array(g), np.array(ric), list(expected)


def test_stacked_fits_match_the_per_point_fits_on_every_branch():
    g, ric, expected = qe_branch_stack()
    fits = fit_quasi_einstein(g, ric, 1e-8)
    for fit, (verdict, sign, reason) in zip(fits, expected):
        assert (fit.verdict, fit.unit_sign) == (verdict, sign) and reason in fit.reason
    assert_fits_match_reference(fit_quasi_einstein, reference_qe, g, ric, 1e-8, "QE branches")
    for order in (slice(None, None, -1), [4, 0, 6, 3, 1]):
        assert_fits_match_reference(
            fit_quasi_einstein, reference_qe, g[order], ric[order], 1e-8, "reordered"
        )
    # m = 2: two clusters of m - 1 values, of which the first is the largest
    g = np.array([np.eye(2), np.diag([1.0, 2.0]), np.eye(2)])
    ric = np.array([np.diag([1.0, 3.0]), np.diag([3.0, 1.0]), 2.0 * np.eye(2)])
    assert_fits_match_reference(fit_quasi_einstein, reference_qe, g, ric, 1e-8, "m = 2")
    g, ric = np.array([[[2.0]], [[-0.5]]]), np.array([[[0.6]], [[1.0]]])
    assert_fits_match_reference(fit_quasi_einstein, reference_qe, g, ric, 1e-8, "m = 1")


def diagonal_curvature(weights: np.ndarray) -> np.ndarray:
    """R_ijkl = w_ij (d_jk d_il - d_ik d_jl) on the identity metric: curvature
    symmetries hold and the Ricci contraction is diag(row sums of w)."""
    eye = np.eye(len(weights))
    t1 = np.einsum("jk,il->ijkl", eye, eye) - np.einsum("ik,jl->ijkl", eye, eye)
    return weights[:, :, None, None] * t1


def qcc_branch_stack() -> tuple[np.ndarray, np.ndarray, list]:
    """Curvature samples for every two-coefficient branch, and whether each passes."""
    g = np.diag([1.0, 2.0, 0.5, 1.5])
    u = np.array([0.3, 0.4, -0.2, 0.5])
    u = u / math.sqrt(u @ g @ u)
    t1 = np.einsum("jk,il->ijkl", g, g) - np.einsum("ik,jl->ijkl", g, g)
    a_form = g @ u
    t2 = (
        np.einsum("il,j,k->ijkl", g, a_form, a_form)
        - np.einsum("ik,j,l->ijkl", g, a_form, a_form)
        + np.einsum("jk,i,l->ijkl", g, a_form, a_form)
        - np.einsum("jl,i,k->ijkl", g, a_form, a_form)
    )
    equal_rows = np.array([[0, 1, 2, 3], [1, 0, 3, 2], [2, 3, 0, 1], [3, 2, 1, 0]], dtype=float)
    distinct_rows = np.array([[0, 1, 2, 4], [1, 0, 3, 5], [2, 3, 0, 7], [4, 5, 7, 0]], dtype=float)
    cases = [
        (g, 2.0 * t1 - 0.5 * t2, True),  # two coefficients
        (g, -0.7 * t1, True),  # constant curvature: an Einstein Ricci fit, b = 0
        (np.eye(4), diagonal_curvature(equal_rows), False),  # Einstein Ricci, no fit
        (np.eye(4), diagonal_curvature(distinct_rows), False),  # the Ricci fit fails
        (LORENTZ, np.zeros((4, 4, 4, 4)), True),
    ]
    g, r, expected = zip(*cases)
    return np.array(g), np.array(r), list(expected)


def test_stacked_curvature_fits_match_the_per_point_fits_on_every_branch():
    g, r, expected = qcc_branch_stack()
    qe_fits = contracted_fits(g, r)
    assert [fit.succeeded for fit in qe_fits] == [True, True, True, False, True]
    fits = check_quasi_constant_curvature(g, r, qe_fits)
    assert [fit.passed for fit in fits] == expected
    assert_fits_match_reference(
        check_quasi_constant_curvature, reference_qcc, g, r, 1e-6, "QCC", qe_fits
    )
    assert_fits_match_reference(
        check_quasi_constant_curvature, reference_qcc, g[::-1], r[::-1], 1e-6, "reordered",
        qe_fits[::-1],
    )


def first_reference_error(reference, g, tensor, *given) -> tuple[int, str]:
    """The sample and message of the first error a loop of per-point fits raises."""
    for i in range(len(g)):
        try:
            reference(g[i], tensor[i], *(x[i] for x in given))
        except GeometryError as exc:
            return i, str(exc)
    raise AssertionError("no sample fails")


def assert_raises_like_the_loop(fit, reference, g, tensor, sample: int, *given) -> str:
    expected = first_reference_error(reference, g, tensor, *given)
    assert expected[0] == sample
    with pytest.raises(FitInputError) as raised:
        fit(g, tensor, *given)
    assert (raised.value.sample, str(raised.value)) == expected
    return expected[1]


def test_fit_input_errors_name_the_first_failing_sample():
    g, ric, _ = qe_branch_stack()
    bad = ric.copy()
    bad[3, 0, 1] = bad[6, 2, 2] = np.nan
    message = assert_raises_like_the_loop(fit_quasi_einstein, reference_qe, g, bad, 3)
    assert message == "quasi-Einstein fit input (metric or Ricci tensor) is not finite"

    g, r, _ = qcc_branch_stack()
    qe_fits = contracted_fits(g, r)
    not_finite, asymmetric, huge, huge_r = r.copy(), r.copy(), g.copy(), r.copy()
    not_finite[2, 0, 1, 0, 1] = np.inf
    asymmetric[1, 0, 1, 0, 1] += 1.0
    # finite, but g (x) g overflows; at sample 3 the quasi-Einstein fit
    # fails, so no basis is built there
    huge[3:] *= 1e200
    huge_r[3] *= 1e200
    for metric, tensor, sample, text in (
        (g, not_finite, 2, "curvature fit input (metric or curvature tensor) is not finite"),
        (g, asymmetric, 1, "input tensor lacks curvature symmetries (residual 1.000e+00)"),
        (huge, huge_r, 4, "two-coefficient curvature basis (products of metric entries) is not finite"),
    ):
        message = assert_raises_like_the_loop(
            check_quasi_constant_curvature, reference_qcc, metric, tensor, sample, qe_fits
        )
        assert message == text
    # each sample is checked in full before the next: a basis overflow at
    # sample 1 comes before a tensor that is not finite at sample 2
    early = g.copy()
    early[1] *= 1e200
    assert_raises_like_the_loop(
        check_quasi_constant_curvature, reference_qcc, early, not_finite, 1, qe_fits
    )


def test_quasi_einstein_input_errors_come_before_curvature_ones():
    g, r, _ = qcc_branch_stack()
    ric = np.einsum("nil,nijkl->njk", np.linalg.inv(g), r)
    ric[3, 0, 0] = np.nan
    r = r.copy()
    r[1, 0, 1, 0, 1] += 1.0
    samples = np.arange(10.0).reshape(5, 2)
    flat = SimpleNamespace(metric=g, ricci=ric, riemann=r)
    with pytest.raises(VerificationInputError) as raised:
        _structure_fits(flat, samples, 1e-6)
    assert str(raised.value) == (
        "quasi-Einstein fit input (metric or Ricci tensor) is not finite at sample 3 [6.0, 7.0]"
    )
    flat.ricci[3, 0, 0] = 0.0
    with pytest.raises(VerificationInputError, match=r"symmetries \(residual 1\.000e\+00\) at sample 1 \[2\.0, 3\.0\]$"):
        _structure_fits(flat, samples, 1e-6)


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


@pytest.mark.parametrize("count", [1, SAMPLES])
@pytest.mark.parametrize("name", (*SPECS, "sweep_dim6", "sweep_dim9", "sweep_dim12"))
def test_dricci_matches_the_traced_riemann_derivative(name, count):
    """The contracted ``dricci`` of the ambient, inner and factor frames
    against the trace of the reference ``driemann_up``, per sample,
    normalized by 1 + max |reference|."""
    spec = load(name)
    points = spec.sample_points(count, 0)
    warped = WarpedFrame(spec.product, points)
    flat = ChartFrame(flatten_to_chart(spec.product), points)
    for frame in (flat, warped.inner_frame, warped.frame1, warped.frame2, warped.frame3):
        reference = np.einsum("...aiijk->...ajk", frame.driemann_up)
        gap = max_abs(frame.dricci - reference, 3) / (1.0 + max_abs(reference, 3))
        assert frame.dricci.shape == reference.shape
        assert np.max(gap) <= 1e-13, (frame.manifold.name, np.max(gap))


def test_verify_and_classify_never_build_the_reference_stages(monkeypatch):
    """``d3metric``, ``d2christoffel`` and ``driemann_up`` are reference
    stages for the tests: no check of ``run_verify`` or ``run_classify``
    reads them."""

    def refuse(frame):
        raise AssertionError(f"a reference stage was built for {frame.manifold.name!r}")

    monkeypatch.setattr(ChartFrame.d3metric, "func", refuse)
    monkeypatch.setattr(ChartFrame.d2christoffel, "func", refuse)
    monkeypatch.setattr(ChartFrame.driemann_up, "func", refuse)
    for name in catalog_names():
        run_verify(catalog_spec(name))
        run_classify(catalog_spec(name))
