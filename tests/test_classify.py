"""Structure fits, factor identities, quadrature identities, and the
hypothesis evaluators."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import contracted_fits, line_factor, sphere_factor
from seqwarp import SequentialWarpedProduct, classify, factor
from seqwarp.chart import (
    ChartFrame,
    DegenerateMetricError,
    FactorManifold,
    GeometryError,
    SignatureError,
)
from seqwarp.classify import (
    DEFAULT_FIT_TOL,
    IdentityReport,
    check_quasi_constant_curvature,
    condition_residuals,
    fit_quasi_einstein,
    lambda_at,
    nu_at,
    proposition1_residuals,
    theorem2_conditions,
    torus_average_identity,
    torus_divergence_residual,
)
from seqwarp.expressions import DomainError, parse
from seqwarp.warped import PositivityError, WarpedFrame, flatten_to_chart, inner_chart

TWO_PI = 2.0 * math.pi


def random_spd(rng, dim):
    basis = rng.normal(size=(dim, dim))
    q, _ = np.linalg.qr(basis)
    eigs = rng.uniform(0.5, 2.0, size=dim)
    return q @ np.diag(eigs) @ q.T


def planted_qe_instance(rng, dim, alpha, beta):
    g = random_spd(rng, dim)
    u = rng.normal(size=dim)
    u = u / math.sqrt(u @ g @ u)
    a_form = g @ u
    return g, alpha * g + beta * np.outer(a_form, a_form), u, a_form


class TestQuasiEinsteinFit:
    def test_planted_identity_metric(self):
        g = np.eye(3)
        ric = 2.0 * g + 3.0 * np.outer([1, 0, 0], [1, 0, 0])
        fit = fit_quasi_einstein([g], [ric])[0]
        assert fit.verdict == "quasi-einstein"
        assert fit.alpha == pytest.approx(2.0, abs=1e-12)
        assert fit.beta == pytest.approx(3.0, abs=1e-12)
        assert fit.residual <= 1e-12
        assert np.abs(fit.U) == pytest.approx([1.0, 0.0, 0.0], abs=1e-12)
        # the 1-form is the metric dual of U
        assert fit.A == pytest.approx(g @ fit.U, abs=1e-14)

    def test_sphere_is_einstein(self, rng):
        sphere = sphere_factor()
        point = (1.1, 0.4)
        frame = ChartFrame(sphere, [point])
        fit = fit_quasi_einstein(frame.metric, frame.ricci)[0]
        assert fit.verdict == "einstein"
        assert fit.alpha == pytest.approx(1.0, abs=1e-12)
        assert fit.beta_part <= 1e-8

    def test_two_eigenvalue_groups_is_neither(self):
        fit = fit_quasi_einstein([np.eye(4)], [np.diag([1.0, 1.0, 5.0, 5.0])])[0]
        assert fit.verdict == "neither"

    def test_non_rank_one_remainder_is_neither(self):
        ric = np.diag([2.0, 2.0, 2.0, 2.0]) + 0.01 * np.diag([1.0, -1.0, 0.0, 0.0])
        fit = fit_quasi_einstein([np.eye(4)], [ric], tol=1e-6)[0]
        assert fit.verdict == "neither"

    def test_lorentzian_timelike_direction(self):
        g = np.diag([-1.0, 1.0, 1.0, 1.0])
        a_form = g @ np.array([1.0, 0, 0, 0])
        fit = fit_quasi_einstein([g], [0.5 * g + 2.0 * np.outer(a_form, a_form)])[0]
        assert fit.verdict == "quasi-einstein"
        assert fit.unit_sign == -1
        assert abs(fit.U[0]) == pytest.approx(1.0, abs=1e-12)
        assert fit.beta == pytest.approx(2.0, abs=1e-12)

    def test_null_direction_reported_unnormalized(self):
        g = np.diag([-1.0, 1.0, 1.0, 1.0])
        null = np.array([1.0, 1.0, 0.0, 0.0]) / math.sqrt(2.0)
        fit = fit_quasi_einstein([g], [1.5 * g + 0.7 * np.outer(null, null)])[0]
        assert fit.verdict == "quasi-einstein"
        assert fit.unit_sign == 0
        assert fit.U is None
        assert "null" in fit.reason

    @settings(max_examples=60, deadline=None)
    @given(
        dim=st.integers(min_value=3, max_value=6),
        alpha=st.floats(min_value=-3.0, max_value=3.0),
        beta=st.floats(min_value=0.1, max_value=3.0),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
    )
    def test_round_trip_property(self, dim, alpha, beta, seed):
        rng = np.random.default_rng(seed)
        g, ric, u, a_form = planted_qe_instance(rng, dim, alpha, beta)
        fit = fit_quasi_einstein([g], [ric])[0]
        assert fit.verdict == "quasi-einstein"
        assert fit.alpha == pytest.approx(alpha, abs=1e-8)
        assert fit.beta == pytest.approx(beta, abs=1e-8)
        direction = fit.A / np.linalg.norm(fit.A)
        target = a_form / np.linalg.norm(a_form)
        assert min(
            np.max(np.abs(direction - target)), np.max(np.abs(direction + target))
        ) <= 1e-8

    @settings(max_examples=30, deadline=None)
    @given(
        c=st.floats(min_value=0.25, max_value=4.0),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
    )
    def test_scaling_equivariance(self, c, seed):
        rng = np.random.default_rng(seed)
        g, ric, _, _ = planted_qe_instance(rng, 4, 1.5, 0.8)
        base = fit_quasi_einstein([g], [ric])[0]
        scaled = fit_quasi_einstein([g], [c * ric])[0]
        assert scaled.alpha == pytest.approx(c * base.alpha, rel=1e-9)
        assert scaled.beta == pytest.approx(c * base.beta, rel=1e-9)
        assert np.abs(scaled.U) == pytest.approx(np.abs(base.U), abs=1e-9)

    def test_einstein_input_beta_part(self, rng):
        g = random_spd(rng, 5)
        fit = fit_quasi_einstein([g], [-1.3 * g])[0]
        assert fit.verdict == "einstein"
        assert fit.beta_part <= 1e-8
        assert fit.alpha == pytest.approx(-1.3, abs=1e-10)


class TestQuasiConstantCurvature:
    def test_unit_sphere(self):
        frame = ChartFrame(sphere_factor(), [(1.2, 0.4)])
        qe_fits = fit_quasi_einstein(frame.metric, frame.ricci)
        qcc = check_quasi_constant_curvature(frame.metric, frame.riemann, qe_fits)[0]
        assert qcc.passed
        assert qcc.a == pytest.approx(1.0, abs=1e-9)
        assert qcc.b == pytest.approx(0.0, abs=1e-9)
        assert qcc.residual <= 1e-9

    def test_flat_space(self):
        g, r = [np.eye(4)], [np.zeros((4, 4, 4, 4))]
        qcc = check_quasi_constant_curvature(g, r, contracted_fits(g, r))[0]
        assert qcc.passed
        assert qcc.a == pytest.approx(0.0, abs=1e-14)
        assert qcc.b == pytest.approx(0.0, abs=1e-14)

    def test_planted_coefficients(self):
        from seqwarp.classify import _qcc_basis

        g = np.eye(4)
        a_form = np.array([1.0, 0.0, 0.0, 0.0])
        t1, t2 = _qcc_basis(g, a_form)
        r = [2.0 * t1 + 0.5 * t2]
        qcc = check_quasi_constant_curvature([g], r, contracted_fits([g], r))[0]
        assert qcc.passed
        assert qcc.a == pytest.approx(2.0, abs=1e-10)
        assert qcc.b == pytest.approx(0.5, abs=1e-10)
        assert qcc.residual <= 1e-10

    def test_symmetry_precondition_enforced(self):
        bad = np.zeros((3, 3, 3, 3))
        bad[0, 1, 0, 1] = 1.0  # no antisymmetric partner entries
        with pytest.raises(GeometryError, match="symmetries"):
            check_quasi_constant_curvature([np.eye(3)], [bad], contracted_fits([np.eye(3)], [bad]))

    def test_failed_quasi_einstein_fit_has_no_curvature_fit(self):
        g = np.eye(3)
        r = np.zeros((3, 3, 3, 3))
        r[0, 1, 0, 1] = r[1, 0, 1, 0] = 2.0
        r[0, 1, 1, 0] = r[1, 0, 0, 1] = -2.0
        # a Ricci tensor with three distinct eigenvalues admits no rank-one fit
        (qe,) = fit_quasi_einstein([g], [np.diag([1.0, 2.0, 3.0])])
        assert not qe.succeeded
        (qcc,) = check_quasi_constant_curvature([g], [r], [qe])
        assert not qcc.passed
        assert (qcc.a, qcc.b, qcc.A) == (None, None, None)
        assert qcc.residual == 2.0
        assert qcc.reason == "Ricci contraction admits no rank-one decomposition"

    def test_one_quasi_einstein_fit_per_sample(self):
        g, r = np.array([np.eye(3)] * 2), np.zeros((2, 3, 3, 3, 3))
        qe_fits = contracted_fits(g, r)
        for given in (qe_fits[:1], qe_fits * 2, []):
            message = f"expected 2 quasi-Einstein fits, got {len(given)}"
            with pytest.raises(ValueError, match=message):
                check_quasi_constant_curvature(g, r, given)

    @settings(max_examples=40, deadline=None)
    @given(
        dim=st.integers(min_value=3, max_value=5),
        a=st.floats(min_value=-2.0, max_value=2.0),
        b=st.one_of(
            st.floats(min_value=0.1, max_value=2.0),
            st.floats(min_value=-2.0, max_value=-0.1),
        ),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
    )
    def test_qcc_implies_qe(self, dim, a, b, seed):
        from seqwarp.classify import _qcc_basis

        rng = np.random.default_rng(seed)
        g = random_spd(rng, dim)
        u = rng.normal(size=dim)
        u = u / math.sqrt(u @ g @ u)
        t1, t2 = _qcc_basis(g, g @ u)
        r = [a * t1 + b * t2]
        qe_fits = contracted_fits([g], r)
        # the Ricci contraction of a two-coefficient tensor fits
        assert qe_fits[0].succeeded
        qcc = check_quasi_constant_curvature([g], r, qe_fits)[0]
        assert qcc.passed
        assert qcc.a == pytest.approx(a, abs=1e-8)
        assert qcc.b == pytest.approx(b, abs=1e-8)


class TestProposition1:
    def test_planted_product_of_spheres(self):
        product = SequentialWarpedProduct(
            sphere_factor("s1", "theta1", "phi1"),
            sphere_factor("s2", "theta2", "phi2"),
            line_factor("l", "w"),
            parse("1", []),
            parse("1", []),
        )
        point = np.array([1.0, 0.3, 0.8, 5.2, 0.4])
        frame = ChartFrame(flatten_to_chart(product), [point])
        fit = fit_quasi_einstein(frame.metric, frame.ricci)[0]
        assert fit.verdict == "quasi-einstein"
        assert fit.alpha == pytest.approx(1.0, abs=1e-10)
        assert fit.beta == pytest.approx(-1.0, abs=1e-10)
        residuals = proposition1_residuals(
            WarpedFrame(product, [point]), (fit.alpha, fit.beta, fit.U)
        )
        for residual in residuals:
            assert residual.shape == (1,) and residual[0] <= 1e-6
        # second factor carries no component of U here
        s2 = product.block_slices[1]
        u2, g2 = fit.U[s2], ChartFrame(product.m2, [point[s2]]).metric[0]
        assert math.sqrt(abs(u2 @ g2 @ u2)) <= 1e-9

    def test_trivial_flat_zero(self):
        product = SequentialWarpedProduct(
            line_factor("a", "x"),
            line_factor("b", "u"),
            line_factor("c", "v"),
            parse("1", []),
            parse("1", []),
        )
        frame = WarpedFrame(product, np.zeros((1, 3)))
        residuals = proposition1_residuals(frame, (0.0, 0.0, np.zeros(3)))
        assert all(residual[0] == 0.0 for residual in residuals)


def circle_lambda_product() -> SequentialWarpedProduct:
    circle = factor("circle", ["x"], [["1"]], periods={"x": TWO_PI})
    torus = factor(
        "torus",
        ["u1", "u2"],
        [["1", "0"], ["0", "1"]],
        periods={"u1": TWO_PI, "u2": TWO_PI},
    )
    return SequentialWarpedProduct(
        circle, torus, line_factor("l", "v"), parse("2 + sin(x)", ["x"]), parse("1", [])
    )


class TestLambdaNu:
    def test_circle_value(self):
        product = circle_lambda_product()
        point = np.array([0.0, 0.3, 0.6, 0.1])
        assert lambda_at(WarpedFrame(product, [point]), 1.0)[0] == pytest.approx(5.0, abs=1e-14)

    def test_constant_warping_exact(self):
        product = SequentialWarpedProduct(
            line_factor("a", "x"),
            line_factor("b", "u"),
            line_factor("c", "v"),
            parse("3", []),
            parse("2", []),
        )
        point = np.array([0.7, -0.4, 0.2])
        alpha = 1.25
        frame = WarpedFrame(product, [point])
        assert lambda_at(frame, alpha)[0] == alpha * 9.0
        assert nu_at(frame, alpha)[0] == alpha * 4.0


class TestTorusQuadrature:
    def test_divergence_identity_components(self):
        circle = factor("circle", ["x"], [["1"]], periods={"x": TWO_PI})
        phi = parse("sin(x)", ["x"])
        nodes = np.arange(256) * (TWO_PI / 256)
        mean_f_lap = np.mean([math.sin(x) * -math.sin(x) for x in nodes])
        mean_grad = np.mean([math.cos(x) ** 2 for x in nodes])
        assert mean_f_lap == pytest.approx(-0.5, abs=1e-12)
        assert mean_grad == pytest.approx(0.5, abs=1e-12)
        assert torus_divergence_residual(circle, phi, 256) <= 1e-12

    def test_average_identity_on_circle(self):
        product = circle_lambda_product()
        for nodes in (64, 256):
            rep = torus_average_identity(product, 1.0, nodes, "lambda")
            assert rep.passed and rep.max_residual <= 1e-10

    def test_constant_warping_zero_residual(self):
        product = SequentialWarpedProduct(
            factor("circle", ["x"], [["1"]], periods={"x": TWO_PI}),
            line_factor("b", "u"),
            line_factor("c", "v"),
            parse("2", []),
            parse("1", []),
        )
        rep = torus_average_identity(product, 0.7, 64, "lambda")
        assert rep.max_residual <= 1e-12  # pure mean-accumulation rounding

    def test_non_periodic_rejected(self):
        product = SequentialWarpedProduct(
            line_factor("a", "x"),
            line_factor("b", "u"),
            line_factor("c", "v"),
            parse("1", []),
            parse("1", []),
        )
        with pytest.raises(GeometryError, match="periodic"):
            torus_average_identity(product, 1.0, 16, "lambda")


def torus_1p1_product() -> SequentialWarpedProduct:
    """Circle x circle with a round-sphere fiber: both torus averages apply."""
    return SequentialWarpedProduct(
        factor("circle_x", ["x"], [["1"]], periods={"x": TWO_PI}),
        factor("circle_u", ["u"], [["1"]], periods={"u": TWO_PI}),
        sphere_factor(),
        parse("2 + sin(x)", ["x"]),
        parse("(2 + sin(x))*(2 + cos(u))", ["x", "u"]),
    )


def skew_torus() -> FactorManifold:
    """A 2-torus with a non-diagonal, position-dependent metric."""
    return factor(
        "skew_torus",
        ["x", "u"],
        [["2 + sin(x)", "0.3*cos(x + u)"], ["0.3*cos(x + u)", "2 + cos(u)"]],
        periods={"x": TWO_PI, "u": TWO_PI},
    )


def pinched_torus(column: int, nodes: int) -> FactorManifold:
    """A 2-torus whose metric, diag(1, 1 - cos(x - x_c)), mentions x only and
    is degenerate on the grid column x_c = column * 2 pi / nodes only."""
    x_c = column * (TWO_PI / nodes)
    return factor(
        "pinched",
        ["x", "u"],
        [["1", "0"], ["0", f"1 - cos(x - {x_c!r})"]],
        periods={"x": TWO_PI, "u": TWO_PI},
    )


def per_node_means(manifold, nodes, fns):
    """The quadrature as one ChartFrame per node, which the batched blocks replaced."""
    sums = None
    weight_total = 0.0
    for row in classify._torus_grid(manifold, nodes):
        frame = ChartFrame(manifold, [row])
        weight = math.sqrt(abs(frame.det[0]))
        values = fns(frame)
        if sums is None:
            sums = [0.0] * len(values)
        for i, v in enumerate(values):
            sums[i] += weight * v
        weight_total += weight
    return [s / weight_total for s in sums]


def per_node_average(product, alpha, nodes, field_name):
    if field_name == "lambda":
        manifold, phi, fiber_dim = product.m1, product.f, product.m2.dim
    else:
        manifold, phi, fiber_dim = inner_chart(product), product.h, product.m3.dim

    def fields(frame):
        value, dphi = (jet[0] for jet in frame.field_jets(phi)[:2])
        grad_norm2 = float(dphi @ (frame.inverse[0] @ dphi))
        lap = frame.laplacian(phi)[0]
        lam = alpha * value**2 + value * lap + (fiber_dim - 1) * grad_norm2
        return (lam, value**2, grad_norm2)

    mean_field, mean_sq, mean_grad = per_node_means(manifold, nodes, fields)
    rhs = alpha * mean_sq + (fiber_dim - 2) * mean_grad
    return abs(mean_field - rhs), mean_field, rhs


class TestBatchedQuadrature:
    """The blocked quadrature reproduces the per-node ChartFrame loop bit for bit."""

    @pytest.mark.parametrize("field_name,nodes", [("lambda", 128), ("nu", 64), ("nu", 37)])
    def test_average_identity_matches_per_node_loop(self, field_name, nodes):
        # 64^2 nodes fill four whole blocks; 37^2 = 1369 ends in a partial one
        product = torus_1p1_product()
        rep = torus_average_identity(product, 0.7, nodes, field_name)
        residual, mean_field, rhs = per_node_average(product, 0.7, nodes, field_name)
        assert rep.points == (nodes if field_name == "lambda" else nodes**2)
        assert rep.max_residual == residual
        assert rep.details["mean_field"] == mean_field
        assert rep.details["averaged_rhs"] == rhs

    @pytest.mark.parametrize("nodes", [37, 40])
    def test_divergence_residual_matches_per_node_loop(self, nodes):
        manifold = skew_torus()
        phi = parse("sin(x)*cos(u) + cos(x)", ["x", "u"])

        def fields(frame):
            value, dphi = (jet[0] for jet in frame.field_jets(phi)[:2])
            grad = frame.inverse[0] @ dphi
            return (value * frame.laplacian(phi)[0] + float(dphi @ grad),)

        (mean,) = per_node_means(manifold, nodes, fields)
        assert torus_divergence_residual(manifold, phi, nodes) == abs(mean)

    def test_degenerate_node_in_a_later_block(self):
        # g_uu vanishes on the grid column x = x30 only; its first node,
        # 30 * 37 = 1110, lies in the second block
        x30 = 30 * (TWO_PI / 37)
        where = r"at node 1110 \[.*\] of the 'pinched' torus grid"
        with pytest.raises(DegenerateMetricError, match=where) as info:
            torus_divergence_residual(pinched_torus(30, 37), parse("sin(u)", ["u"]), 37)
        assert info.value.point == (x30, 0.0)

    @pytest.mark.parametrize("below", ["0", "0*log(4.5 - x)"])
    def test_earlier_row_of_a_mirrored_entry_names_its_node(self, below):
        # g_xx < 0 first at x = 6 * 2 pi / 16 (node 96); log(4.5 - x) fails
        # later, which re-validates the rows before it
        manifold = factor(
            "tor", ["x", "u"], [["2 + 3*cos(x)", "0"], [below, "1"]],
            periods={"x": TWO_PI, "u": TWO_PI},
        )
        where = r"at node 96 \[2.356194490192345, 0.0\] of the 'tor' torus grid$"
        with pytest.raises(SignatureError, match=where):
            torus_divergence_residual(manifold, parse("sin(u)", ["u"]), 16)

    def test_nonpositive_warping_names_node(self):
        product = SequentialWarpedProduct(
            factor("circle", ["x"], [["1"]], periods={"x": TWO_PI}),
            line_factor("b", "u"),
            line_factor("c", "v"),
            parse("0.5 + sin(x)", ["x"]),
            parse("1", []),
        )
        # 0.5 + sin(x) < 0 first at x = 75 * 2 pi / 128
        with pytest.raises(PositivityError, match=r"inner warping is .* at node 75 "):
            torus_average_identity(product, 1.0, 128, "lambda")

    def test_nu_checks_the_inner_warping(self):
        product = SequentialWarpedProduct(
            factor("circle_x", ["x"], [["1"]], periods={"x": TWO_PI}),
            factor("circle_u", ["u"], [["1"]], periods={"u": TWO_PI}),
            line_factor("c", "v"),
            parse("0.5 + sin(x)", ["x"]),
            parse("2 + cos(u)", ["u"]),
        )
        with pytest.raises(PositivityError, match="inner warping"):
            torus_average_identity(product, 1.0, 16, "nu")

    def test_domain_error_names_grid_node(self):
        product = SequentialWarpedProduct(
            factor("circle", ["x"], [["1"]], periods={"x": TWO_PI}),
            line_factor("b", "u"),
            line_factor("c", "v"),
            parse("2 + log(0.5 + sin(x))", ["x"]),
            parse("1", []),
        )
        with pytest.raises(DomainError, match=r"log of non-positive .* at node 75 "):
            torus_average_identity(product, 1.0, 128, "lambda")


    def test_block_runs_its_metric_rows_then_its_fields(self, monkeypatch):
        """The nu chart's metric mentions only x: each block runs the metric
        once per distinct x (28 in nodes 0-1023, 10 in 1024-1368), then its
        field and warpings at every node, and drops both runs; a metric that
        mentions every coordinate runs at every node, as the fields do."""
        from seqwarp.jets import JetProgram

        runs = []
        real_run = JetProgram.run

        def spy(program, points):
            runs.append(np.shape(points))
            return real_run(program, points)

        blocks = []
        real_init = classify._GridBlock.__init__

        def keeping(self, *args):
            blocks.append(self)
            real_init(self, *args)

        monkeypatch.setattr(JetProgram, "run", spy)
        monkeypatch.setattr(classify._GridBlock, "__init__", keeping)
        torus_average_identity(torus_1p1_product(), 0.7, 37, "nu")
        assert runs == [(28, 2), (1024, 2), (10, 2), (345, 2)]
        assert [len(block.rows.point) for block in blocks] == [28, 10]
        assert not any("_fields_run" in vars(f) for b in blocks for f in (b, b.rows))
        # a metric that mentions every coordinate has one row per node
        runs.clear()
        torus_divergence_residual(skew_torus(), parse("sin(x)*cos(u)", ["x", "u"]), 37)
        assert runs == [(1024, 2), (1024, 2), (345, 2), (345, 2)]

    @pytest.mark.parametrize("chart", ["nu_chart", "skew_torus", "flat_torus"])
    def test_means_match_per_node_loop_whatever_the_metric_mentions(self, chart):
        # the metric mentions x only, both coordinates, or neither
        manifold = {
            "nu_chart": lambda: inner_chart(torus_1p1_product()),
            "skew_torus": skew_torus,
            "flat_torus": lambda: factor(
                "flat_torus", ["x", "u"], [["1", "0"], ["0", "1"]],
                periods={"x": TWO_PI, "u": TWO_PI},
            ),
        }[chart]()
        phi = parse("(2 + sin(x))*(2 + cos(u)) + sin(x + u)", ["x", "u"])

        def fields(frame):
            value = frame.field_jets(phi)[0][0]
            return (value, frame.laplacian(phi)[0], frame.grad_norm2(phi)[0])

        means = classify._volume_means(
            manifold, classify._torus_grid(manifold, 37), phi, (), lambda *block: block
        )
        assert means == per_node_means(manifold, 37, fields)

    def test_field_failure_in_an_earlier_block_than_a_metric_failure(self):
        # the metric is degenerate on the column x = x30 only, first at node
        # 1110 in the second block; the field leaves its domain at node 0
        with pytest.raises(DomainError, match=r"log of non-positive .* at node 0 \[0\.0, 0\.0\] "):
            torus_divergence_residual(pinched_torus(30, 37), parse("log(u - 0.5)", ["u"]), 37)

    def test_metric_failure_after_a_field_failure_in_one_block(self):
        # 16^2 nodes are one block: the metric is degenerate first at node
        # 10 * 16 = 160, the field leaves its domain at node 0
        with pytest.raises(DegenerateMetricError) as info:
            torus_divergence_residual(pinched_torus(10, 16), parse("log(u - 0.5)", ["u"]), 16)
        assert info.value.point == (10 * (TWO_PI / 16), 0.0)

    @pytest.mark.parametrize("nodes", [0, -3, 2.5, True, "8", None])
    def test_nodes_must_be_a_positive_integer(self, nodes):
        product = torus_1p1_product()
        for call in (
            lambda: torus_average_identity(product, 0.7, nodes, "nu"),
            lambda: torus_divergence_residual(product.m1, product.f, nodes),
        ):
            with pytest.raises(ValueError, match=r"^nodes must be an integer >= 1, got "):
                call()

    def test_nodes_may_be_a_numpy_integer(self):
        product = torus_1p1_product()
        rep = torus_average_identity(product, 0.7, np.int64(16), "nu")
        assert rep == torus_average_identity(product, 0.7, 16, "nu")
        assert torus_divergence_residual(product.m1, product.f, np.int32(16)) == (
            torus_divergence_residual(product.m1, product.f, 16)
        )

    def test_grid_blocks_are_freed_by_reference_counting(self, monkeypatch):
        """A block's frame holds no reference cycle, so it and its arrays go
        when the next block replaces it, without the cycle collector."""
        import gc
        import weakref

        from seqwarp import classify

        blocks = []
        real_init = classify._GridBlock.__init__

        def tracking(self, *args):
            blocks.append(weakref.ref(self))
            real_init(self, *args)

        monkeypatch.setattr(classify._GridBlock, "__init__", tracking)
        gc.disable()
        try:
            torus_average_identity(torus_1p1_product(), 0.7, 37, "nu")
            assert len(blocks) == 2
            assert all(ref() is None for ref in blocks)
        finally:
            gc.enable()


class TestConditions:
    def test_constant_warpings_reduce_to_zero(self):
        product = SequentialWarpedProduct(
            line_factor("a", "x"),
            line_factor("b", "u"),
            line_factor("c", "v"),
            parse("2", []),
            parse("3", []),
        )
        point = np.array([0.3, 0.1, -0.2])
        frame = WarpedFrame(product, [point])
        res1, res2 = condition_residuals(frame, (1.0, 0.5, np.zeros(3)), lam=4.0)
        assert res1[0] == 0.0
        assert res2[0] == 0.0

    def test_circle_reduction_to_laplacian_term(self):
        # with the outer warping constant, the first condition's residual is
        # exactly (2 m2 / f) d(Lap f) in the base direction
        product = circle_lambda_product()
        x = 0.7
        point = np.array([x, 0.2, 0.4, 0.0])
        frame = WarpedFrame(product, [point])
        lam = lambda_at(frame, 1.0)[0]
        res1, _ = condition_residuals(frame, (1.0, 0.0, np.zeros(4)), lam)
        expected = abs((2.0 * 2 / (2.0 + math.sin(x))) * (-math.cos(x)))
        assert res1[0] == pytest.approx(expected, rel=1e-12)
        assert res1[0] > DEFAULT_FIT_TOL  # condition not satisfied: it is a hypothesis

    def test_contrapositive_on_circle(self, rng):
        # where the lambda field is non-constant the first condition must fail
        product = circle_lambda_product()
        for x in (0.3, 1.2, 2.5):
            point = np.array([x, 0.1, 0.2, 0.0])
            frame = WarpedFrame(product, [point])
            lam = lambda_at(frame, 1.0)[0]
            dlam = abs(
                2.0 * (2.0 - 2.0 * math.sin(x)) * math.cos(x) / 2.0
            )  # (2 - 2 sin x) cos x
            res1, _ = condition_residuals(frame, (1.0, 0.0, np.zeros(4)), lam)
            if dlam > 1e-6:
                assert res1[0] > 1e-6


class TestTheorem2:
    def constant_product(self):
        return SequentialWarpedProduct(
            sphere_factor("s1", "a1", "b1"),
            sphere_factor("s2", "a2", "b2"),
            line_factor("l", "w"),
            parse("2", []),
            parse("3", []),
        )

    def test_constant_warpings_pass_all(self):
        product = self.constant_product()
        points = [np.array([1.0, 0.2, 0.9, 0.3, 0.0]), np.array([1.4, 0.5, 1.2, 0.7, 0.4])]
        first = WarpedFrame(product, [points[0]])
        lam, nu = lambda_at(first, 1.0)[0], nu_at(first, 1.0)[0]
        reports = theorem2_conditions(WarpedFrame(product, points), (1.0, 0.5, None), lam, nu)
        assert [r.name for r in reports] == ["theorem2_i", "theorem2_ii", "theorem2_iii"]
        for rep in reports:
            assert rep.passed  # conclusions hold: both gradients vanish

    def test_sign_changing_laplacian_voids_first_hypothesis(self):
        circle = factor("circle", ["x"], [["1"]], periods={"x": TWO_PI})
        product = SequentialWarpedProduct(
            circle,
            line_factor("b", "u"),
            line_factor("c", "v"),
            parse("1", []),
            parse("2 + sin(x)", ["x"]),
        )
        points = [np.array([x, 0.0, 0.0]) for x in (0.5, math.pi + 0.5)]
        reports = theorem2_conditions(WarpedFrame(product, points), (1.0, 1.0, None), 1.0, 1.0)
        assert reports[0].details["hypothesis_holds"] is False
        assert reports[0].passed

    def test_unavailable_decomposition_voids_everything(self):
        product = self.constant_product()
        frame = WarpedFrame(product, [np.array([1.0, 0.2, 0.9, 0.3, 0.0])])
        reports = theorem2_conditions(frame, None, 1.0, 1.0)
        assert all(not r.details["hypothesis_holds"] and r.passed for r in reports)


def test_identity_report_invariant():
    rep = IdentityReport.from_residual("thing", 2.0, 1.0)
    assert not rep.passed
    rep = IdentityReport.from_residual("thing", 0.5, 1.0)
    assert rep.passed


def test_fits_reject_input_that_is_not_finite():
    g = np.eye(3)
    ric = np.zeros((3, 3))
    ric[0, 0] = np.inf
    with pytest.raises(GeometryError, match="quasi-Einstein fit input .* not finite"):
        fit_quasi_einstein([g], [ric])
    einstein = fit_quasi_einstein([g], [np.zeros((3, 3))])
    with pytest.raises(GeometryError, match="curvature fit input .* not finite"):
        check_quasi_constant_curvature([g], [np.full((3, 3, 3, 3), np.nan)], einstein)
    # finite input whose g (x) g basis overflows: a flat metric near the float limit
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(GeometryError, match="curvature basis .* not finite"):
            check_quasi_constant_curvature([1e200 * np.eye(3)], [np.zeros((3, 3, 3, 3))], einstein)
