"""Closed-form block geometry against the flattened-chart oracle."""

import math

import numpy as np
import pytest

from conftest import halfplane_factor, line_factor, sphere_factor
from seqwarp import (
    BlockVector,
    PositivityError,
    SequentialWarpedProduct,
    WarpedFrame,
    flatten_to_chart,
    inner_chart,
)
from seqwarp.chart import ChartFrame, sample_box
from seqwarp.cli import catalog_names
from seqwarp.expressions import evaluate, parse
from seqwarp.warped import CoordinateCollisionError
from test_stacked import load


def exp_warp_product() -> SequentialWarpedProduct:
    return SequentialWarpedProduct(
        line_factor("base", "x"),
        line_factor("mid", "u"),
        line_factor("fib", "v"),
        parse("exp(x)", ["x"]),
        parse("exp(x)", ["x", "u"]),
    )


def trivially_warped(m1, m2, m3) -> SequentialWarpedProduct:
    return SequentialWarpedProduct(m1, m2, m3, parse("1", []), parse("1", []))


def sweep_points(product, boxes, count, seed):
    rng = np.random.default_rng(seed)
    return sample_box(boxes, product.coords, count, rng)


class TestConstruction:
    def test_coordinate_collision(self):
        with pytest.raises(CoordinateCollisionError):
            SequentialWarpedProduct(
                line_factor("a", "x"),
                line_factor("b", "x"),
                line_factor("c", "v"),
                parse("1", []),
                parse("1", []),
            )

    def test_warping_variable_scope(self):
        with pytest.raises(Exception, match="depends on"):
            SequentialWarpedProduct(
                line_factor("a", "x"),
                line_factor("b", "u"),
                line_factor("c", "v"),
                parse("v", ["v"]),
                parse("1", []),
            )

    def test_positivity_enforced(self):
        product = SequentialWarpedProduct(
            line_factor("a", "x"),
            line_factor("b", "u"),
            line_factor("c", "v"),
            parse("x", ["x"]),
            parse("1", []),
        )
        with pytest.raises(PositivityError):
            WarpedFrame(product, np.array([[-0.5, 0.0, 0.0]])).f_value


class TestAmbientMetric:
    def test_plain_product(self):
        product = trivially_warped(
            line_factor("a", "x"), line_factor("b", "u"), line_factor("c", "v")
        )
        metric = WarpedFrame(product, np.zeros((1, 3))).ambient_metric[0]
        assert metric.tolist() == np.eye(3).tolist()

    def test_exponential_scaling(self):
        product = exp_warp_product()
        g = WarpedFrame(product, np.array([[1.0, 0.0, 0.0]])).ambient_metric[0]
        e2 = math.e**2
        assert np.diag(g) == pytest.approx([1.0, e2, e2], rel=1e-14)

    def test_structure_matches_flattened_chart(self):
        product = SequentialWarpedProduct(
            line_factor("a", "x"),
            line_factor("b", "u"),
            sphere_factor(),
            parse("exp(x)", ["x"]),
            parse("2 + sin(x)*sin(u)", ["x", "u"]),
        )
        boxes = {"x": (-1, 1), "u": (-1, 1), "theta": (0.4, 2.7), "phi": (0.1, 6.2)}
        chart = flatten_to_chart(product)
        for point in sweep_points(product, boxes, 20, 7):
            direct = WarpedFrame(product, [point]).ambient_metric[0]
            pm = dict(zip(chart.coords, point))
            via_chart = np.array(
                [[evaluate(chart.metric[i][j], pm) for j in range(4)] for i in range(4)]
            )
            assert direct == pytest.approx(via_chart, rel=1e-13, abs=1e-13)
            assert np.array_equal(direct, direct.T)


class TestFlatten:
    def test_trivial_case_is_euclidean(self):
        product = trivially_warped(
            line_factor("a", "x"), line_factor("b", "u"), line_factor("c", "v")
        )
        frame = ChartFrame(flatten_to_chart(product), np.array([[0.3, -0.5, 0.9]]))
        assert frame.metric[0].tolist() == np.eye(3).tolist()
        assert not frame.riemann.any()

    def test_exp_warp_metric(self):
        chart = flatten_to_chart(exp_warp_product())
        pm = dict(zip(chart.coords, [0.5, 0.0, 0.0]))
        assert evaluate(chart.metric[1][1], pm) == pytest.approx(math.e, rel=1e-14)
        assert evaluate(chart.metric[2][2], pm) == pytest.approx(math.e, rel=1e-14)

    def test_scalar_equivalence(self):
        product = exp_warp_product()
        for point in sweep_points(product, {"x": (-0.75, 0.75), "u": (-1, 1), "v": (-1, 1)}, 10, 3):
            oracle = ChartFrame(flatten_to_chart(product), [point]).scalar[0]
            assert abs(WarpedFrame(product, [point]).scalar[0] - oracle) <= 1e-7 * (1 + abs(oracle))


class TestConnection:
    def test_mixed_block_log_derivative(self):
        product = exp_warp_product()
        point = np.array([0.3, 0.1, -0.2])
        dx = BlockVector.basis(product, 0)
        du = BlockVector.basis(product, 1)
        out = WarpedFrame(product, [point]).connection(dx, du)
        # X1(ln f) Y2 with f = exp(x): coefficient 1 on the u direction
        assert out.ambient[0] == pytest.approx([0.0, 1.0, 0.0], abs=1e-14)

    def test_fiber_pair_pulls_back_gradient(self):
        product = exp_warp_product()
        x = 0.4
        du = BlockVector.basis(product, 1)
        out = WarpedFrame(product, np.array([[x, 0.0, 0.0]])).connection(du, du)
        assert out.ambient[0] == pytest.approx([-math.exp(2 * x), 0.0, 0.0], rel=1e-12)

    def test_trivial_warping_kills_mixed_cases(self):
        product = trivially_warped(
            sphere_factor("s1", "a1", "b1"), line_factor("b", "u"), line_factor("c", "v")
        )
        point = np.array([1.1, 0.4, 0.2, -0.3])
        for i in range(2):
            for j in (2, 3):
                out = WarpedFrame(product, [point]).connection(
                    BlockVector.basis(product, i), BlockVector.basis(product, j)
                )
                assert np.max(np.abs(out.ambient)) == 0.0

    def test_oracle_equivalence(self):
        product = exp_warp_product()
        boxes = {"x": (-0.75, 0.75), "u": (-1, 1), "v": (-1, 1)}
        for point in sweep_points(product, boxes, 5, 11):
            oracle = ChartFrame(flatten_to_chart(product), [point])
            for a in range(3):
                for b in range(3):
                    closed = WarpedFrame(product, [point]).connection(
                        BlockVector.basis(product, a), BlockVector.basis(product, b)
                    )
                    assert closed.ambient[0] == pytest.approx(
                        oracle.christoffel[0][:, a, b], abs=1e-12
                    )


class TestCurvature:
    def test_cross_block_slot_vanishes(self):
        # R(X1, Y2)Z3 = 0 whatever the warpings
        product = SequentialWarpedProduct(
            line_factor("a", "x"),
            line_factor("b", "u"),
            sphere_factor(),
            parse("exp(x)", ["x"]),
            parse("exp(x)*(2 + sin(u))", ["x", "u"]),
        )
        point = np.array([0.2, -0.4, 1.2, 0.5])
        out = WarpedFrame(product, [point]).curvature(
            BlockVector.basis(product, 0),
            BlockVector.basis(product, 1),
            BlockVector.basis(product, 2),
        )
        assert np.max(np.abs(out.ambient)) == 0.0

    def test_flat_trivial_warping_vanishes(self):
        product = trivially_warped(
            line_factor("a", "x"), line_factor("b", "u"), line_factor("c", "v")
        )
        point = np.zeros(3)
        for a in range(3):
            for b in range(3):
                for c in range(3):
                    out = WarpedFrame(product, [point]).curvature(
                        BlockVector.basis(product, a),
                        BlockVector.basis(product, b),
                        BlockVector.basis(product, c),
                    )
                    assert np.max(np.abs(out.ambient)) == 0.0

    def test_base_fiber_pair_value(self):
        # R(dx, du)du equals the oracle value, magnitude exp(2x)
        product = exp_warp_product()
        x = 0.3
        point = np.array([x, 0.0, 0.0])
        out = WarpedFrame(product, [point]).curvature(
            BlockVector.basis(product, 0),
            BlockVector.basis(product, 1),
            BlockVector.basis(product, 1),
        )
        oracle = ChartFrame(flatten_to_chart(product), [point]).riemann_up[0][:, 0, 1, 1]
        assert out.ambient[0] == pytest.approx(oracle, rel=1e-12)
        assert abs(out.ambient[0][0]) == pytest.approx(math.exp(2 * x), rel=1e-12)

    def test_oracle_equivalence_all_triples(self):
        product = SequentialWarpedProduct(
            line_factor("a", "x"),
            line_factor("b", "u"),
            halfplane_factor(),
            parse("cosh(x)", ["x"]),
            parse("cosh(x)*(3 + cos(u))", ["x", "u"]),
        )
        boxes = {"x": (-1, 1), "u": (-1, 1), "p": (-1, 1), "q": (0.6, 2.4)}
        for point in sweep_points(product, boxes, 3, 23):
            oracle = ChartFrame(flatten_to_chart(product), [point])
            scale = 1.0 + np.max(np.abs(oracle.riemann_up))
            worst = 0.0
            for a in range(4):
                for b in range(4):
                    for c in range(4):
                        closed = WarpedFrame(product, [point]).curvature(
                            BlockVector.basis(product, a),
                            BlockVector.basis(product, b),
                            BlockVector.basis(product, c),
                        ).ambient[0]
                        worst = max(
                            worst,
                            float(np.max(np.abs(closed - oracle.riemann_up[0][:, a, b, c]))),
                        )
            assert worst / scale <= 1e-7


class TestRicci:
    def test_cross_blocks_exactly_zero(self):
        product = exp_warp_product()
        ric = WarpedFrame(product, np.array([[0.2, 0.4, -0.1]])).ricci[0]
        assert ric[0, 1] == 0.0 and ric[0, 2] == 0.0 and ric[1, 2] == 0.0

    def test_trivial_warping_block_diagonal(self):
        product = trivially_warped(
            sphere_factor("s1", "a1", "b1"),
            line_factor("b", "u"),
            halfplane_factor(),
        )
        point = np.array([1.2, 0.3, 0.7, 0.1, 1.4])
        frame = WarpedFrame(product, [point])
        expected = np.zeros((5, 5))
        expected[:2, :2] = frame.frame1.ricci[0]
        expected[3:, 3:] = frame.frame3.ricci[0]
        assert np.max(np.abs(frame.ricci[0] - expected)) <= 1e-12

    def test_oracle_equivalence(self):
        product = exp_warp_product()
        boxes = {"x": (-0.75, 0.75), "u": (-1, 1), "v": (-1, 1)}
        for point in sweep_points(product, boxes, 30, 5):
            oracle = ChartFrame(flatten_to_chart(product), [point]).ricci[0]
            closed = WarpedFrame(product, [point]).ricci[0]
            assert np.max(np.abs(closed - oracle)) <= 1e-7 * (1 + np.max(np.abs(oracle)))

    def test_hyperbolic_three_space(self):
        # f = h = exp(x) over three lines is hyperbolic 3-space: Ric = -2g
        product = exp_warp_product()
        point = np.array([0.4, 0.0, 0.0])
        frame = WarpedFrame(product, [point])
        assert frame.ricci[0] == pytest.approx(-2.0 * frame.ambient_metric[0], rel=1e-12)
        assert frame.scalar[0] == pytest.approx(-6.0, rel=1e-12)


class TestFactorScalars:
    def test_flat_trivial(self):
        product = trivially_warped(
            line_factor("a", "x"), line_factor("b", "u"), line_factor("c", "v")
        )
        frame = WarpedFrame(product, [np.zeros(3)])
        scalars = (frame.frame1.scalar, frame.frame2.scalar, frame.frame3.scalar)
        assert [s[0] for s in scalars] == [0.0, 0.0, 0.0]
        stated = frame.factor_scalars((0.0, 0.0, np.zeros(3)))
        assert [s[0] for s in stated] == [0.0, 0.0, 0.0]

    def test_sphere_fiber_scalar(self):
        product = trivially_warped(
            line_factor("a", "x"), line_factor("b", "u"), sphere_factor()
        )
        frame = WarpedFrame(product, np.array([[0.0, 0.0, 1.2, 0.3]]))
        assert frame.frame3.scalar[0] == pytest.approx(2.0, abs=1e-12)

    def test_inner_chart_carries_inner_warping(self):
        product = exp_warp_product()
        chart = inner_chart(product)
        pm = dict(zip(chart.coords, [0.5, 0.0]))
        assert evaluate(chart.metric[1][1], pm) == pytest.approx(math.e, rel=1e-14)

    def test_inner_chart_keeps_the_factor_periods(self):
        from seqwarp import factor

        circle = factor("circle", ["x"], [["1"]], periods={"x": 2.0 * math.pi})
        loop = factor("loop", ["u"], [["1"]], periods={"u": 3.0})
        for m2, periods in ((loop, (2.0 * math.pi, 3.0)), (line_factor("b", "u"), None)):
            product = trivially_warped(circle, m2, line_factor("c", "v"))
            assert inner_chart(product).periods == periods


class TestSpecExampleSweeps:
    def test_large_integer_exponent_in_metric(self):
        from seqwarp import factor

        chart = factor("poly", ["x"], [["1 + x^14"]])
        frame = ChartFrame(chart, [(0.5,)])
        assert frame.metric[0][0, 0] == pytest.approx(1.0 + 0.5**14, rel=1e-14)

    def test_catalog_ambient_metric_structure(self):
        # symmetric, block-diagonal, and equal to the flattened chart at
        # 20 random points of every bundled example
        from seqwarp.cli import catalog_names, catalog_spec
        from seqwarp.expressions import evaluate

        for name in catalog_names():
            spec = catalog_spec(name)
            product = spec.product
            chart = flatten_to_chart(product)
            dim = product.dim
            s1, s2, s3 = product.block_slices
            off_mask = np.ones((dim, dim), dtype=bool)
            for sl in (s1, s2, s3):
                off_mask[sl, sl] = False
            for point in spec.sample_points(20):
                direct = WarpedFrame(product, [point]).ambient_metric[0]
                assert np.array_equal(direct, direct.T), name
                assert not direct[off_mask].any(), name
                pm = dict(zip(chart.coords, point))
                via_chart = np.array(
                    [
                        [evaluate(chart.metric[i][j], pm) for j in range(dim)]
                        for i in range(dim)
                    ]
                )
                scale = 1.0 + np.max(np.abs(via_chart))
                assert np.max(np.abs(direct - via_chart)) <= 1e-13 * scale, name

    def test_constant_warping_reduction_absorbs_scales(self):
        # nonunit constants: warped metric blocks are rescaled factor
        # metrics, whose Ricci is scale-invariant
        product = SequentialWarpedProduct(
            sphere_factor("s1", "a1", "b1"),
            halfplane_factor(),
            line_factor("l", "w"),
            parse("2", []),
            parse("0.5", []),
        )
        point = np.array([1.1, 0.4, 0.3, 1.2, 0.0])
        frame = WarpedFrame(product, [point])
        oracle = ChartFrame(flatten_to_chart(product), [point])
        expected = np.zeros((5, 5))
        expected[:2, :2] = frame.frame1.ricci[0]
        expected[2:4, 2:4] = frame.frame2.ricci[0]
        assert np.max(np.abs(frame.ricci[0] - expected)) <= 1e-12
        assert np.max(np.abs(oracle.ricci[0] - expected)) <= 1e-12

    def test_off_diagonal_factor_metric_sweep(self):
        # nothing in the closed forms may assume diagonal factor metrics
        from seqwarp import factor

        skew = factor(
            "skew",
            ["r", "s"],
            [["2", "0.3*sin(r)"], ["0.3*sin(r)", "1.5 + r^2"]],
        )
        product = SequentialWarpedProduct(
            line_factor("a", "x"),
            line_factor("b", "u"),
            skew,
            parse("exp(x)", ["x"]),
            parse("2 + sin(x)", ["x", "u"]),
        )
        boxes = {"x": (-1, 1), "u": (-1, 1), "r": (-1, 1), "s": (-1, 1)}
        for point in sweep_points(product, boxes, 4, 31):
            oracle = ChartFrame(flatten_to_chart(product), [point])
            assert np.max(np.abs(WarpedFrame(product, [point]).ricci - oracle.ricci)) <= 1e-7 * (
                1 + np.max(np.abs(oracle.ricci))
            )
            scale = 1.0 + np.max(np.abs(oracle.riemann_up))
            worst = 0.0
            for a in range(4):
                for b in range(4):
                    for c in range(4):
                        closed = WarpedFrame(product, [point]).curvature(
                            BlockVector.basis(product, a),
                            BlockVector.basis(product, b),
                            BlockVector.basis(product, c),
                        ).ambient[0]
                        worst = max(
                            worst,
                            float(np.max(np.abs(closed - oracle.riemann_up[0][:, a, b, c]))),
                        )
            assert worst / scale <= 1e-7

    def test_multilinearity_with_general_block_vectors(self):
        # constant-component fields with parts in several blocks at once
        product = SequentialWarpedProduct(
            line_factor("a", "x"),
            line_factor("b", "u"),
            sphere_factor(),
            parse("exp(x)", ["x"]),
            parse("exp(x)*(2 + sin(u))", ["x", "u"]),
        )
        rng = np.random.default_rng(17)
        point = np.array([0.3, -0.5, 1.1, 0.7])
        oracle = ChartFrame(flatten_to_chart(product), [point])
        for _ in range(5):
            x, y, z = (rng.normal(size=4) for _ in range(3))
            conn = WarpedFrame(product, [point]).connection(
                BlockVector.from_ambient(product, x),
                BlockVector.from_ambient(product, y),
            ).ambient[0]
            expected = np.einsum("kab,a,b->k", oracle.christoffel[0], x, y)
            assert conn == pytest.approx(expected, abs=1e-11)
            curv = WarpedFrame(product, [point]).curvature(
                BlockVector.from_ambient(product, x),
                BlockVector.from_ambient(product, y),
                BlockVector.from_ambient(product, z),
            ).ambient[0]
            expected = np.einsum("labc,a,b,c->l", oracle.riemann_up[0], x, y, z)
            assert curv == pytest.approx(expected, abs=1e-10)


# ---------------------------------------------------------------------------
# Closed-form tensors
# ---------------------------------------------------------------------------


def mixed_outer_product() -> SequentialWarpedProduct:
    """Non-diagonal 2-dim factors and an h mixing M1 and M2, so the mixed
    M1-M2 block of the Hessian of h is nonzero."""
    from seqwarp import factor

    m1 = factor("m1", ["x", "y"], [["2", "0.3*sin(x)"], ["0.3*sin(x)", "1.5 + y^2"]])
    m2 = factor(
        "m2", ["u", "w"], [["1.5 + 0.2*cos(w)", "0.1*sin(u)"], ["0.1*sin(u)", "2 + 0.3*u^2"]]
    )
    m3 = factor("m3", ["r", "s"], [["2", "0.3*sin(r)"], ["0.3*sin(r)", "1.5 + r^2"]])
    return SequentialWarpedProduct(
        m1, m2, m3, parse("exp(0.3*x + 0.1*y)", ["x", "y"]), parse("2 + sin(x)*cos(u)", ["x", "u"])
    )


MIXED_BOXES = {c: (-1.0, 1.0) for c in ("x", "y", "u", "w", "r", "s")}


def reference_connection(frame: WarpedFrame, x: BlockVector, y: BlockVector) -> np.ndarray:
    """The per-block connection formula, written out term by term, at a
    frame's one sample."""
    fr1, fr2, fr3 = frame.frame1, frame.frame2, frame.frame3
    f, h = frame.f_value[0], frame.h_value[0]
    g2xy = float(x.x2 @ fr2.metric[0] @ y.x2)
    g3xy = float(x.x3 @ fr3.metric[0] @ y.x3)
    x_lnf = float(frame.df[0] @ x.x1) / f
    y_lnf = float(frame.df[0] @ y.x1) / f
    x_lnh = float(frame.dh[0] @ x.inner) / h
    y_lnh = float(frame.dh[0] @ y.inner) / h
    grad_h1, grad_h2 = frame.split_inner(frame.grad_h[0])
    out1 = (
        np.einsum("kij,i,j->k", fr1.christoffel[0], x.x1, y.x1)
        - f * g2xy * frame.grad_f[0]
        - h * g3xy * grad_h1
    )
    out2 = (
        np.einsum("kij,i,j->k", fr2.christoffel[0], x.x2, y.x2)
        + x_lnf * y.x2
        + y_lnf * x.x2
        - h * g3xy * grad_h2
    )
    out3 = np.einsum("kij,i,j->k", fr3.christoffel[0], x.x3, y.x3) + x_lnh * y.x3 + y_lnh * x.x3
    return np.concatenate([out1, out2, out3])


def reference_curvature(
    frame: WarpedFrame, x: BlockVector, y: BlockVector, z: BlockVector
) -> np.ndarray:
    """The per-block curvature formula R(X, Y)Z, written out term by term, at
    a frame's one sample."""
    f, h = frame.f_value[0], frame.h_value[0]
    g2, g3 = frame.frame2.metric[0], frame.frame3.metric[0]
    g2xz, g2yz = float(x.x2 @ g2 @ z.x2), float(y.x2 @ g2 @ z.x2)
    g3xz, g3yz = float(x.x3 @ g3 @ z.x3), float(y.x3 @ g3 @ z.x3)
    hess_f, hess_h = frame.hess_f[0], frame.hess_h[0]
    raised_f, raised_h = frame.raised_hess_f[0], frame.raised_hess_h[0]
    hfxz = float(x.x1 @ hess_f @ z.x1)
    hfyz = float(y.x1 @ hess_f @ z.x1)
    hh_xz = float(x.inner @ hess_h @ z.inner)
    hh_yz = float(y.inner @ hess_h @ z.inner)
    out1 = np.einsum("labc,a,b,c->l", frame.frame1.riemann_up[0], x.x1, y.x1, z.x1)
    out2 = np.einsum("labc,a,b,c->l", frame.frame2.riemann_up[0], x.x2, y.x2, z.x2)
    out3 = np.einsum("labc,a,b,c->l", frame.frame3.riemann_up[0], x.x3, y.x3, z.x3)
    out2 += frame.grad_f_norm2[0] * (g2xz * y.x2 - g2yz * x.x2)
    out2 += (hfxz / f) * y.x2 - (hfyz / f) * x.x2
    out1 += -f * g2yz * (raised_f @ x.x1) + f * g2xz * (raised_f @ y.x1)
    out3 += (hh_xz / h) * y.x3 - (hh_yz / h) * x.x3
    inner_corr = -h * g3yz * (raised_h @ x.inner) + h * g3xz * (raised_h @ y.inner)
    c1, c2 = frame.split_inner(inner_corr)
    out1 += c1
    out2 += c2
    out3 += frame.grad_h_norm2[0] * (g3xz * y.x3 - g3yz * x.x3)
    return np.concatenate([out1, out2, out3])


def normalized_gap(closed, oracle) -> float:
    return float(np.max(np.abs(closed - oracle))) / (1.0 + float(np.max(np.abs(oracle))))


class TestClosedTensors:
    def test_tensors_match_flat_chart_with_mixed_hessian(self):
        product = mixed_outer_product()
        for point in sweep_points(product, MIXED_BOXES, 4, 41):
            frame = WarpedFrame(product, [point])
            assert np.max(np.abs(frame.hess_h[0][:2, 2:])) > 1e-2  # the mixed block is live
            oracle = ChartFrame(flatten_to_chart(product), [point])
            assert normalized_gap(frame.christoffel, oracle.christoffel) <= 1e-10
            assert normalized_gap(frame.riemann_up, oracle.riemann_up) <= 1e-10

    def test_contractions_match_per_block_formulas(self):
        product = mixed_outer_product()
        rng = np.random.default_rng(5)
        for point in sweep_points(product, MIXED_BOXES, 3, 43):
            frame = WarpedFrame(product, [point])
            for _ in range(4):
                x, y, z = (BlockVector.from_ambient(product, rng.normal(size=6)) for _ in range(3))
                expected = reference_connection(frame, x, y)
                got = frame.connection(x, y).ambient[0]
                assert np.max(np.abs(got - expected)) <= 1e-12 * (1 + np.max(np.abs(expected)))
                expected = reference_curvature(frame, x, y, z)
                got = frame.curvature(x, y, z).ambient[0]
                assert np.max(np.abs(got - expected)) <= 1e-12 * (1 + np.max(np.abs(expected)))


GENERIC_OUTER_WARP = {
    "kind": "swp",
    "factors": [
        {"name": "line_x", "coords": ["x"], "metric": [["1"]]},
        {"name": "line_u", "coords": ["u"], "metric": [["1"]]},
        {"name": "line_w", "coords": ["w"], "metric": [["1"]]},
    ],
    "warpings": {"f": "exp(0.3*x)", "h": "2 + sin(x)*cos(u)"},
}


def _contraction_specs():
    from seqwarp.cli import catalog_names

    return list(catalog_names()) + [
        pytest.param(
            "generic_outer_warp",
            marks=pytest.mark.xfail(
                strict=True,
                reason="ROADMAP open item 1: the closed Ricci drops the M1-M2 cross block "
                "-(m3/h) H^h(X1, Y2), which the closed curvature keeps",
            ),
        )
    ]


@pytest.mark.parametrize("name", _contraction_specs())
def test_closed_curvature_contracts_to_closed_ricci(name):
    from seqwarp.cli import catalog_spec
    from seqwarp.specfile import spec_from_dict

    if name == "generic_outer_warp":
        spec = spec_from_dict(GENERIC_OUTER_WARP, name=name)
    else:
        spec = catalog_spec(name)
    for point in spec.sample_points(5):
        frame = WarpedFrame(spec.product, [point])
        contracted = np.einsum("iijk->jk", frame.riemann_up[0])
        assert normalized_gap(frame.ricci[0], contracted) <= 1e-10, point


@pytest.mark.parametrize("name", (*catalog_names(), "generic_outer_warp", "sweep_dim6"))
def test_closed_metric_is_the_oracle_metric_bit_for_bit(name):
    # f^2 and h^2 are the products f * f and h * h on both routes
    spec = load(name)
    points = spec.sample_points(30, 0)
    closed = WarpedFrame(spec.product, points).ambient_metric
    assert np.array_equal(closed, ChartFrame(flatten_to_chart(spec.product), points).metric)
