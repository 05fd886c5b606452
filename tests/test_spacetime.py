"""Lorentzian builders and theorem-condition evaluators."""

import math

import numpy as np
import pytest

from conftest import line_factor, sphere_factor
from seqwarp import factor
from seqwarp.chart import ChartFrame, SignatureError, sample_box, symmetry_residuals
from seqwarp.classify import QCCFit, QEFit, check_quasi_constant_curvature, fit_quasi_einstein
from seqwarp.expressions import parse
from seqwarp.spacetime import (
    GRWSpec,
    SSSTSpec,
    build_grw,
    build_ssst,
    grw_theorem_check,
    ssst_theorem_check,
    time_axis,
)
from seqwarp.warped import WarpedFrame, flatten_to_chart


# a sample without a fit: its quasi-Einstein and curvature fits failed
NO_QE = QEFit("neither", None, None, None, None, None, 1.0, float("inf"), (), "no fit")
NO_QCC = QCCFit(False, None, None, None, 1.0, "no fit")


def by_name(residuals) -> dict:
    return {r.name: r for r in residuals}


def passed(residual, i: int = 0) -> bool:
    """Whether sample ``i`` is within its tolerance."""
    tolerance = np.broadcast_to(residual.tolerance, residual.values.shape)
    return bool(residual.values[i] <= tolerance[i])


def gates(residual, i: int = 0) -> bool:
    """Whether the identity's premise held at sample ``i``."""
    return residual.over is None or bool(residual.over[i])


def assert_one_timelike_direction(product, points):
    """Exactly one negative eigenvalue at each point, and a negative
    time-time entry on the time axis."""
    metric = WarpedFrame(product, points).ambient_metric
    assert (np.sum(np.linalg.eigvalsh(metric) < 0, axis=1) == 1).all()
    assert (metric[:, time_axis(product), time_axis(product)] < 0).all()


def basic_static():
    return build_ssst(
        SSSTSpec(
            space1=line_factor("space1", "x"),
            space2=line_factor("space2", "y"),
            f=parse("1", []),
            h=parse("cosh(x)", ["x", "y"]),
        )
    )


def exponential_grw():
    return build_grw(
        GRWSpec(
            space2=sphere_factor(),
            space3=line_factor("l", "w"),
            f=parse("1", ["t"]),
            h=parse("exp(t)", ["t"]),
        )
    )


def radiation_grw():
    return build_grw(
        GRWSpec(
            space2=line_factor("su", "u"),
            space3=line_factor("sw", "w"),
            f=parse("sqrt(t)", ["t"]),
            h=parse("sqrt(t)", ["t"]),
        )
    )


class TestBuilders:
    def test_static_product_is_ricci_flat(self):
        product = build_ssst(
            SSSTSpec(
                space1=line_factor("a", "x"),
                space2=line_factor("b", "y"),
                f=parse("1", []),
                h=parse("1", []),
            )
        )
        frame = ChartFrame(flatten_to_chart(product), np.array([[0.3, -0.2, 0.9]]))
        assert not frame.ricci.any()

    def test_static_signature(self, rng):
        product = basic_static()
        points = sample_box(
            {"x": (-1, 1), "y": (-1, 1), "t": (-1, 1)}, product.coords, 20, rng
        )
        assert_one_timelike_direction(product, points)
        assert time_axis(product) == 2
        for point in points:
            eigs = np.linalg.eigvalsh(WarpedFrame(product, [point]).ambient_metric[0])
            assert int(np.sum(eigs < 0)) == 1
            assert eigs[0] < 0 < eigs[1]

    def test_grw_signature(self, rng):
        product = exponential_grw()
        points = sample_box(
            {"t": (0, 1), "theta": (0.4, 2.7), "phi": (0.2, 6.0), "w": (-1, 1)},
            product.coords,
            20,
            rng,
        )
        assert_one_timelike_direction(product, points)
        assert time_axis(product) == 0

    def test_grw_trivial_warpings_block_ricci(self):
        product = build_grw(
            GRWSpec(
                space2=sphere_factor(),
                space3=line_factor("l", "w"),
                f=parse("1", ["t"]),
                h=parse("1", ["t"]),
            )
        )
        point = np.array([0.2, 1.1, 0.5, 0.3])
        frame = ChartFrame(flatten_to_chart(product), [point])
        wf = WarpedFrame(product, [point])
        expected = np.zeros((4, 4))
        expected[1:3, 1:3] = wf.frame2.ricci[0]
        assert frame.ricci[0] == pytest.approx(expected, abs=1e-12)

    def test_grw_inner_warping_must_be_temporal(self):
        with pytest.raises(SignatureError):
            build_grw(
                GRWSpec(
                    space2=line_factor("su", "u"),
                    space3=line_factor("sw", "w"),
                    f=parse("2 + sin(u)", ["t", "u"]),
                    h=parse("1", []),
                )
            )

    def test_spatial_factor_signature_enforced(self):
        lorentz = factor("bad", ["z"], [["-1"]], signature="lorentzian")
        with pytest.raises(SignatureError):
            build_ssst(
                SSSTSpec(
                    space1=lorentz,
                    space2=line_factor("b", "y"),
                    f=parse("1", []),
                    h=parse("1", []),
                )
            )

    def test_lorentzian_bundle_symmetries(self, rng):
        for product, boxes in (
            (basic_static(), {"x": (-1, 1), "y": (-1, 1), "t": (-1, 1)}),
            (
                exponential_grw(),
                {"t": (0, 1), "theta": (0.4, 2.7), "phi": (0.2, 6.0), "w": (-1, 1)},
            ),
        ):
            chart = flatten_to_chart(product)
            for point in sample_box(boxes, product.coords, 5, rng):
                frame = ChartFrame(chart, [point])
                assert max(v[0] for v in symmetry_residuals(frame).values()) <= 1e-9

    def test_static_cross_block_time_ricci_vanishes(self, rng):
        # h independent of the second factor and constant inner warping
        product = basic_static()
        chart = flatten_to_chart(product)
        for point in sample_box(
            {"x": (-1, 1), "y": (-1, 1), "t": (-1, 1)}, product.coords, 10, rng
        ):
            ric = ChartFrame(chart, [point]).ricci[0]
            assert abs(ric[2, 0]) <= 1e-12 and abs(ric[2, 1]) <= 1e-12


class TestStaticTheorem:
    def test_time_time_identity_and_sign(self, rng):
        product = basic_static()
        for point in sample_box(
            {"x": (-1, 1), "y": (-1, 1), "t": (-1, 1)}, product.coords, 10, rng
        ):
            warped = WarpedFrame(product, [point])
            flat = ChartFrame(flatten_to_chart(product), [point])
            reports = by_name(ssst_theorem_check(warped, flat, [NO_QE], [NO_QCC]))
            d3 = reports["ssst_d3"]
            assert passed(d3) and d3.values[0] <= 1e-7
            assert d3.details["recorded_sign"][0] == 1
            assert d3.details["h_lap_h"][0] == pytest.approx(
                math.cosh(point[0]) ** 2, rel=1e-12
            )
            assert passed(reports["ssst_d1"]) and passed(reports["ssst_d2"])

    def test_fit_finds_spacelike_structure(self):
        # Ric = -g + dy (x) dy on this example
        product = basic_static()
        point = np.array([0.4, -0.3, 0.8])
        frame = ChartFrame(flatten_to_chart(product), [point])
        fit = fit_quasi_einstein(frame.metric, frame.ricci)[0]
        assert fit.verdict == "quasi-einstein"
        assert fit.alpha == pytest.approx(-1.0, abs=1e-10)
        assert fit.beta == pytest.approx(1.0, abs=1e-10)
        assert fit.unit_sign == 1
        # U is spacelike, so the time-part premise is not met: informational
        qcc = check_quasi_constant_curvature(frame.metric, frame.riemann, [fit])[0]
        reports = by_name(ssst_theorem_check(WarpedFrame(product, [point]), frame, [fit], [qcc]))
        assert not gates(reports["ssst_d4"])
        assert not gates(reports["ssst_condition_i"])
        assert not gates(reports["ssst_hessian_form_f"])

    def test_flat_static_vacuous_conditions(self):
        product = build_ssst(
            SSSTSpec(
                space1=line_factor("a", "x"),
                space2=line_factor("b", "y"),
                f=parse("1", []),
                h=parse("1", []),
            )
        )
        point = np.array([0.1, 0.2, 0.3])
        frame = ChartFrame(flatten_to_chart(product), [point])
        fit = fit_quasi_einstein(frame.metric, frame.ricci)[0]
        qcc = check_quasi_constant_curvature(frame.metric, frame.riemann, [fit])[0]
        assert fit.verdict == "einstein" and qcc.passed and abs(qcc.b) <= 1e-12
        reports = by_name(ssst_theorem_check(WarpedFrame(product, [point]), frame, [fit], [qcc]))
        form = reports["ssst_hessian_form_f"]
        assert not gates(form)
        assert "constant-curvature case" in form.details["note"][0]


class TestRobertsonWalkerTheorem:
    def test_exponential_example_is_einstein(self, rng):
        product = exponential_grw()
        for point in sample_box(
            {"t": (0, 1), "theta": (0.4, 2.7), "phi": (0.2, 6.0), "w": (-1, 1)},
            product.coords,
            5,
            rng,
        ):
            frame = ChartFrame(flatten_to_chart(product), [point])
            fit = fit_quasi_einstein(frame.metric, frame.ricci)[0]
            assert fit.verdict == "einstein"
            assert fit.alpha == pytest.approx(1.0, abs=1e-9)

    def test_exactly_one_sign_variant(self):
        product = exponential_grw()
        point = np.array([0.3, 1.2, 0.4, 0.9])
        frame = ChartFrame(flatten_to_chart(product), [point])
        fit = fit_quasi_einstein(frame.metric, frame.ricci)[0]
        qcc = check_quasi_constant_curvature(frame.metric, frame.riemann, [fit])[0]
        reports = by_name(grw_theorem_check(WarpedFrame(product, [point]), frame, [fit], [qcc]))
        rel = reports["grw_beta_alpha"]
        assert passed(rel) and gates(rel)
        assert rel.details["supported_variant"][0] == "statement"
        assert rel.details["residual_statement_variant"][0] <= 1e-6
        assert rel.details["residual_proof_variant"][0] > 1e-6
        assert rel.details["distinguishable"][0]

    def test_time_time_formula_sign_adjudication(self):
        # f = exp(t), h = 1, flat middle factor of dimension 2: the oracle
        # value is -(m2/f) f'' = -2, the negated form of the printed formula
        product = build_grw(
            GRWSpec(
                space2=factor("plane", ["u", "v"], [["1", "0"], ["0", "1"]]),
                space3=line_factor("l", "w"),
                f=parse("exp(t)", ["t"]),
                h=parse("1", ["t"]),
            )
        )
        point = np.array([0.2, 0.4, -0.1, 0.7])
        frame = ChartFrame(flatten_to_chart(product), [point])
        assert frame.ricci[0][0, 0] == pytest.approx(-2.0, rel=1e-10)
        fit = fit_quasi_einstein(frame.metric, frame.ricci)[0]
        qcc = check_quasi_constant_curvature(frame.metric, frame.riemann, [fit])[0]
        reports = by_name(grw_theorem_check(WarpedFrame(product, [point]), frame, [fit], [qcc]))
        e1 = reports["grw_e1_sign"]
        assert passed(e1)
        assert e1.details["supported_sign"][0] == "negated"

    def test_constancy_of_timelike_ricci_ratio(self, rng):
        # f(t) = exp(t), h = 1: Ric(dt, dt)/(f''/f) is constant across points
        product = build_grw(
            GRWSpec(
                space2=factor("plane", ["u", "v"], [["1", "0"], ["0", "1"]]),
                space3=line_factor("l", "w"),
                f=parse("exp(t)", ["t"]),
                h=parse("1", ["t"]),
            )
        )
        chart = flatten_to_chart(product)
        ratios = []
        for point in sample_box(
            {"t": (-0.5, 0.5), "u": (-1, 1), "v": (-1, 1), "w": (-1, 1)},
            product.coords,
            8,
            rng,
        ):
            frame = ChartFrame(chart, [point])
            ratios.append(frame.ricci[0][0, 0])  # f''/f = 1 for exp
        assert np.ptp(ratios) <= 1e-9
        assert ratios[0] == pytest.approx(-2.0, rel=1e-10)

    def test_einstein_fiber_conclusion(self):
        # f = exp(t), h = 1, sphere fiber: the outermost factor fit is
        # Einstein with unit coefficient
        product = build_grw(
            GRWSpec(
                space2=line_factor("su", "u"),
                space3=sphere_factor(),
                f=parse("exp(t)", ["t"]),
                h=parse("1", ["t"]),
            )
        )
        point = np.array([0.1, 0.4, 1.2, 0.3])
        frame = ChartFrame(flatten_to_chart(product), [point])
        fit = fit_quasi_einstein(frame.metric, frame.ricci)[0]
        qcc = check_quasi_constant_curvature(frame.metric, frame.riemann, [fit])[0]
        reports = by_name(grw_theorem_check(WarpedFrame(product, [point]), frame, [fit], [qcc]))
        m3 = reports["grw_m3_einstein"].details["fit"][0].summary()
        assert m3["verdict"] == "einstein"
        assert m3["alpha"] == pytest.approx(1.0, abs=1e-10)
        assert abs(m3["beta"]) <= 1e-8

    def test_radiation_universe_has_two_coefficient_structure(self, rng):
        product = radiation_grw()
        chart = flatten_to_chart(product)
        for point in sample_box(
            {"t": (0.5, 2.5), "u": (-1, 1), "w": (-1, 1)}, product.coords, 5, rng
        ):
            t = point[0]
            frame = ChartFrame(chart, [point])
            fit = fit_quasi_einstein(frame.metric, frame.ricci)[0]
            assert fit.verdict == "quasi-einstein"
            assert fit.unit_sign == -1  # timelike direction field
            assert fit.alpha == pytest.approx(0.0, abs=1e-10)
            assert fit.beta == pytest.approx(1.0 / (2.0 * t * t), rel=1e-8)
            qcc = check_quasi_constant_curvature(frame.metric, frame.riemann, [fit])[0]
            assert qcc.passed and abs(qcc.b) > 1e-3
            reports = by_name(grw_theorem_check(WarpedFrame(product, [point]), frame, [fit], [qcc]))
            rel = reports["grw_beta_alpha"]
            assert passed(rel) and gates(rel)
            e5 = reports["grw_e5_hessian_form"]
            assert passed(e5) and gates(e5)
            assert e5.details["coefficient_sign"][0] == "negated"
            assert passed(reports["grw_m2_quasi_einstein"])
            assert passed(reports["grw_m3_einstein"])
