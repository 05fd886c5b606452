"""Chart calculus tests: frozen hand values, classical manifolds, the
finite-difference variant of the oracle, and tensor identities."""

import math

import numpy as np
import pytest

from conftest import (
    fd_christoffel,
    fd_riemann_up,
    halfplane_factor,
    line_factor,
    sphere_factor,
)
from seqwarp import factor
from seqwarp.chart import (
    ChartFrame,
    DegenerateMetricError,
    MetricValidationError,
    SignatureError,
    sample_box,
    symmetry_residuals,
    validate_factor_at,
)
from seqwarp.expressions import parse

SPHERE_BOX = {"theta": (0.35, 2.75), "phi": (0.1, 6.2)}
HALF_BOX = {"p": (-1.0, 1.0), "q": (0.6, 2.4)}


class TestChristoffel:
    def test_euclidean_plane_flat(self):
        plane = factor("plane", ["x", "y"], [["1", "0"], ["0", "1"]])
        assert not ChartFrame(plane, (0.3, -0.7)).christoffel.any()

    def test_sphere_hand_values(self):
        gamma = ChartFrame(sphere_factor(), (math.pi / 3, 0.0)).christoffel
        expected_tpp = -math.sin(math.pi / 3) * math.cos(math.pi / 3)
        assert gamma[0, 1, 1] == pytest.approx(expected_tpp, abs=1e-12)
        assert gamma[1, 0, 1] == pytest.approx(1.0 / math.tan(math.pi / 3), abs=1e-12)
        assert gamma[1, 1, 0] == gamma[1, 0, 1]

    def test_halfplane_hand_values(self):
        gamma = ChartFrame(halfplane_factor(), (0.0, 2.0)).christoffel
        assert gamma[0, 0, 1] == pytest.approx(-0.5, abs=1e-12)
        assert gamma[1, 0, 0] == pytest.approx(0.5, abs=1e-12)
        assert gamma[1, 1, 1] == pytest.approx(-0.5, abs=1e-12)

    def test_matches_finite_difference_variant(self, rng):
        for manifold, box in ((sphere_factor(), SPHERE_BOX), (halfplane_factor(), HALF_BOX)):
            for point in sample_box(box, manifold.coords, 5, rng):
                fd = fd_christoffel(manifold, point)
                exact = ChartFrame(manifold, point).christoffel
                assert exact == pytest.approx(fd, abs=5e-9)


class TestCurvature:
    def test_flat_space_vanishes_exactly(self):
        space = factor("e3", ["x", "y", "z"], [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]])
        frame = ChartFrame(space, (0.1, 0.2, 0.3))
        assert not frame.riemann.any()
        assert not frame.ricci.any()
        assert frame.scalar == 0.0

    def test_sphere_is_einstein(self, rng):
        sphere = sphere_factor()
        for point in sample_box(SPHERE_BOX, sphere.coords, 10, rng):
            frame = ChartFrame(sphere, point)
            assert frame.ricci == pytest.approx(frame.metric, abs=1e-12)
            assert frame.scalar == pytest.approx(2.0, abs=1e-12)

    def test_halfplane_scalar(self):
        assert ChartFrame(halfplane_factor(), (1.0, 1.0)).scalar == pytest.approx(-2.0, abs=1e-12)

    def test_riemann_matches_finite_difference_variant(self, rng):
        sphere = sphere_factor()
        for point in sample_box(SPHERE_BOX, sphere.coords, 4, rng):
            fd = fd_riemann_up(sphere, point)
            assert ChartFrame(sphere, point).riemann_up == pytest.approx(fd, abs=5e-8)

    def test_lorentzian_static_line(self):
        # metric -cosh(x)^2 dt^2 + dx^2: time-time Ricci equals cosh^2
        chart = factor(
            "static",
            ["t", "x"],
            [["-cosh(x)^2", "0"], ["0", "1"]],
            signature="lorentzian",
        )
        ric = ChartFrame(chart, (0.0, 0.4)).ricci
        assert ric[0, 0] == pytest.approx(math.cosh(0.4) ** 2, rel=1e-12)

    def test_symmetries_on_catalog_charts(self, rng):
        for manifold, box in ((sphere_factor(), SPHERE_BOX), (halfplane_factor(), HALF_BOX)):
            for point in sample_box(box, manifold.coords, 30, rng):
                frame = ChartFrame(manifold, point)
                assert max(symmetry_residuals(frame).values()) <= 1e-9

    def test_contracted_bianchi(self, rng):
        wavy = factor(
            "wavy",
            ["x", "y"],
            [["1 + 0.5*sin(x)^2", "0"], ["0", "2 + cos(y)"]],
        )
        cases = (
            (sphere_factor(), SPHERE_BOX),
            (halfplane_factor(), HALF_BOX),
            (wavy, {"x": (-1.0, 1.0), "y": (-1.0, 1.0)}),
        )
        for manifold, box in cases:
            for point in sample_box(box, manifold.coords, 10, rng):
                frame = ChartFrame(manifold, point)
                assert np.max(np.abs(frame.div_ricci - 0.5 * frame.dscalar)) <= 1e-7


class TestScalarFields:
    def test_flat_line_exponential(self):
        line = line_factor("l", "x")
        phi = parse("exp(x)", ["x"])
        frame = ChartFrame(line, (0.0,))
        assert frame.gradient(phi).tolist() == [1.0]
        assert frame.hessian(phi).tolist() == [[1.0]]
        assert frame.laplacian(phi) == 1.0

    def test_sphere_eigenfunction(self):
        sphere = sphere_factor()
        phi = parse("cos(theta)", sphere.coords)
        equator = ChartFrame(sphere, (math.pi / 2, 0.0))
        assert equator.laplacian(phi) == pytest.approx(0.0, abs=1e-12)
        assert ChartFrame(sphere, (math.pi / 3, 0.0)).laplacian(phi) == pytest.approx(
            -1.0, rel=1e-12
        )

    def test_constant_field(self):
        sphere = sphere_factor()
        phi = parse("4", sphere.coords)
        frame = ChartFrame(sphere, (1.0, 2.0))
        assert not frame.gradient(phi).any()
        assert not frame.hessian(phi).any()
        assert frame.laplacian(phi) == 0.0

    def test_divergence_of_metric_vanishes(self, rng):
        for manifold, box in ((sphere_factor(), SPHERE_BOX), (halfplane_factor(), HALF_BOX)):
            for point in sample_box(box, manifold.coords, 5, rng):
                div = ChartFrame(manifold, point).div_sym2(manifold.metric)
                assert np.max(np.abs(div)) <= 1e-12

    def test_flat_divergence_is_plain(self):
        plane = factor("plane", ["x", "y"], [["1", "0"], ["0", "1"]])
        entries = [[parse("x", plane.coords), parse("0", plane.coords)],
                   [parse("0", plane.coords), parse("0", plane.coords)]]
        assert ChartFrame(plane, (0.7, -0.2)).div_sym2(entries).tolist() == [1.0, 0.0]

    def test_divergence_of_sphere_ricci_vanishes(self, rng):
        # constant curvature: div Ric = d(scal)/2 = 0
        sphere = sphere_factor()
        entries = [[parse("1", sphere.coords), parse("0", sphere.coords)],
                   [parse("0", sphere.coords), parse("sin(theta)^2", sphere.coords)]]
        for point in sample_box(SPHERE_BOX, sphere.coords, 5, rng):
            assert np.max(np.abs(ChartFrame(sphere, point).div_sym2(entries))) <= 1e-12

    def test_hessian_divergence_identity_on_sphere(self, rng):
        # frozen convention: div(H^phi) = Ric(grad phi, .) + d(Lap phi)
        sphere = sphere_factor()
        phi = parse("cos(theta)", sphere.coords)
        for point in sample_box(SPHERE_BOX, sphere.coords, 10, rng):
            frame = ChartFrame(sphere, point)
            lhs = frame.div_hessian(phi)
            rhs = frame.ricci @ frame.gradient(phi) + frame.grad_laplacian(phi)
            assert np.max(np.abs(lhs - rhs)) <= 1e-10


class TestValidation:
    def test_degenerate_metric_reports_point(self):
        chart = factor("deg", ["x"], [["x"]])
        with pytest.raises(DegenerateMetricError) as err:
            validate_factor_at(chart, [(0.0,)])
        assert err.value.point == (0.0,)

    def test_signature_mismatch(self):
        chart = factor("m", ["t", "x"], [["-1", "0"], ["0", "1"]])
        with pytest.raises(SignatureError):
            validate_factor_at(chart, [(0.0, 0.0)])

    def test_lorentzian_accepts_one_negative(self):
        chart = factor(
            "m", ["t", "x"], [["-1", "0"], ["0", "1"]], signature="lorentzian"
        )
        validate_factor_at(chart, [(0.0, 0.0)])

    def test_asymmetric_entries_rejected(self):
        chart = factor("bad", ["x", "y"], [["1", "x"], ["0", "1"]])
        with pytest.raises(MetricValidationError, match="asymmetric"):
            validate_factor_at(chart, [(1.0, 1.0)])

    def test_metric_shape_checked(self):
        with pytest.raises(MetricValidationError):
            factor("bad", ["x", "y"], [["1", "0"]])


def test_d2inverse_matches_five_operand_einsum():
    # a non-diagonal, position-dependent dim-6 metric, diagonally dominant
    coords = [f"c{i}" for i in range(6)]
    entries = [
        [
            f"2 + 0.3*sin({ci})^2 + 0.1*{cj}" if i == j else f"0.2*cos({ci}*{cj} + {ci} + {cj})"
            for j, cj in enumerate(coords)
        ]
        for i, ci in enumerate(coords)
    ]
    rng = np.random.default_rng(4)
    frame = ChartFrame(factor("skew6", coords, entries), rng.uniform(-1.0, 1.0, 6))
    gi, dg, d2g = frame.inverse, frame.dmetric, frame.d2metric
    mixed = np.einsum("km,amn,no,bop,pl->abkl", gi, dg, gi, dg, gi)
    old = mixed + np.transpose(mixed, (1, 0, 2, 3)) - np.einsum(
        "km,abmn,nl->abkl", gi, d2g, gi
    )
    assert np.max(np.abs(frame.d2inverse - old)) <= 1e-12 * (1.0 + np.max(np.abs(old)))
