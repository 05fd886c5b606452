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
from seqwarp.classify import _qcc_basis
from seqwarp.expressions import parse
from seqwarp.warped import WarpedFrame, _embed, _per_sample
from test_stacked import chart_case, load

SPHERE_BOX = {"theta": (0.35, 2.75), "phi": (0.1, 6.2)}
HALF_BOX = {"p": (-1.0, 1.0), "q": (0.6, 2.4)}


class TestChristoffel:
    def test_euclidean_plane_flat(self):
        plane = factor("plane", ["x", "y"], [["1", "0"], ["0", "1"]])
        assert not ChartFrame(plane, [(0.3, -0.7)]).christoffel[0].any()

    def test_sphere_hand_values(self):
        gamma = ChartFrame(sphere_factor(), [(math.pi / 3, 0.0)]).christoffel[0]
        expected_tpp = -math.sin(math.pi / 3) * math.cos(math.pi / 3)
        assert gamma[0, 1, 1] == pytest.approx(expected_tpp, abs=1e-12)
        assert gamma[1, 0, 1] == pytest.approx(1.0 / math.tan(math.pi / 3), abs=1e-12)
        assert gamma[1, 1, 0] == gamma[1, 0, 1]

    def test_halfplane_hand_values(self):
        gamma = ChartFrame(halfplane_factor(), [(0.0, 2.0)]).christoffel[0]
        assert gamma[0, 0, 1] == pytest.approx(-0.5, abs=1e-12)
        assert gamma[1, 0, 0] == pytest.approx(0.5, abs=1e-12)
        assert gamma[1, 1, 1] == pytest.approx(-0.5, abs=1e-12)

    def test_matches_finite_difference_variant(self, rng):
        for manifold, box in ((sphere_factor(), SPHERE_BOX), (halfplane_factor(), HALF_BOX)):
            for point in sample_box(box, manifold.coords, 5, rng):
                fd = fd_christoffel(manifold, point)
                exact = ChartFrame(manifold, [point]).christoffel[0]
                assert exact == pytest.approx(fd, abs=5e-9)


class TestCurvature:
    def test_flat_space_vanishes_exactly(self):
        space = factor("e3", ["x", "y", "z"], [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]])
        frame = ChartFrame(space, [(0.1, 0.2, 0.3)])
        assert not frame.riemann.any()
        assert not frame.ricci.any()
        assert frame.scalar[0] == 0.0

    def test_sphere_is_einstein(self, rng):
        sphere = sphere_factor()
        for point in sample_box(SPHERE_BOX, sphere.coords, 10, rng):
            frame = ChartFrame(sphere, [point])
            assert frame.ricci[0] == pytest.approx(frame.metric[0], abs=1e-12)
            assert frame.scalar[0] == pytest.approx(2.0, abs=1e-12)

    def test_halfplane_scalar(self):
        scalar = ChartFrame(halfplane_factor(), [(1.0, 1.0)]).scalar[0]
        assert scalar == pytest.approx(-2.0, abs=1e-12)

    def test_riemann_matches_finite_difference_variant(self, rng):
        sphere = sphere_factor()
        for point in sample_box(SPHERE_BOX, sphere.coords, 4, rng):
            fd = fd_riemann_up(sphere, point)
            assert ChartFrame(sphere, [point]).riemann_up[0] == pytest.approx(fd, abs=5e-8)

    def test_lorentzian_static_line(self):
        # metric -cosh(x)^2 dt^2 + dx^2: time-time Ricci equals cosh^2
        chart = factor(
            "static",
            ["t", "x"],
            [["-cosh(x)^2", "0"], ["0", "1"]],
            signature="lorentzian",
        )
        ric = ChartFrame(chart, [(0.0, 0.4)]).ricci[0]
        assert ric[0, 0] == pytest.approx(math.cosh(0.4) ** 2, rel=1e-12)

    def test_symmetries_on_catalog_charts(self, rng):
        for manifold, box in ((sphere_factor(), SPHERE_BOX), (halfplane_factor(), HALF_BOX)):
            for point in sample_box(box, manifold.coords, 30, rng):
                frame = ChartFrame(manifold, [point])
                assert max(v[0] for v in symmetry_residuals(frame).values()) <= 1e-9

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
                frame = ChartFrame(manifold, [point])
                assert np.max(np.abs(frame.div_ricci[0] - 0.5 * frame.dscalar[0])) <= 1e-7


class TestScalarFields:
    def test_flat_line_exponential(self):
        line = line_factor("l", "x")
        phi = parse("exp(x)", ["x"])
        frame = ChartFrame(line, [(0.0,)])
        assert frame.gradient(phi)[0].tolist() == [1.0]
        assert frame.hessian(phi)[0].tolist() == [[1.0]]
        assert frame.laplacian(phi)[0] == 1.0

    def test_sphere_eigenfunction(self):
        sphere = sphere_factor()
        phi = parse("cos(theta)", sphere.coords)
        equator = ChartFrame(sphere, [(math.pi / 2, 0.0)])
        assert equator.laplacian(phi)[0] == pytest.approx(0.0, abs=1e-12)
        assert ChartFrame(sphere, [(math.pi / 3, 0.0)]).laplacian(phi)[0] == pytest.approx(
            -1.0, rel=1e-12
        )

    def test_constant_field(self):
        sphere = sphere_factor()
        phi = parse("4", sphere.coords)
        frame = ChartFrame(sphere, [(1.0, 2.0)])
        assert not frame.gradient(phi).any()
        assert not frame.hessian(phi).any()
        assert frame.laplacian(phi)[0] == 0.0

    def test_divergence_of_metric_vanishes(self, rng):
        for manifold, box in ((sphere_factor(), SPHERE_BOX), (halfplane_factor(), HALF_BOX)):
            for point in sample_box(box, manifold.coords, 5, rng):
                div = ChartFrame(manifold, [point]).div_sym2(manifold.metric)[0]
                assert np.max(np.abs(div)) <= 1e-12

    def test_flat_divergence_is_plain(self):
        plane = factor("plane", ["x", "y"], [["1", "0"], ["0", "1"]])
        entries = [[parse("x", plane.coords), parse("0", plane.coords)],
                   [parse("0", plane.coords), parse("0", plane.coords)]]
        assert ChartFrame(plane, [(0.7, -0.2)]).div_sym2(entries)[0].tolist() == [1.0, 0.0]

    def test_divergence_of_sphere_ricci_vanishes(self, rng):
        # constant curvature: div Ric = d(scal)/2 = 0
        sphere = sphere_factor()
        entries = [[parse("1", sphere.coords), parse("0", sphere.coords)],
                   [parse("0", sphere.coords), parse("sin(theta)^2", sphere.coords)]]
        for point in sample_box(SPHERE_BOX, sphere.coords, 5, rng):
            assert np.max(np.abs(ChartFrame(sphere, [point]).div_sym2(entries)[0])) <= 1e-12

    def test_hessian_divergence_identity_on_sphere(self, rng):
        # frozen convention: div(H^phi) = Ric(grad phi, .) + d(Lap phi)
        sphere = sphere_factor()
        phi = parse("cos(theta)", sphere.coords)
        for point in sample_box(SPHERE_BOX, sphere.coords, 10, rng):
            frame = ChartFrame(sphere, [point])
            lhs = frame.div_hessian(phi)[0]
            rhs = frame.ricci[0] @ frame.gradient(phi)[0] + frame.grad_laplacian(phi)[0]
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
    frame = ChartFrame(factor("skew6", coords, entries), [rng.uniform(-1.0, 1.0, 6)])
    gi, dg, d2g = frame.inverse[0], frame.dmetric[0], frame.d2metric[0]
    mixed = np.einsum("km,amn,no,bop,pl->abkl", gi, dg, gi, dg, gi)
    old = mixed + np.transpose(mixed, (1, 0, 2, 3)) - np.einsum(
        "km,abmn,nl->abkl", gi, d2g, gi
    )
    assert np.max(np.abs(frame.d2inverse[0] - old)) <= 1e-12 * (1.0 + np.max(np.abs(old)))


# The contractions of the oracle, the closed forms and the curvature-fit basis
# as einsums, index for index: test-only references for the batched matmul and
# broadcast kernels.  Each reads the same cached inputs as the stage it checks.

def einsum_dinverse(frame):
    gi = frame.inverse
    return -np.einsum("...km,...amn,...nl->...akl", gi, frame.dmetric, gi)


def einsum_christoffel(frame):
    return 0.5 * np.einsum("...kl,...lij->...kij", frame.inverse, frame._gamma_source)


def einsum_dchristoffel(frame):
    return 0.5 * (
        np.einsum("...akl,...lij->...akij", frame.dinverse, frame._gamma_source)
        + np.einsum("...kl,...alij->...akij", frame.inverse, frame._dgamma_source)
    )


def einsum_riemann_up(frame):
    ga, dga = frame.christoffel, frame.dchristoffel
    return (
        np.einsum("...iljk->...lijk", dga)
        - np.einsum("...jlik->...lijk", dga)
        + np.einsum("...lim,...mjk->...lijk", ga, ga)
        - np.einsum("...ljm,...mik->...lijk", ga, ga)
    )


def einsum_dricci(frame):
    gi, dgi, d2gi = frame.inverse, frame.dinverse, frame.d2inverse
    t, dt, d3g = frame._gamma_source, frame._dgamma_source, frame.d3metric
    ga, dga = frame.christoffel, frame.dchristoffel
    out = np.einsum("...al,...ljk->...ajk", np.einsum("...aiil->...al", d2gi), t)
    out += np.einsum("...ail,...iljk->...ajk", dgi, dt)
    out += np.einsum("...l,...aljk->...ajk", np.einsum("...iil->...l", dgi), dt)
    d3_traced = np.einsum("...il,...aijkl->...ajk", gi, d3g)
    out += d3_traced + np.swapaxes(d3_traced, -2, -1)
    out -= np.einsum("...il,...ailjk->...ajk", gi, d3g)
    out -= np.einsum("...ajil,...kil->...ajk", d2gi, frame.dmetric)
    cross = np.einsum("...ail,...jkil->...ajk", dgi, frame.d2metric)
    out -= cross + np.swapaxes(cross, -3, -2)
    out -= np.einsum("...il,...ajkil->...ajk", gi, d3g)
    out *= 0.5
    out += np.einsum("...am,...mjk->...ajk", np.einsum("...aiim->...am", dga), ga)
    out += np.einsum("...m,...amjk->...ajk", np.einsum("...iim->...m", ga), dga)
    quadratic = np.einsum("...aijm,...mik->...ajk", dga, ga)
    return out - quadratic - np.swapaxes(quadratic, -2, -1)


def einsum_divergence(frame, dt, t):
    gi, ga = frame.inverse, frame.christoffel
    return (
        np.einsum("...ik,...ikj->...j", gi, dt)
        - np.einsum("...ik,...mik,...mj->...j", gi, ga, t)
        - np.einsum("...ik,...mij,...km->...j", gi, ga, t)
    )


def einsum_warped_christoffel(w):
    d, lead = w.product.dim, w._lead
    s1, s2, s3 = w.product.block_slices
    inner = slice(0, s3.start)
    f, h = w.f_value, w.h_value
    g2, g3, p2, p3 = w._fiber_blocks
    out = np.zeros(lead + (d, d, d))
    for sl, fr in zip((s1, s2, s3), (w.frame1, w.frame2, w.frame3)):
        out[..., sl, sl, sl] = fr.christoffel
    out -= np.einsum(
        "...k,...ab->...kab", _embed(d, s1, w.grad_f, lead), _per_sample(f, 2) * g2
    ) + np.einsum(
        "...k,...ab->...kab", _embed(d, inner, w.grad_h, lead), _per_sample(h, 2) * g3
    )
    t = np.einsum(
        "...a,...kb->...kab", _embed(d, s1, w.df / _per_sample(f, 1), lead), p2
    ) + np.einsum("...a,...kb->...kab", _embed(d, inner, w.dh / _per_sample(h, 1), lead), p3)
    return out + (t + np.swapaxes(t, -2, -1))


def einsum_warped_riemann_up(w):
    d, lead = w.product.dim, w._lead
    s1, s2, s3 = w.product.block_slices
    inner = slice(0, s3.start)
    f, h = _per_sample(w.f_value, 2), _per_sample(w.h_value, 2)
    gf2, gh2 = _per_sample(w.grad_f_norm2, 2), _per_sample(w.grad_h_norm2, 2)
    out = np.zeros(lead + (d, d, d, d))
    for sl, fr in zip((s1, s2, s3), (w.frame1, w.frame2, w.frame3)):
        out[..., sl, sl, sl, sl] = fr.riemann_up
    g2, g3, p2, p3 = w._fiber_blocks
    outer = "...ac,...lb->...labc"
    t = (
        np.einsum(outer, gf2 * g2 + _embed(d, s1, w.hess_f, lead) / f, p2)
        + np.einsum(outer, f * g2, _embed(d, s1, w.raised_hess_f, lead))
        + np.einsum(outer, _embed(d, inner, w.hess_h, lead) / h + gh2 * g3, p3)
        + np.einsum(outer, h * g3, _embed(d, inner, w.raised_hess_h, lead))
    )
    return out + (t - np.swapaxes(t, -3, -2))


def einsum_qcc_basis(g, a_form):
    t1 = np.einsum("...jk,...il->...ijkl", g, g) - np.einsum("...ik,...jl->...ijkl", g, g)
    t2 = (
        np.einsum("...il,...j,...k->...ijkl", g, a_form, a_form)
        - np.einsum("...ik,...j,...l->...ijkl", g, a_form, a_form)
        + np.einsum("...jk,...i,...l->...ijkl", g, a_form, a_form)
        - np.einsum("...jl,...i,...k->...ijkl", g, a_form, a_form)
    )
    return t1, t2


def kernel_cases(frame, fields, warped):
    """(name, kernel output, einsum reference) of every rewritten contraction."""
    cases = [
        ("dinverse", frame.dinverse, einsum_dinverse(frame)),
        ("christoffel", frame.christoffel, einsum_christoffel(frame)),
        ("dchristoffel", frame.dchristoffel, einsum_dchristoffel(frame)),
        ("riemann_up", frame.riemann_up, einsum_riemann_up(frame)),
        ("dricci", frame.dricci, einsum_dricci(frame)),
        ("div_ricci", frame.div_ricci, einsum_divergence(frame, frame.dricci, frame.ricci)),
    ]
    for phi in fields:
        reference = einsum_divergence(frame, frame.dhessian(phi), frame.hessian(phi))
        cases.append((f"div_hessian {phi}", frame.div_hessian(phi), reference))
    if warped is not None:
        cases.append(("warped christoffel", warped.christoffel, einsum_warped_christoffel(warped)))
        cases.append(("warped riemann_up", warped.riemann_up, einsum_warped_riemann_up(warped)))
    a_form = np.sin(np.arange(1.0, frame.manifold.dim + 1.0) + frame.point[:, :1])
    for k, (t, reference) in enumerate(zip(_qcc_basis(frame.metric, a_form),
                                           einsum_qcc_basis(frame.metric, a_form))):
        cases.append((f"_qcc_basis t{k + 1}", t, reference))
    return cases


@pytest.mark.parametrize("count", [1, 6])
@pytest.mark.parametrize("name", ["random_dim4", "sweep_dim12", "grw_exponential"])
def test_contractions_match_their_einsum_references(name, count):
    chart, fields, points = chart_case(name)
    frame = ChartFrame(chart, points[:count])
    warped = None if name == "random_dim4" else WarpedFrame(load(name).product, points[:count])
    for what, kernel, reference in kernel_cases(frame, fields, warped):
        assert kernel.shape == reference.shape, what
        scale = max(1.0, float(np.max(np.abs(reference))))
        assert np.max(np.abs(kernel - reference)) <= 1e-13 * scale, what
