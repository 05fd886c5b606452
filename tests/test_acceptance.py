"""Acceptance suite: one test per criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; every tolerance is pinned here and nowhere else.
"""

import math
import time

import numpy as np
import pytest

from conftest import halfplane_factor, line_factor, sphere_factor
from seqwarp import SequentialWarpedProduct, WarpedFrame, factor, flatten_to_chart
from seqwarp.chart import ChartFrame, sample_box
from seqwarp.classify import (
    check_quasi_constant_curvature,
    fit_quasi_einstein,
    lambda_at,
    proposition1_residuals,
    torus_divergence_residual,
)
from seqwarp.cli import catalog_names, catalog_spec
from seqwarp.expressions import parse
from seqwarp.verify import run_verify

ORACLE_EXAMPLES = ("exp_warp", "sphere_fiber", "hyperbolic_fiber")


def announce(number: int, text: str) -> None:
    print(f"[acceptance] criterion {number:2d}: PASS  {text}")


@pytest.fixture(scope="module")
def catalog_reports():
    return {name: run_verify(catalog_spec(name)) for name in catalog_names()}


def _identity(report, name):
    for rep in report.identities:
        if rep.name == name:
            return rep
    raise AssertionError(f"identity {name!r} missing from report")


def test_criterion_1_oracle_equivalence_under_ten_seconds():
    start = time.perf_counter()
    residuals = {}
    for name in ORACLE_EXAMPLES:
        report = run_verify(catalog_spec(name), points=30)
        worst = 0.0
        for ident in (
            "oracle_lemma1_connection",
            "oracle_lemma2_curvature",
            "oracle_lemma3_ricci",
            "oracle_scalar_curvature",
        ):
            rep = _identity(report, ident)
            assert rep.passed, f"{name}/{ident} residual {rep.max_residual}"
            assert rep.max_residual <= 1e-7
            worst = max(worst, rep.max_residual)
        residuals[name] = worst
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"sweep took {elapsed:.2f}s"
    announce(
        1,
        f"closed forms match the chart oracle at 30 points on {ORACLE_EXAMPLES}; "
        f"worst residual {max(residuals.values()):.2e} <= 1e-7, sweep {elapsed:.2f}s < 10s",
    )


def test_criterion_2_symmetries_and_bianchi(catalog_reports):
    worst_sym = worst_bianchi = 0.0
    for name, report in catalog_reports.items():
        sym = _identity(report, "curvature_symmetries")
        bianchi = _identity(report, "bianchi_contracted")
        assert sym.passed and sym.max_residual <= 1e-9, name
        assert bianchi.passed and bianchi.max_residual <= 1e-7, name
        worst_sym = max(worst_sym, sym.max_residual)
        worst_bianchi = max(worst_bianchi, bianchi.max_residual)
    announce(
        2,
        f"curvature symmetries + first Bianchi <= 1e-9 (worst {worst_sym:.2e}) and "
        f"contracted Bianchi <= 1e-7 (worst {worst_bianchi:.2e}) on all "
        f"{len(catalog_reports)} bundled examples",
    )


def test_criterion_3_cross_block_ricci(catalog_reports):
    worst = 0.0
    for name, report in catalog_reports.items():
        rep = _identity(report, "ricci_cross_blocks")
        assert rep.passed and rep.max_residual <= 1e-10, name
        worst = max(worst, rep.max_residual)
    announce(
        3,
        f"every cross-block Ricci entry <= 1e-10 on all bundled examples "
        f"(worst {worst:.2e})",
    )


def test_criterion_4_trivial_warping_reduction(catalog_reports):
    # curved factors, unit warpings, built directly
    product = SequentialWarpedProduct(
        sphere_factor("s1", "a1", "b1"),
        halfplane_factor(),
        line_factor("l", "w"),
        parse("1", []),
        parse("1", []),
    )
    boxes = {
        "a1": (0.4, 2.7),
        "b1": (0.2, 6.0),
        "p": (-1.0, 1.0),
        "q": (0.6, 2.4),
        "w": (-1.0, 1.0),
    }
    chart = flatten_to_chart(product)
    rng = np.random.default_rng(42)
    worst = 0.0
    for point in sample_box(boxes, product.coords, 20, rng):
        wf = WarpedFrame(product, [point])
        expected = np.zeros((5, 5))
        expected[:2, :2] = wf.frame1.ricci[0]
        expected[2:4, 2:4] = wf.frame2.ricci[0]
        worst = max(worst, float(np.max(np.abs(wf.ricci[0] - expected))))
        worst = max(worst, float(np.max(np.abs(ChartFrame(chart, [point]).ricci[0] - expected))))
    assert worst <= 1e-12
    # and the catalog entries with unit warpings agree through the suite
    for name in ("euclidean_product", "planted_qe"):
        rep = _identity(catalog_reports[name], "trivial_warping_reduction")
        assert rep.passed and rep.max_residual <= 1e-12
    announce(
        4,
        f"unit warpings give block-diagonal factor Ricci exactly "
        f"(worst residual {worst:.2e} <= 1e-12)",
    )


def test_criterion_5_quasi_einstein_round_trip():
    rng = np.random.default_rng(7)
    worst = 0.0
    for trial in range(200):
        dim = int(rng.integers(3, 7))
        basis = rng.normal(size=(dim, dim))
        q, _ = np.linalg.qr(basis)
        g = q @ np.diag(rng.uniform(0.5, 2.0, size=dim)) @ q.T
        alpha = float(rng.uniform(-3.0, 3.0))
        beta = float(rng.uniform(0.1, 3.0))
        u = rng.normal(size=dim)
        u = u / math.sqrt(u @ g @ u)
        a_form = g @ u
        fit = fit_quasi_einstein([g], [alpha * g + beta * np.outer(a_form, a_form)])[0]
        assert fit.verdict == "quasi-einstein", trial
        err = max(abs(fit.alpha - alpha), abs(fit.beta - beta))
        direction = fit.A / np.linalg.norm(fit.A)
        target = a_form / np.linalg.norm(a_form)
        err = max(
            err,
            min(np.max(np.abs(direction - target)), np.max(np.abs(direction + target))),
        )
        assert err <= 1e-8, trial
        worst = max(worst, err)
    # Einstein inputs keep a negligible rank-one part
    worst_einstein = 0.0
    for trial in range(20):
        dim = int(rng.integers(3, 7))
        basis = rng.normal(size=(dim, dim))
        q, _ = np.linalg.qr(basis)
        g = q @ np.diag(rng.uniform(0.5, 2.0, size=dim)) @ q.T
        fit = fit_quasi_einstein([g], [float(rng.uniform(-3, 3)) * g])[0]
        assert fit.verdict == "einstein"
        assert fit.beta_part <= 1e-8
        worst_einstein = max(worst_einstein, fit.beta_part)
    announce(
        5,
        f"200 planted decompositions in dims 3-6 recovered to 1e-8 "
        f"(worst {worst:.2e}); Einstein inputs keep rank-one part <= 1e-8 "
        f"(worst {worst_einstein:.2e})",
    )


def test_criterion_6_qcc_implies_qe(catalog_reports):
    from seqwarp.classify import _qcc_basis

    rng = np.random.default_rng(11)
    checked = 0
    for trial in range(100):
        dim = int(rng.integers(3, 6))
        basis = rng.normal(size=(dim, dim))
        q, _ = np.linalg.qr(basis)
        g = q @ np.diag(rng.uniform(0.5, 2.0, size=dim)) @ q.T
        u = rng.normal(size=dim)
        u = u / math.sqrt(u @ g @ u)
        t1, t2 = _qcc_basis(g, g @ u)
        a = float(rng.uniform(-2.0, 2.0))
        b = float(rng.choice([-1.0, 1.0]) * rng.uniform(0.1, 2.0))
        qcc = check_quasi_constant_curvature([g], [a * t1 + b * t2])[0]
        assert qcc.passed and qcc.ricci_fit.succeeded, trial
        checked += 1
    # over the catalog the implication is checked pointwise by the suite
    for name, report in catalog_reports.items():
        rep = _identity(report, "qcc_implies_qe")
        assert rep.passed, name
    announce(
        6,
        f"every passing two-coefficient curvature fit yields a passing rank-one "
        f"Ricci fit: {checked}/100 planted instances and the whole catalog",
    )


def test_criterion_7_torus_quadrature():
    circle = factor("circle", ["x"], [["1"]], periods={"x": 2.0 * math.pi})
    worst = 0.0
    for text in ("sin(x)", "2 + sin(x)", "sin(x)*cos(x)"):
        residual = torus_divergence_residual(circle, parse(text, ["x"]), 256)
        assert residual <= 1e-10, text
        worst = max(worst, residual)
    # the pointwise field is exact for constant warpings
    product = SequentialWarpedProduct(
        circle,
        line_factor("b", "u"),
        line_factor("c", "v"),
        parse("3", []),
        parse("1", []),
    )
    alpha = 1.7
    value = lambda_at(WarpedFrame(product, np.array([[0.3, 0.0, 0.0]])), alpha)[0]
    assert value == alpha * 9.0
    announce(
        7,
        f"mean(f Lap f + |grad f|^2) <= 1e-10 at 256 nodes for the three test "
        f"warpings (worst {worst:.2e}); constant warping gives the field "
        f"alpha c^2 exactly",
    )


def test_criterion_8_spacetime_adjudication(catalog_reports):
    ssst = catalog_reports["ssst_basic"]
    d3 = _identity(ssst, "ssst_d3")
    assert d3.passed and not d3.informational
    assert d3.details["recorded_sign"] == 1
    assert any("sign +1" in note for note in ssst.convention_notes)

    grw = catalog_reports["grw_exponential"]
    rel = _identity(grw, "grw_beta_alpha")
    assert rel.passed and not rel.informational
    assert rel.details["supported_variant"] == "statement"
    assert rel.details["residual_statement_variant"] <= 1e-6
    assert rel.details["residual_proof_variant"] > 1e-6
    assert rel.details["distinguishable"] is True
    announce(
        8,
        "static example matches |Ric(dt,dt)| = |h Lap h| to 1e-7 with recorded "
        "sign +1; exactly one beta-alpha sign variant survives on the "
        "exponential Robertson-Walker example and the report names it "
        "('statement')",
    )


def test_criterion_9_rank_one_feedback(catalog_reports):
    spec = catalog_spec("planted_qe")
    points = spec.sample_points()
    worst = 0.0
    for point in points:
        frame = ChartFrame(flatten_to_chart(spec.product), [point])
        fit = fit_quasi_einstein(frame.metric, frame.ricci)[0]
        assert fit.verdict == "quasi-einstein"
        warped = WarpedFrame(spec.product, [point])
        residuals = proposition1_residuals(warped, (fit.alpha, fit.beta, fit.U))
        for (residual,) in residuals:
            assert residual <= 1e-6
            worst = max(worst, residual)
    # the identity suite reaches the same verdict
    report = catalog_reports["planted_qe"]
    for label in ("i1", "i2", "i3"):
        rep = _identity(report, f"proposition1_{label}")
        assert rep.passed and not rep.informational
    announce(
        9,
        f"feeding the fitted ambient decomposition back into the factor "
        f"identities keeps all three residuals <= 1e-6 (worst {worst:.2e})",
    )


def test_criterion_10_deterministic_reports():
    spec = catalog_spec("planted_qe")
    first = run_verify(spec).to_json().encode()
    second = run_verify(spec).to_json().encode()
    assert first == second
    spec2 = catalog_spec("grw_exponential")
    assert run_verify(spec2).to_json() == run_verify(spec2).to_json()
    announce(10, "same spec and seed produce byte-identical reports")


def test_catalog_overall_pass(catalog_reports):
    failing = [name for name, report in catalog_reports.items() if not report.overall_pass]
    assert not failing, f"examples failing their identity suite: {failing}"
