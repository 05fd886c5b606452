"""Spec-file schema, verification runs, reports, and the CLI surface."""

import json
import math
import re
import warnings
from pathlib import Path

import numpy as np
import pytest

from seqwarp.cli import catalog_names, catalog_path, catalog_spec, main
from seqwarp.expressions import MAX_NESTING, Const
from seqwarp.specfile import SpecError, load_spec, spec_from_dict
from seqwarp.verify import VerificationInputError, run_classify, run_verify

CATALOG = [
    "circle_lambda",
    "euclidean_product",
    "exp_warp",
    "flrw_radiation",
    "grw_exponential",
    "hyperbolic_fiber",
    "planted_qe",
    "sphere_fiber",
    "ssst_basic",
]


def minimal_spec(**overrides) -> dict:
    data = {
        "kind": "swp",
        "factors": [
            {"name": "a", "coords": ["x"], "metric": [["1"]]},
            {"name": "b", "coords": ["u"], "metric": [["1"]]},
            {"name": "c", "coords": ["v"], "metric": [["1"]]},
        ],
        "warpings": {"f": "1", "h": "1"},
        "sampling": {"points": 5, "seed": 3},
    }
    data.update(overrides)
    return data


class TestSchema:
    def test_bundled_catalog_is_complete(self):
        assert catalog_names() == CATALOG

    def test_load_bundled_euclidean(self):
        spec = catalog_spec("euclidean_product")
        assert spec.kind == "swp"
        assert spec.product.f == Const(1.0)
        assert spec.product.h == Const(1.0)
        assert spec.points == 30

    def test_coordinate_collision(self):
        data = minimal_spec()
        data["factors"][1]["coords"] = ["x"]
        data["factors"][1]["metric"] = [["1"]]
        with pytest.raises(SpecError, match="more than one factor"):
            spec_from_dict(data)

    def test_expression_syntax_error_offset(self):
        data = minimal_spec(warpings={"f": "exp(x1", "h": "1"})
        data["factors"][0]["coords"] = ["x1"]
        with pytest.raises(SpecError, match="warpings.f.*offset 6"):
            spec_from_dict(data)

    def test_unknown_identifier_in_warping(self):
        data = minimal_spec(warpings={"f": "exp(x1)", "h": "1"})
        with pytest.raises(SpecError, match="unknown identifier 'x1'"):
            spec_from_dict(data)

    def test_metric_entry_error_has_field_path(self):
        data = minimal_spec()
        data["factors"][0]["metric"] = [["x +* y"]]
        with pytest.raises(SpecError, match=r"factors\[0\].metric\[0\]\[0\].*offset 3"):
            spec_from_dict(data)

    def test_missing_kind(self):
        data = minimal_spec()
        del data["kind"]
        with pytest.raises(SpecError, match="kind"):
            spec_from_dict(data)

    def test_wrong_factor_count(self):
        data = minimal_spec()
        data["factors"] = data["factors"][:2]
        with pytest.raises(SpecError, match="exactly 3"):
            spec_from_dict(data)

    def test_dim_mismatch(self):
        data = minimal_spec()
        data["factors"][0]["dim"] = 2
        with pytest.raises(SpecError, match="dim 2"):
            spec_from_dict(data)

    def test_negative_period(self):
        data = minimal_spec()
        data["factors"][0]["periodic"] = {"x": -1.0}
        with pytest.raises(SpecError, match="period must be positive"):
            spec_from_dict(data)

    def test_bad_box(self):
        data = minimal_spec()
        data["sampling"]["boxes"] = {"x": [1.0, -1.0]}
        with pytest.raises(SpecError, match="boxes.x"):
            spec_from_dict(data)

    def test_unknown_box_coordinate(self):
        data = minimal_spec()
        data["sampling"]["boxes"] = {"zz": [0.0, 1.0]}
        with pytest.raises(SpecError, match="boxes.zz"):
            spec_from_dict(data)

    def test_unknown_planted_coordinate(self):
        data = minimal_spec(planted={"alpha": 1.0, "beta": 1.0, "u": {"zz": 1.0}})
        with pytest.raises(SpecError, match="planted.u.zz"):
            spec_from_dict(data)

    def test_time_block_required_for_spacetimes(self):
        data = minimal_spec(kind="grw")
        data["factors"] = data["factors"][:2]
        with pytest.raises(SpecError, match="time"):
            spec_from_dict(data)

    def test_load_spec_from_file(self, tmp_path):
        path = tmp_path / "example.json"
        path.write_text(json.dumps(minimal_spec()))
        spec = load_spec(path)
        assert spec.name == "example"
        assert spec.boxes["x"] == (-1.0, 1.0)

    def test_invalid_json_file(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(SpecError, match="invalid JSON"):
            load_spec(path)


class TestRunVerify:
    def test_euclidean_all_green_and_tiny(self):
        report = run_verify(catalog_spec("euclidean_product"))
        assert report.overall_pass
        for rep in report.identities:
            if not rep.informational:
                assert rep.max_residual <= 1e-9

    def test_exp_warp_oracle_equivalence(self):
        report = run_verify(catalog_spec("exp_warp"))
        assert report.overall_pass
        by_name = {r.name: r for r in report.identities}
        assert by_name["oracle_lemma2_curvature"].max_residual <= 1e-7
        assert by_name["oracle_lemma3_ricci"].max_residual <= 1e-7

    def test_degenerate_metric_is_input_error(self):
        data = minimal_spec()
        data["factors"][0]["metric"] = [["0"]]
        spec = spec_from_dict(data)
        with pytest.raises(VerificationInputError, match="degenerate"):
            run_verify(spec)

    def test_wrong_signature_is_input_error(self):
        data = minimal_spec()
        data["factors"][0]["metric"] = [["x"]]  # changes sign inside the box
        spec = spec_from_dict(data)
        with pytest.raises(VerificationInputError, match="positive-definite|degenerate"):
            run_verify(spec)

    def test_nonpositive_warping_is_input_error(self):
        data = minimal_spec(warpings={"f": "x", "h": "1"})
        spec = spec_from_dict(data)
        with pytest.raises(VerificationInputError, match="positive"):
            run_verify(spec)

    def test_torus_spec_file_averages_over_a_2d_grid(self):
        # the specs CI checks for bytes across processes; in torus_skew the
        # inner chart's metric mentions both grid coordinates
        for name in ("torus_1p1", "torus_skew"):
            path = Path(__file__).parent / "data" / f"{name}.json"
            report = run_verify(load_spec(path), points=4)
            assert report.overall_pass
            by_name = {r.name: r for r in report.identities}
            assert by_name["torus_average_lambda"].points == 128
            assert by_name["torus_average_nu"].points == 128**2

    def test_point_and_seed_overrides(self):
        spec = catalog_spec("euclidean_product")
        report = run_verify(spec, points=7, seed=99)
        assert report.points == 7 and report.seed == 99

    def test_reports_are_deterministic(self):
        spec = catalog_spec("circle_lambda")
        a = run_verify(spec).to_json()
        b = run_verify(spec).to_json()
        assert a == b

    def test_tolerance_override_can_fail_the_run(self):
        spec = catalog_spec("exp_warp")
        report = run_verify(spec, tolerances={"oracle": 1e-30})
        assert not report.overall_pass

    def test_planted_qe_report_content(self):
        report = run_verify(catalog_spec("planted_qe"))
        assert report.overall_pass
        fits = report.fits["quasi_einstein"]
        assert fits["verdicts"] == {"quasi-einstein": 30}
        assert fits["alpha"]["min"] == pytest.approx(1.0, abs=1e-9)
        assert fits["beta"]["max"] == pytest.approx(-1.0, abs=1e-9)

    def test_ssst_convention_note(self):
        report = run_verify(catalog_spec("ssst_basic"), points=5)
        assert report.overall_pass
        assert any("sign +1" in note for note in report.convention_notes)

    def test_grw_convention_notes(self):
        report = run_verify(catalog_spec("grw_exponential"), points=5)
        assert report.overall_pass
        assert any("supported printed variant = statement" in n for n in report.convention_notes)
        assert any("sign: negated" in n for n in report.convention_notes)


@pytest.mark.parametrize("name", ["exp_warp", "planted_qe", "sphere_fiber"])
def test_run_verify_fits_the_flat_stack_once(name, monkeypatch):
    """The curvature fit takes its one-form from the quasi-Einstein fit of
    the same stack: no second fit of the flat stack runs."""
    import seqwarp.classify as classify
    import seqwarp.verify as verify

    shapes = []
    original = classify.fit_quasi_einstein

    def spy(g, ric, *rest):
        shapes.append(np.shape(g))
        return original(g, ric, *rest)

    for module in (classify, verify):
        monkeypatch.setattr(module, "fit_quasi_einstein", spy)
    spec = catalog_spec(name)
    assert spec.kind == "swp"
    run_verify(spec, points=4)
    dim = spec.product.dim
    assert shapes.count((4, dim, dim)) == 1


@pytest.fixture
def frames_built(monkeypatch):
    """A function of what the test has built: the point shapes of its warped
    frames, and the ``(chart name, point shape)`` of its chart frames and of
    its torus grid blocks (subclasses of ``ChartFrame``)."""
    from seqwarp.chart import ChartFrame
    from seqwarp.warped import WarpedFrame

    built = {WarpedFrame: [], ChartFrame: []}
    for cls in built:

        def counting_init(self, owner, points, *args, _cls=cls, _original=cls.__init__):
            built[_cls].append((type(self), owner, np.shape(points)))
            _original(self, owner, points, *args)

        monkeypatch.setattr(cls, "__init__", counting_init)
    return lambda: (
        [shape for _, _, shape in built[WarpedFrame]],
        [(o.name, shape) for t, o, shape in built[ChartFrame] if t is ChartFrame],
        [(o.name, shape) for t, o, shape in built[ChartFrame] if t is not ChartFrame],
    )


def _one_frame_per_chart(product, n: int) -> list:
    """One frame of ``n`` points for the flat, the inner and each factor chart."""
    from seqwarp.warped import flatten_to_chart, inner_chart

    charts = [flatten_to_chart(product), inner_chart(product), *product.factors]
    return sorted((chart.name, (n, chart.dim)) for chart in charts)


@pytest.mark.parametrize("name", CATALOG)
def test_run_verify_builds_one_warped_frame_per_sample(name, frames_built):
    """One stacked warped frame and one stacked frame per chart over all
    samples serve every check: no one-point frame is built.  The torus
    quadrature's grid blocks are the only other frames."""
    spec = catalog_spec(name)
    report = run_verify(spec, points=4)
    assert report.points == 4
    warped, frames, blocks = frames_built()
    assert warped == [(4, spec.product.dim)]
    assert sorted(frames) == _one_frame_per_chart(spec.product, 4)
    # circle_lambda's lambda average: 128 nodes of its circle, one block, and
    # the block's constant metric computed once, at its first node
    assert blocks == (
        [("circle", (128, 1)), ("circle", (1, 1))] if name == "circle_lambda" else []
    )


@pytest.mark.parametrize("name", CATALOG)
def test_run_classify_builds_one_warped_frame(name, frames_built):
    """``run_classify`` reads ``run_verify``'s context at one sample: one
    warped frame and one flat frame of one point, and no frame beyond the
    factor and inner frames the warped frame makes."""
    spec = catalog_spec(name)
    run_classify(spec)
    warped, frames, blocks = frames_built()
    assert warped == [(1, spec.product.dim)]
    assert sorted(frames) == _one_frame_per_chart(spec.product, 1)
    assert blocks == []


class TestRunClassify:
    def test_sphere_fiber_factor_fit(self):
        result = run_classify(catalog_spec("sphere_fiber"))
        m3 = result["factors"]["m3"]
        assert m3["verdict"] == "einstein"
        assert m3["alpha"] == pytest.approx(1.0, abs=1e-10)

    def test_euclidean_is_flat_einstein(self):
        result = run_classify(catalog_spec("euclidean_product"))
        qe = result["ambient"]["quasi_einstein"]
        assert qe["verdict"] == "einstein"
        assert qe["alpha"] == pytest.approx(0.0, abs=1e-12)

    def test_planted_recovery(self):
        result = run_classify(catalog_spec("planted_qe"))
        qe = result["ambient"]["quasi_einstein"]
        assert qe["verdict"] == "quasi-einstein"
        assert qe["alpha"] == pytest.approx(1.0, abs=1e-8)
        assert qe["beta"] == pytest.approx(-1.0, abs=1e-8)

    def test_point_override(self):
        spec = catalog_spec("euclidean_product")
        result = run_classify(spec, {"x": 0.25})
        assert result["point"]["x"] == 0.25
        with pytest.raises(VerificationInputError, match="unknown coordinate"):
            run_classify(spec, {"zz": 1.0})

    def test_spec_fit_tolerance_reaches_every_fit(self, monkeypatch):
        import seqwarp.verify as verify

        received = []
        for name in ("fit_quasi_einstein", "check_quasi_constant_curvature"):

            def recording(g, tensor, *rest, _name=name, _original=getattr(verify, name)):
                # the tolerance: what follows the tensor, but the curvature fit's QE fits
                received.append((_name, *[x for x in rest if not isinstance(x, list)]))
                return _original(g, tensor, *rest)

            monkeypatch.setattr(verify, name, recording)
        data = json.loads(catalog_path("sphere_fiber").read_text())
        data["tolerances"] = {"fit": 1e-3}
        run_classify(spec_from_dict(data))
        # the ambient fits, then one per factor dimension (1 and 2)
        assert received == [
            ("fit_quasi_einstein", 1e-3),
            ("check_quasi_constant_curvature", 1e-3),
            ("fit_quasi_einstein", 1e-3),
            ("fit_quasi_einstein", 1e-3),
        ]


class TestCli:
    def test_examples_list(self, capsys):
        assert main(["examples", "list"]) == 0
        out = capsys.readouterr().out.split()
        assert out == CATALOG

    def test_examples_run_writes_report(self, tmp_path, capsys):
        out_file = tmp_path / "report.json"
        code = main(["examples", "run", "euclidean_product", "-o", str(out_file)])
        assert code == 0
        data = json.loads(out_file.read_text())
        assert data["overall_pass"] is True
        assert data["tool"] == "seqwarp"
        assert "PASS" in capsys.readouterr().out

    def test_examples_run_unknown_name(self, capsys):
        assert main(["examples", "run", "nope"]) == 2
        assert "unknown example" in capsys.readouterr().err

    def test_verify_spec_file(self, tmp_path, capsys):
        path = tmp_path / "tiny.json"
        path.write_text(json.dumps(minimal_spec()))
        assert main(["verify", str(path), "--points", "4"]) == 0

    def test_verify_identity_failure_exit_code(self, tmp_path):
        data = minimal_spec(warpings={"f": "exp(x)", "h": "1"})
        path = tmp_path / "tiny.json"
        path.write_text(json.dumps(data))
        assert main(["verify", str(path), "--tol", "oracle=1e-30", "--points", "4"]) == 1

    def test_verify_degenerate_exit_code(self, tmp_path, capsys):
        data = minimal_spec()
        data["factors"][0]["metric"] = [["0"]]
        path = tmp_path / "degenerate.json"
        path.write_text(json.dumps(data))
        assert main(["verify", str(path)]) == 2
        assert "degenerate" in capsys.readouterr().err

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning", "ignore:invalid:RuntimeWarning")
    def test_overflowing_metric_derivatives_exit_code(self, tmp_path, capsys):
        # f^2 = exp(680 x): its second derivative passes the float range
        # inside the box, which used to escape as a LinAlgError traceback
        data = minimal_spec(warpings={"f": "exp(340*x)", "h": "1"})
        data["sampling"] = {"boxes": {"x": [1.0, 1.04]}}
        path = tmp_path / "overflow.json"
        path.write_text(json.dumps(data))
        assert main(["verify", str(path)]) == 2
        assert "not finite" in capsys.readouterr().err
        assert main(["classify", str(path), "--at", "x=1.04"]) == 2
        assert "not finite" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "f,box,message,node",
        [
            # valid in the sampling box, negative on part of the circle
            ("0.5 + sin(x)", [0.2, 1.2], "inner warping is -0.0141027441932215", 75),
            # log(0.5 + sin x) leaves its domain at the same node
            ("2 + log(0.5 + sin(x))", [0.2, 1.2], "log of non-positive value", 75),
            # f overflows on the far side of the circle
            ("exp(120*x)", [0.2, 0.3], "not finite", 119),
        ],
    )
    def test_warping_invalid_on_torus_grid_exit_code(self, tmp_path, capsys, f, box, message, node):
        data = minimal_spec(warpings={"f": f, "h": "1"})
        data["factors"][0]["periodic"] = {"x": 2.0 * math.pi}
        data["sampling"]["boxes"] = {"x": box}
        path = tmp_path / "torus.json"
        path.write_text(json.dumps(data))
        assert main(["verify", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert message in err
        assert re.search(rf"at node {node} \[[0-9.]+\] of the 'a' torus grid", err)

    @staticmethod
    def _lines_spec(tmp_path, f="1", metric_w="1", box=None, sampling=None) -> str:
        data = minimal_spec(warpings={"f": f, "h": "1"})
        data["factors"][2] = {"name": "c", "coords": ["w"], "metric": [[metric_w]]}
        if sampling is not None:
            data["sampling"] = sampling
        if box is not None:
            data["sampling"]["boxes"] = box
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(data))
        return str(path)

    @staticmethod
    def _one_line_exit_2(capsys, argv) -> str:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "Traceback" not in err
        return err

    # a warping of nesting height d, per shape of nesting
    NESTED = {
        "sum": lambda d: "2" + "+0*x" * (d - 2),
        "product": lambda d: "2" + "*(1+0.001*x)" * (d - 4),
        "minus": lambda d: "2+" + "-" * (d - 2) + "x",
        "parentheses": lambda d: "2+" + "(" * (d - 2) + "x" + ")" * (d - 2),
        "exponent": lambda d: "2+0*x^" + "^".join(["1"] * (d - 3)),
        "call": lambda d: "2+" + "sin(" * (d - 2) + "x" + ")" * (d - 2),
    }

    @pytest.mark.parametrize("shape", NESTED)
    def test_nesting_limit_exit_code(self, tmp_path, capsys, shape):
        # past the limit, hashing, compiling or differentiating the tree used
        # to end in a RecursionError traceback
        text = self.NESTED[shape]
        path = self._lines_spec(tmp_path, f=text(MAX_NESTING), box={"x": [0.5, 0.9]})
        for command in ("verify", "classify"):
            assert main([command, path]) == 0
        capsys.readouterr()
        path = self._lines_spec(tmp_path, f=text(MAX_NESTING + 1), box={"x": [0.5, 0.9]})
        for command in ("verify", "classify"):
            err = self._one_line_exit_2(capsys, [command, path])
            assert err.startswith(f"error: warpings.f: expression nested deeper than {MAX_NESTING}")

    @pytest.mark.parametrize("exponent", ["1e300", "1e160"])
    def test_huge_integer_exponent_exit_code(self, tmp_path, capsys, exponent):
        # n (n - 1) of the power rule passes the float range: the Hessian of
        # 0*x^n is 0 * inf, not an OverflowError traceback
        path = self._lines_spec(tmp_path, f=f"2 + 0*x^{exponent}", box={"x": [0.5, 0.9]})
        for command in ("verify", "classify"):
            err = self._one_line_exit_2(capsys, [command, path])
            assert "or one of its first two derivatives is not finite at [" in err

    def test_metric_of_the_wrong_signature_on_torus_grid_exit_code(self, tmp_path, capsys):
        # 1 + 2 cos(x) is positive on the sampling box, negative on the far
        # side of the circle, where the lambda grid used to integrate it
        data = minimal_spec(warpings={"f": "2 + sin(x)", "h": "1"})
        data["factors"][0].update(metric=[["1 + 2*cos(x)"]], periodic={"x": 2.0 * math.pi})
        data["sampling"]["boxes"] = {"x": [-0.5, 0.5]}
        path = tmp_path / "torus.json"
        path.write_text(json.dumps(data))
        err = self._one_line_exit_2(capsys, ["verify", str(path)])
        assert err.startswith("error: 'a': expected positive-definite metric, eigenvalues [-0.0")
        assert re.search(r"at node 43 \[2\.11\d*\] of the 'a' torus grid\n$", err)

    @pytest.mark.parametrize("dim,averaged", [(2, True), (4, False)])
    def test_torus_averages_only_up_to_two_dimensions(self, tmp_path, capsys, dim, averaged):
        # a 4-dim grid of 128 nodes a period would hold 268M nodes
        coords = [f"x{i}" for i in range(dim)]
        data = minimal_spec(warpings={"f": "2 + sin(x0)", "h": "1"})
        data["factors"][0] = {
            "name": "a",
            "coords": coords,
            "metric": [["1" if i == j else "0" for j in range(dim)] for i in range(dim)],
            "periodic": {c: 2.0 * math.pi for c in coords},
        }
        path = tmp_path / "torus.json"
        path.write_text(json.dumps(data))
        assert main(["verify", str(path)]) == 0
        assert ("torus_average_lambda" in capsys.readouterr().out) == averaged

    def test_warping_outside_its_domain_exit_code(self, tmp_path, capsys):
        path = self._lines_spec(tmp_path, f="2 + log(x)", box={"x": [-0.5, 1.0]})
        err = self._one_line_exit_2(capsys, ["verify", path])
        assert re.search(r"log of non-positive value -0\.37\d* in 'log\(x\)' at \[-0\.37", err)
        # the warpings are read before the flat metric, so the warping's own
        # frame names the point
        err = self._one_line_exit_2(capsys, ["classify", path, "--at", "x=-0.3"])
        assert "log of non-positive value -0.3 in 'log(x)' at [-0.3]" in err

    def test_factor_metric_outside_its_domain_exit_code(self, tmp_path, capsys):
        path = self._lines_spec(tmp_path, metric_w="1 + sqrt(w)", box={"w": [-1.0, 1.0]})
        err = self._one_line_exit_2(capsys, ["verify", path])
        assert re.search(r"metric of 'c': sqrt of negative value -0\.13\d* in 'sqrt\(w\)' at \[-0\.13", err)

    def test_metric_overflowing_inside_the_fits_exit_code(self, tmp_path, capsys):
        # finite metric jets (d2g reaches 7e307), but the curvature derivatives
        # and the g (x) g basis of the two-coefficient fit overflow
        sampling = {"points": 5, "seed": 3, "boxes": {"x": [1.0, 1.04]}}
        path = self._lines_spec(tmp_path, f="exp(340*x)", sampling=sampling)
        err = self._one_line_exit_2(capsys, ["verify", path])
        assert re.search(r"not finite at sample 1 \[1\.023", err)
        err = self._one_line_exit_2(capsys, ["verify", path, "--points", "1"])
        assert "curvature basis (products of metric entries) is not finite at sample 0 [1.003" in err

    def test_fit_input_error_at_a_later_sample_exit_code(self, tmp_path, capsys):
        # the g (x) g basis overflows where f^4 = exp(1360 x) does, for x > 0.52;
        # samples 0-2 of seed 2 lie below that
        sampling = {"points": 5, "seed": 2, "boxes": {"x": [0.3, 1.0]}}
        path = self._lines_spec(tmp_path, f="exp(340*x)", sampling=sampling)
        err = self._one_line_exit_2(capsys, ["verify", path])
        assert re.search(r"basis \(products of metric entries\) is not finite at sample 3 \[0\.76", err)

    @staticmethod
    def _planted_spec(tmp_path, name: str, planted: dict) -> str:
        data = json.loads(catalog_path(name).read_text())
        data["planted"] = planted
        path = tmp_path / f"{name}_planted.json"
        path.write_text(json.dumps(data))  # writes NaN and Infinity as JSON extensions
        return str(path)

    @pytest.mark.parametrize(
        "planted, field",
        [
            ({"alpha": math.nan, "beta": 0.0}, "planted.alpha"),
            ({"alpha": 0.0, "beta": math.inf}, "planted.beta"),
            ({"alpha": -math.inf, "beta": 0.0}, "planted.alpha"),
            ({"alpha": True, "beta": 0.0}, "planted.alpha"),
            ({"alpha": 0.0, "beta": 0.0, "u": {"x1": math.nan}}, "planted.u.x1"),
            ({"alpha": 0.0, "beta": 0.0, "u": {"x2": False}}, "planted.u.x2"),
        ],
    )
    def test_planted_value_not_a_finite_number_exit_code(self, tmp_path, capsys, planted, field):
        path = self._planted_spec(tmp_path, "exp_warp", planted)
        err = self._one_line_exit_2(capsys, ["verify", path])
        assert err.startswith(f"error: {field}: expected a finite number, got ")

    @pytest.mark.parametrize(
        "key, raw, message",
        [
            ("periodic", "true", "periodic.x: expected a positive finite number, got True"),
            ("periodic", "NaN", "periodic.x: expected a positive finite number, got nan"),
            ("periodic", "Infinity", "periodic.x: expected a positive finite number, got inf"),
            ("periodic", "1e400", "periodic.x: expected a positive finite number, got inf"),
            ("dim", "true", "dim: expected int"),
        ],
        ids=["period-true", "period-nan", "period-infinity", "period-1e400", "dim-true"],
    )
    def test_factor_field_not_a_number_exit_code(self, tmp_path, capsys, key, raw, message):
        data = json.loads(catalog_path("circle_lambda").read_text())
        data["factors"][0][key] = {"x": "@"} if key == "periodic" else "@"
        path = tmp_path / "circle_lambda.json"
        path.write_text(json.dumps(data).replace('"@"', raw))
        err = self._one_line_exit_2(capsys, ["verify", str(path)])
        assert err == f"error: factors[0].{message}\n"

    @pytest.mark.parametrize(
        "name, planted, message",
        [
            (
                "exp_warp",
                {"alpha": 1e308, "beta": 1e308},
                r"lambda_nu_fields lambda is not finite at sample 2 \[0\.587",
            ),
            (
                "planted_qe",
                {"alpha": 1e308, "beta": 1e308},
                r"corollary1_scalars residual is not finite at sample 0 \[2\.659",
            ),
            (
                "exp_warp",
                {"alpha": 1.0, "beta": 1.0, "u": {"x1": 1e200, "x2": 1e200, "x3": 1e200}},
                r"condition1 residual is not finite at sample 0 \[-0\.510",
            ),
            (
                "euclidean_product",
                {"alpha": 1e308, "beta": 0.0},
                r"lambda_nu_fields lambda: the sum over the samples overflows$",
            ),
            (
                "circle_lambda",
                {"alpha": 1e306, "beta": 0.0},
                r"torus_average_lambda residual is not finite on the torus grid",
            ),
        ],
    )
    def test_overflowing_planted_field_or_residual_exit_code(
        self, tmp_path, capsys, name, planted, message
    ):
        path = self._planted_spec(tmp_path, name, planted)
        err = self._one_line_exit_2(capsys, ["verify", path])
        assert re.search(message, err.rstrip("\n")), err

    @staticmethod
    def _large_ssst_spec(tmp_path, h: str) -> str:
        data = json.loads(catalog_path("ssst_basic").read_text())
        data["warpings"]["h"] = h
        data["sampling"]["boxes"]["x"] = [1.0, 1.04]
        path = tmp_path / "large_ssst.json"
        path.write_text(json.dumps(data))
        return str(path)

    @pytest.mark.parametrize(
        "h, message",
        [
            # the fitted beta times h^4 overflows in the M3 identity
            ("cosh(150*x)", r"proposition1_i3 residual is not finite at sample 0 \[1\.025"),
            # as above, and the spacetime checks overflow too
            ("cosh(170*x)", r"proposition1_i3 residual is not finite at sample 1 \[1\.029"),
        ],
    )
    def test_overflowing_proposition1_residual_exit_code(self, tmp_path, capsys, h, message):
        err = self._one_line_exit_2(capsys, ["verify", self._large_ssst_spec(tmp_path, h)])
        assert re.search(message, err), err

    def test_overflowing_proposition1_residual_on_lines_exit_code(self, tmp_path, capsys):
        # the fitted beta times f^4 overflows in the M2 identity
        data = minimal_spec(warpings={"f": "exp(150*x)", "h": "2"})
        data["sampling"]["boxes"] = {"x": [1.0, 1.04]}
        path = tmp_path / "lines.json"
        path.write_text(json.dumps(data))
        err = self._one_line_exit_2(capsys, ["verify", str(path)])
        assert re.search(r"proposition1_i2 residual is not finite at sample \d \[1\.0", err), err

    def test_metric_derivative_overflowing_in_the_scalar_jets_exit_code(self, tmp_path, capsys):
        # a stack of one walks the jets every stack walks: the value of h^2
        # stays finite, its second derivatives overflow to inf
        path = self._large_ssst_spec(tmp_path, "exp(340*x)")
        err = self._one_line_exit_2(capsys, ["verify", path, "--points", "1"])
        assert "or one of its first two derivatives is not finite at [1.025" in err

    def test_large_warping_verifies_exit_code(self, tmp_path, capsys):
        # with h = exp(170 x) the terms of div(H^h) = Ric(grad h, .) + d(Lap h)
        # reach 2.6e83 and their rounding gap 3.4e66: the residual is relative
        # to the terms, as the oracle gaps are, so the valid metric passes
        data = minimal_spec(warpings={"f": "exp(0.3*x)", "h": "exp(170*x)"})
        data["sampling"] = {"points": 10, "boxes": {"x": [1.0, 1.04]}}
        path = tmp_path / "large_warping.json"
        path.write_text(json.dumps(data))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["verify", str(path)]) == 0
        assert "PASS  hessian_divergence" in capsys.readouterr().out

    def test_fit_failure_in_classify_names_the_point(self, tmp_path, capsys):
        sampling = {"points": 5, "seed": 3, "boxes": {"x": [1.0, 1.04]}}
        path = self._lines_spec(tmp_path, f="exp(340*x)", sampling=sampling)
        err = self._one_line_exit_2(capsys, ["classify", path, "--at", "x=1.0034"])
        assert err.endswith(
            "curvature basis (products of metric entries) is not finite at sample 0 "
            "[1.0034, 0.0, 0.0]\n"
        )

    @staticmethod
    def _scaled_lines(tmp_path, scale: str) -> str:
        data = minimal_spec(warpings={"f": "exp(0.3*x)", "h": "exp(x)"})
        for fac in data["factors"]:
            fac["metric"] = [[scale]]
        data["sampling"] = {"points": 10}
        path = tmp_path / f"scaled{scale}.json"
        path.write_text(json.dumps(data))
        return str(path)

    def test_rescaled_metric_is_not_degenerate_exit_code(self, tmp_path, capsys):
        # |det g| of the flattened metric is about 2e-15 at the scale 1e-5:
        # degeneracy is judged relative to the row norms, so the rescaled
        # metric verifies as the unscaled one does
        scaled = self._scaled_lines(tmp_path, "1e-5")
        assert main(["verify", scaled]) == 0
        reports = [run_verify(load_spec(p)) for p in (scaled, self._scaled_lines(tmp_path, "1"))]
        scaled_verdicts, verdicts = (
            [(r.name, r.passed) for r in report.identities if not r.informational]
            for report in reports
        )
        assert scaled_verdicts == verdicts

    def test_large_metric_entries_do_not_overflow_the_degeneracy_test_exit_code(
        self, tmp_path, capsys
    ):
        # with f = 1e100 every metric entry is finite (f^2 = 1e200) but det g
        # of the flattened metric overflows: the degeneracy test reads
        # log |det g| and warns about nothing.  The condition residuals are
        # not scale-aware and overflow, so the run exits 2 there; once they
        # are scale-aware this valid metric may verify with exit 0
        data = json.loads(catalog_path("grw_exponential").read_text())
        data["warpings"]["f"] = "1e100"
        path = tmp_path / "large_entries.json"
        path.write_text(json.dumps(data))
        err = self._one_line_exit_2(capsys, ["verify", str(path)])
        assert "condition2 residual is not finite at sample 0 [0.85" in err

    def test_zero_metric_is_degenerate_exit_code(self, tmp_path, capsys):
        data = minimal_spec()
        data["factors"][0]["metric"] = [["x"]]
        data["sampling"]["boxes"] = {"x": [0.5, 1.5]}
        path = tmp_path / "linear.json"
        path.write_text(json.dumps(data))
        err = self._one_line_exit_2(capsys, ["classify", str(path), "--at", "x=0"])
        assert err.endswith("metric of 'a' is degenerate at [0.0]: |det g| = 0.000e+00\n")

    def test_zero_warping_is_named_before_the_degenerate_flat_metric_exit_code(
        self, tmp_path, capsys
    ):
        # f = 0 makes the flat metric degenerate too; the line names the cause
        path = self._lines_spec(tmp_path, f="x")
        err = self._one_line_exit_2(capsys, ["classify", path, "--at", "x=0"])
        assert err == "error: inner warping is 0.0 (must be positive) at [0.0]\n"

    def test_overflowing_curvature_is_the_fits_input_error_exit_code(self, tmp_path, capsys):
        # finite metric jets whose curvature overflows: classify reads it first
        # inside the fits, verify inside the oracle checks; neither may warn
        data = minimal_spec(warpings={"f": "2 + sin(x)", "h": "1"})
        data["factors"] = [
            {"name": "a", "coords": ["x"], "metric": [["1e-300"]]},
            {"name": "b", "coords": ["y"], "metric": [["1e300"]]},
            {"name": "c", "coords": ["c551"], "metric": [["1/c551"]]},
        ]
        data["sampling"]["boxes"] = {"c551": [100, 101]}
        path = tmp_path / "extreme.json"
        path.write_text(json.dumps(data))
        err = self._one_line_exit_2(capsys, ["classify", str(path)])
        assert err == (
            "error: quasi-Einstein fit input (metric or Ricci tensor) is not finite"
            " at sample 0 [0.0, 0.0, 100.5]\n"
        )
        err = self._one_line_exit_2(capsys, ["verify", str(path)])
        assert "oracle_lemma1_connection residual is not finite at sample 0 [" in err

    @pytest.mark.parametrize(
        "factor, box, message",
        [
            # negative definite at the box centre, the point classify takes
            (
                {"metric": [["x"]]},
                {"x": [-1.0, -0.5]},
                "'a': expected positive-definite metric, eigenvalues [-0.75] at [-0.75]",
            ),
            # the curvature of an asymmetric metric reads its upper triangle
            (
                {"coords": ["x", "y"], "metric": [["1", "0.5"], ["0", "1"]]},
                {},
                "'a': metric entries asymmetric at [0.0, 0.0]",
            ),
            (
                {"metric": [["-1"]]},
                {},
                "'a': expected positive-definite metric, eigenvalues [-1.] at [0.0]",
            ),
            # only validation evaluates a lower entry that differs from its mirror
            (
                {"coords": ["x", "y"], "metric": [["1", "0"], ["sqrt(y)", "1"]]},
                {"y": [-1.0, -0.5]},
                "metric of 'a': sqrt of negative value -0.75 in 'sqrt(y)' at [0.0, -0.75]",
            ),
        ],
        ids=["negative_definite", "asymmetric", "riemannian_minus_one", "lower_entry_domain"],
    )
    def test_invalid_factor_metric_classify_exit_code(self, tmp_path, capsys, factor, box, message):
        data = minimal_spec()
        data["factors"][0].update(factor)
        data["sampling"]["boxes"] = box
        path = tmp_path / "invalid.json"
        path.write_text(json.dumps(data))
        err = self._one_line_exit_2(capsys, ["classify", str(path)])
        assert err == f"error: {message}\n"
        # classify reads verify's context at one sample: the same line, at
        # another point
        number = r"-?\d+\.?\d*(e[-+]?\d+)?"
        assert re.sub(number, "#", self._one_line_exit_2(capsys, ["verify", str(path)])) == (
            re.sub(number, "#", err)
        )

    def test_metric_overflowing_at_a_sample_exit_code(self, tmp_path, capsys):
        path = self._lines_spec(tmp_path, f="exp(800*x)", box={"x": [0.2, 1.2]})
        err = self._one_line_exit_2(capsys, ["verify", path])
        assert "metric of 'a*b*c' is not finite at [0.78" in err
        # an overflow is inf at every N, one point included, and exits 2 with
        # the "not finite" line
        err = self._one_line_exit_2(capsys, ["classify", path, "--at", "x=1.0"])
        assert "is not finite at [1.0, 0.0, 0.0]" in err
        path = self._lines_spec(tmp_path, f="exp(800*x)", box={"x": [0.9, 1.2]})
        err = self._one_line_exit_2(capsys, ["verify", path, "--points", "1"])
        assert "metric of 'a*b*c' is not finite at [0.9" in err

    def test_verify_schema_error_exit_code(self, tmp_path, capsys):
        data = minimal_spec(warpings={"f": "exp(x1", "h": "1"})
        data["factors"][0]["coords"] = ["x1"]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data))
        assert main(["verify", str(path)]) == 2
        assert "offset 6" in capsys.readouterr().err

    def test_classify_at_option(self, tmp_path, capsys):
        path = tmp_path / "tiny.json"
        path.write_text(json.dumps(minimal_spec()))
        out_file = tmp_path / "classify.json"
        code = main(["classify", str(path), "--at", "x=0.5,u=0.1", "-o", str(out_file)])
        assert code == 0
        data = json.loads(out_file.read_text())
        assert data["point"]["x"] == 0.5
        assert "verdict=einstein" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "options, message",
        [
            (["--points", "0"], "points: expected a positive integer, got 0"),
            (["--points", "-3"], "points: expected a positive integer, got -3"),
            (["--seed", "-1"], "seed: expected a non-negative integer, got -1"),
            (["--tol", "oracle=nan"], "--tol: expected a positive finite number, got nan"),
            (["--tol", "oracle=inf"], "--tol: expected a positive finite number, got inf"),
            (["--tol", "oracle=-1"], "--tol: expected a positive finite number, got -1.0"),
            (["--tol", "nosuch=1e-3"], "--tol: unknown tolerance 'nosuch'; expected one of "),
        ],
    )
    def test_invalid_run_parameter_exit_code(self, capsys, options, message):
        path = str(catalog_path("exp_warp"))
        err = self._one_line_exit_2(capsys, ["verify", path, *options])
        assert err.startswith(f"error: {message}")

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("seed", -1, "sampling.seed: expected a non-negative integer, got -1"),
            ("points", True, "sampling.points: expected a positive integer, got True"),
            ("tolerances", {"oracle": math.nan}, "tolerances.oracle: expected a positive finite"),
            ("tolerances", {"fit": math.inf}, "tolerances.fit: expected a positive finite"),
            ("tolerances", {"nosuch": 1e-3}, "tolerances.nosuch: unknown tolerance 'nosuch'"),
            ("boxes", {"x1": [0.0, math.inf]}, "sampling.boxes.x1: expected [lo, hi] of finite"),
            ("boxes", {"x1": [-math.inf, 0.0]}, "sampling.boxes.x1: expected [lo, hi] of finite"),
            # the width overflows in sampling, the midpoint in classify's centre
            ("boxes", {"x1": [-1e308, 1e308]}, "sampling.boxes.x1: hi - lo or lo + hi overflows"),
            ("boxes", {"x1": [1e308, 1.5e308]}, "sampling.boxes.x1: hi - lo or lo + hi overflows"),
        ],
    )
    def test_invalid_spec_run_parameter_exit_code(self, tmp_path, capsys, field, value, message):
        data = json.loads(catalog_path("exp_warp").read_text())
        if field == "tolerances":
            data["tolerances"] = value
        else:
            data.setdefault("sampling", {})[field] = value
        path = tmp_path / "bad_run_parameter.json"
        path.write_text(json.dumps(data))  # NaN and Infinity as Python's json writes them
        for command in ("verify", "classify"):
            err = self._one_line_exit_2(capsys, [command, str(path)])
            assert err.startswith(f"error: {message}")

    @pytest.mark.parametrize("interval", [[-1e308, 1e308], [1e308, 1.5e308]])
    def test_overflowing_time_interval_exit_code(self, tmp_path, capsys, interval):
        data = json.loads(catalog_path("ssst_basic").read_text())
        data["time"]["interval"] = interval
        path = tmp_path / "huge_time.json"
        path.write_text(json.dumps(data))
        for command in ("verify", "classify"):
            err = self._one_line_exit_2(capsys, [command, str(path)])
            assert err == "error: time.interval: hi - lo or lo + hi overflows the float range\n"

    @pytest.mark.parametrize(
        "command",
        [
            ["verify", str(catalog_path("exp_warp"))],
            ["classify", str(catalog_path("exp_warp"))],
            ["examples", "run", "exp_warp"],
        ],
        ids=["verify", "classify", "examples_run"],
    )
    def test_unwritable_output_exit_code(self, tmp_path, capsys, command):
        out = tmp_path / "missing" / "report.json"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main([*command, "-o", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: --output: cannot write {out}: ") and err.count("\n") == 1

    def test_input_error_without_a_field_path(self, tmp_path, capsys):
        # an error of the whole file, or of no file, has no field path to name
        path = tmp_path / "list.json"
        path.write_text("[]")
        assert self._one_line_exit_2(capsys, ["verify", str(path)]) == (
            "error: spec must be a JSON object\n"
        )
        err = self._one_line_exit_2(capsys, ["classify", str(tmp_path)])
        assert err.startswith(f"error: cannot read {tmp_path}: ")
        path.write_text("{")
        err = self._one_line_exit_2(capsys, ["verify", str(path)])
        assert err.startswith("error: invalid JSON: ")
        err = self._one_line_exit_2(capsys, ["examples", "run", "nope"])
        assert err.startswith("error: unknown example 'nope'; available: circle_lambda, ")

    def test_non_finite_point_exit_code(self, tmp_path, capsys):
        path = str(catalog_path("exp_warp"))
        err = self._one_line_exit_2(capsys, ["classify", path, "--at", "x1=nan"])
        assert re.fullmatch(r"error: non-finite point \[nan, [-0-9.e]+, [-0-9.e]+\]\n", err)

    def test_cli_report_bytes_deterministic(self, tmp_path):
        first, second = tmp_path / "a.json", tmp_path / "b.json"
        assert main(["examples", "run", "exp_warp", "-o", str(first), "--points", "6"]) == 0
        assert main(["examples", "run", "exp_warp", "-o", str(second), "--points", "6"]) == 0
        assert first.read_bytes() == second.read_bytes()


def test_spec_level_tolerance_override():
    data = minimal_spec(warpings={"f": "exp(x)", "h": "1"})
    data["tolerances"] = {"oracle": 1e-30}
    from seqwarp.specfile import spec_from_dict
    from seqwarp.verify import run_verify

    report = run_verify(spec_from_dict(data))
    assert report.tolerances["oracle"] == 1e-30
    assert not report.overall_pass
    # command-line overrides outrank the file
    report = run_verify(spec_from_dict(data), tolerances={"oracle": 1e-7})
    assert report.overall_pass


def test_run_verify_checks_its_run_parameters():
    spec = spec_from_dict(minimal_spec())
    for kwargs, message in (
        ({"points": True}, "points: expected a positive integer, got True"),
        ({"seed": 2.0}, "seed: expected a non-negative integer, got 2.0"),
        ({"tolerances": {"fit": 0.0}}, "tolerances.fit: expected a positive finite number"),
        ({"tolerances": {"nosuch": 1e-3}}, "tolerances.nosuch: unknown tolerance 'nosuch'"),
    ):
        with pytest.raises(SpecError, match=re.escape(message)):
            run_verify(spec, **kwargs)
