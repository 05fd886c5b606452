"""Self-tests of the benchmark's generators, output check and tracer.

Run from the repository root:  PYTHONPATH=src python -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import run  # noqa: E402
import seqwarp  # noqa: E402
import tracer  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from seqwarp.chart import validate_factor_at  # noqa: E402
from seqwarp.warped import flatten_to_chart  # noqa: E402


@pytest.mark.parametrize("k", sorted(workloads.SWEEP_POINTS))
def test_dim_sweep_specs_are_valid_at_ambient_dim_3k(k):
    spec = seqwarp.spec_from_dict(workloads.sweep_spec_dict(k))
    assert spec.product.dim == 3 * k
    for seed in range(3):
        samples = spec.sample_points(5, seed)
        validate_factor_at(flatten_to_chart(spec.product), samples)
        for fac, sl in zip(spec.product.factors, spec.product.block_slices):
            validate_factor_at(fac, samples[:, sl])


def test_dim_sweep_smallest_spec_passes_verify():
    spec = seqwarp.spec_from_dict(workloads.sweep_spec_dict(2))
    assert seqwarp.run_verify(spec, points=2, seed=0).overall_pass


def test_torus_spec_runs_both_torus_averages():
    spec = seqwarp.spec_from_dict(workloads.TORUS_SPEC)
    report = seqwarp.run_verify(spec, points=1, seed=0)
    by_name = {r.name: r for r in report.identities}
    assert by_name["torus_average_lambda"].passed
    assert by_name["torus_average_nu"].passed
    assert by_name["torus_average_nu"].points == seqwarp.verify.TORUS_NODES**2
    assert report.overall_pass


def test_workload_ops_are_deterministic_in_the_seed():
    first = [(op.input_id, op.points) for op in workloads.build("classify", 3)]
    assert first == [(op.input_id, op.points) for op in workloads.build("classify", 3)]
    assert len(first) == 9 * workloads.CLASSIFY_QUERIES_PER_SPEC
    ids = [op.input_id for op in workloads.build("catalog", 0)]
    assert len(ids) == 10 and ids[-1] == "generic_outer_warp"


def test_output_check_flags_generic_catalog_input_as_known_defect():
    # ROADMAP open item 1 at the seed commit: the closed-form Ricci drops the
    # M1-M2 cross block, so this valid metric gets a FAIL verdict.
    op = next(op for op in workloads.build("catalog", 0) if op.input_id == "generic_outer_warp")
    checker = worker.Checker()
    checker.run(op)
    assert checker.failed == 1
    assert checker.failures == {"generic_outer_warp": ["oracle_lemma3_ricci", "ricci_cross_blocks"]}
    assert checker.unexpected == []


def _fake(input_id, outputs, failing=()):
    texts = iter(outputs)
    return workloads.Op(input_id, lambda: next(texts), lambda text: (text, list(failing)), 1)


def test_output_check_flags_unexpected_verdicts_raises_and_changed_bytes():
    checker = worker.Checker()
    checker.run(_fake("steady", ["a"]))
    checker.run(_fake("wrong_verdict", ["a"], failing=["oracle_lemma2_curvature"]))
    checker.run(_fake("generic_outer_warp", ["a"], failing=["oracle_lemma2_curvature"]))

    def boom():
        raise ValueError("bad input")

    checker.run(workloads.Op("raises", boom, None, 1))
    drifting = _fake("drifting", ["a", "b"])
    checker.run(drifting)
    checker.run(drifting)
    assert checker.attempted == 6
    assert checker.failed == 4
    assert checker.failures["drifting"] == ["output bytes differ between passes"]
    assert checker.failures["raises"] == ["raised ValueError: bad input"]
    assert checker.unexpected == ["wrong_verdict", "generic_outer_warp", "raises", "drifting"]


def _originals():
    out = []
    for _, module_name, path in tracer.SPANS:
        owner = sys.modules[module_name]
        if "." in path:
            cls_name, path = path.split(".")
            owner = getattr(owner, cls_name).__dict__
        else:
            owner = vars(owner)
        out.append(owner[path])
    return out


def test_tracing_keeps_report_bytes_and_restores_every_attribute():
    spec = seqwarp.load_spec(workloads.CATALOG_DIR / "circle_lambda.json")
    op = workloads._verify_op("circle_lambda", spec, 2, 5)
    before = op.check(op.run())[0]
    originals = _originals()
    einsum = seqwarp.chart.np.einsum
    t = tracer.Tracer()
    t.install()
    try:
        t.op = 1
        traced = op.check(op.run())[0]
    finally:
        t.uninstall()
    assert traced == before
    assert op.check(op.run())[0] == before
    assert all(a is b for a, b in zip(_originals(), originals))
    assert seqwarp.chart.np.einsum is einsum
    assert seqwarp.verify.fit_quasi_einstein is seqwarp.classify.fit_quasi_einstein
    rows = t.per_op()[1]
    assert rows["verify.run_verify"][0] == 1
    assert rows["classify.torus_average_identity"][0] == 1
    assert t.counts[1]["chart.frames_built"] > 0
    assert t.counts[1]["chart.einsum.calls"] > 0
    # self times add up to the top-level spans' wall time
    assert sum(r[1] for r in rows.values()) == pytest.approx(sum(r[2] for r in rows.values()))


def test_trace_mode_reports_every_declared_per_layer_metric():
    declared = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    result = worker.trace("classify", 0, 0.2)
    assert {m["name"] for m in declared["per_layer"]} <= set(result["metrics"])
    assert all(m["unit"] == run.metric_unit(m["name"]) for m in declared["per_layer"])
    assert result["selftime_ok"]
    assert result["unexpected"] == []
    assert result["metrics"]["specfile.load_spec.calls"] > 0
    Path(BENCH.parent / result["span_file"]).unlink()
