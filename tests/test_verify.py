"""The reducer that turns each check's per-sample residuals into one report."""

import numpy as np
import pytest

from seqwarp.classify import FIT_OVERFLOW, IdentityReport, QEFit, Residual
from seqwarp.cli import catalog_names, catalog_spec
from seqwarp.verify import VerificationInputError, _reduce, run_verify

SAMPLES = np.arange(12.0).reshape(6, 2)


def test_residual_is_the_worst_sample():
    values = np.array([0.1, 0.4, 0.2, 0.0, 0.3, 0.0])
    report = _reduce(Residual("plain", values, 0.35, details={"k": 1}), SAMPLES)
    assert (report.name, report.max_residual, report.tolerance) == ("plain", 0.4, 0.35)
    assert (report.points, report.passed, report.informational) == (6, False, False)
    assert report.details == {"k": 1}


def test_first_five_window():
    values = np.array([0.1, 0.2, 0.3, 0.4, 0.5, np.inf])
    window = np.arange(6) < 5
    report = _reduce(Residual("window", values, 1.0, over=window, informational=True), SAMPLES)
    # the sixth sample is outside the window: neither its value nor its overflow counts
    assert (report.max_residual, report.points, report.passed) == (0.5, 5, True)
    assert report.informational


def test_no_covered_sample_is_informational():
    residual = Residual("none", np.full(6, 7.0), 1.0, over=np.zeros(6, dtype=bool))
    report = _reduce(residual, SAMPLES)
    assert (report.max_residual, report.points, report.passed) == (0.0, 0, True)
    assert report.informational


def scaled(premise) -> Residual:
    fits = [
        QEFit("quasi-einstein", float(i), 0.5, None, None, 1, 0.0, 1.0, ()) for i in range(6)
    ]
    return Residual(
        "ratio",
        # a sample where the premise fails never counts, whatever its value
        np.array([50.0, 1.0, 80.0, 6.0, 3.0, np.nan]),
        np.array([1.0, 2.0, 1.0, 4.0, 1.0, 1.0]),
        over=np.asarray(premise),
        scaled=True,
        details={
            "sign": np.array([9, 1, 9, 2, 3, 9]),
            "note": ["a", "b", "c", "d", "e", "f"],
            "fit": fits,
        },
        cause=FIT_OVERFLOW,
    )


def test_scaled_residual_is_the_worst_ratio_where_the_premise_held():
    report = _reduce(scaled([False, True, False, True, True, False]), SAMPLES)
    # ratios 0.5, 1.5 and 3.0 at samples 1, 3 and 4
    assert (report.max_residual, report.tolerance, report.points) == (3.0, 1.0, 6)
    assert not report.passed and not report.informational
    # details come from the first sample where the premise held, as plain values
    assert report.details == {
        "sign": 1,
        "note": "b",
        "fit": scaled([True] * 6).details["fit"][1].summary(),
        "points_with_premise": 3,
        "scaled_residual": True,
    }
    assert type(report.details["sign"]) is int


def test_scaled_residual_without_premise_is_informational_with_sample_0_details():
    report = _reduce(scaled([False] * 6), SAMPLES)
    assert (report.max_residual, report.points, report.passed) == (0.0, 6, True)
    assert report.informational
    assert (report.details["sign"], report.details["note"]) == (9, "a")
    assert report.details["fit"]["alpha"] == 0.0
    assert report.details["points_with_premise"] == 0


@pytest.mark.parametrize("is_scaled", [False, True])
def test_residual_not_finite_names_the_first_covered_sample(is_scaled):
    values = np.array([0.1, np.inf, 0.2, np.nan, 0.0, 0.0])
    with pytest.raises(
        VerificationInputError,
        match=r"^bad residual is not finite at sample 1 \[2\.0, 3\.0\]: "
        r"the metric or its derivatives overflow there$",
    ):
        _reduce(Residual("bad", values, 1.0, scaled=is_scaled), SAMPLES)
    over = np.array([True, False, True, True, True, True])
    with pytest.raises(
        VerificationInputError,
        match=r"^bad residual is not finite at sample 3 \[6\.0, 7\.0\]: "
        r"the alpha, beta and U used overflow there$",
    ):
        residual = Residual("bad", values, 1.0, over=over, scaled=is_scaled, cause=FIT_OVERFLOW)
        _reduce(residual, SAMPLES)


@pytest.mark.parametrize("points", [3, 30, 300])
def test_one_report_object_per_identity(points, monkeypatch):
    """However many samples, ``run_verify`` builds one ``IdentityReport``
    per entry of the report."""
    built = []
    original = IdentityReport.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        original(self, *args, **kwargs)

    monkeypatch.setattr(IdentityReport, "__init__", counting_init)
    for name in catalog_names():
        built.clear()
        report = run_verify(catalog_spec(name), points=points)
        assert len(built) == len(report.identities), name
