"""Tests for the SLO engine: budgets, burn rates, histogram evaluation."""

import pytest

from repro.observability.histogram import Histogram
from repro.observability.slo import (
    SLO,
    availability_slo,
    evaluate_slo,
    evaluate_slos,
    latency_slo,
)


def test_slo_validation():
    with pytest.raises(ValueError):
        SLO(name="x", kind="availability", target=1.0)
    with pytest.raises(ValueError):
        SLO(name="x", kind="availability", target=0.0)
    with pytest.raises(ValueError):
        SLO(name="x", kind="latency", target=0.9)  # missing threshold
    with pytest.raises(ValueError):
        SLO(name="x", kind="made-up", target=0.9)
    assert availability_slo(0.999).error_budget == pytest.approx(0.001)
    assert latency_slo(0.5, 0.95).name == "latency<500ms"


def test_availability_budget_and_burn_rate():
    result = evaluate_slo(availability_slo(0.99), total=1000, errors=5)
    assert result.sli == pytest.approx(0.995)
    assert result.budget_consumed == pytest.approx(0.5)
    assert result.budget_remaining == pytest.approx(0.5)
    assert result.burn_rate == pytest.approx(0.5)
    assert result.passed


def test_blown_budget():
    result = evaluate_slo(availability_slo(0.99), total=100, errors=3)
    assert result.budget_consumed == pytest.approx(3.0)
    assert result.budget_remaining == 0.0
    assert not result.passed


def test_empty_window_is_vacuously_good():
    result = evaluate_slo(availability_slo(0.99), total=0)
    assert result.sli == 1.0
    assert result.passed
    with pytest.raises(ValueError):
        evaluate_slo(availability_slo(0.99), total=10, errors=11)


def test_latency_slo_counts_failures_as_bad():
    hist = Histogram()
    hist.observe_batch([0.1] * 90)  # successes, all fast
    slo = latency_slo(0.2, target=0.9)
    result = evaluate_slo(slo, total=100, errors=10, histogram=hist)
    # 90 fast successes of 100 total: exactly at target.
    assert result.good == 90
    assert result.passed
    worse = evaluate_slo(slo, total=100, errors=20, histogram=hist)
    assert worse.good == 80  # clamped to the success count
    assert not worse.passed


def test_latency_slo_fraction_from_histogram():
    hist = Histogram()
    hist.observe_batch([0.05] * 950 + [2.0] * 50)
    result = evaluate_slo(
        latency_slo(0.5, target=0.99), total=1000, errors=0, histogram=hist
    )
    assert result.sli == pytest.approx(0.95, rel=0.01)
    assert not result.passed
    assert result.burn_rate == pytest.approx(5.0, rel=0.1)


def test_latency_slo_without_histogram_is_all_bad():
    result = evaluate_slo(latency_slo(0.5, 0.95), total=10, errors=0)
    assert result.sli == 0.0
    assert not result.passed


def test_report_render_and_lookup():
    hist = Histogram()
    hist.observe_batch([0.01] * 100)
    report = evaluate_slos(
        [availability_slo(0.99), latency_slo(0.1, 0.95)],
        total=100,
        errors=0,
        histogram=hist,
        title="unit window",
    )
    assert report.passed
    assert report.worst_burn_rate == pytest.approx(0.0)
    assert report.result("availability").sli == 1.0
    rendered = report.render()
    assert "unit window" in rendered
    assert "burn rate" in rendered and "PASS" in rendered
    with pytest.raises(KeyError):
        report.result("ghost")
