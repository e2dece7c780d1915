"""Tests for the streaming histogram: accuracy, merging, round-trips."""

import numpy as np
import pytest

from repro.monitoring import MetricsRegistry
from repro.observability.histogram import Histogram, merge_histograms


def test_exact_aggregates():
    hist = Histogram("t")
    for v in (0.1, 0.2, 0.4):
        hist.observe(v)
    assert hist.count == 3
    assert hist.total == pytest.approx(0.7)
    assert hist.mean == pytest.approx(0.7 / 3)
    assert hist.minimum == pytest.approx(0.1)
    assert hist.maximum == pytest.approx(0.4)
    assert len(hist) == 3


def test_percentiles_within_relative_error():
    rng = np.random.default_rng(7)
    values = rng.lognormal(mean=-2.0, sigma=1.0, size=5000)
    hist = Histogram("lat")
    hist.observe_batch(values)
    err = np.sqrt(hist.growth) - 1.0
    for q in (50, 90, 95, 99):
        exact = float(np.percentile(values, q))
        approx = hist.percentile(q)
        assert abs(approx - exact) / exact <= err + 0.01, (q, exact, approx)


def test_percentile_extremes_clamp_to_observed():
    hist = Histogram()
    hist.observe_batch([0.25, 0.5, 1.0])
    assert hist.percentile(0) == pytest.approx(0.25)
    assert hist.percentile(100) == pytest.approx(1.0)


def test_zero_and_subresolution_values():
    hist = Histogram(min_value=1e-3)
    hist.observe(0.0)
    hist.observe(-1.0)  # clamped into the zero bucket
    hist.observe(1e-6)
    hist.observe(0.5)
    assert hist.count == 4
    assert hist.percentile(25) == 0.0  # negatives floor at zero
    assert hist.fraction_below(0.0) == pytest.approx(0.5)


def test_merge_matches_union():
    rng = np.random.default_rng(3)
    a_vals = rng.exponential(0.1, size=400)
    b_vals = rng.exponential(0.5, size=600)
    a, b = Histogram("a"), Histogram("b")
    a.observe_batch(a_vals)
    b.observe_batch(b_vals)
    merged = merge_histograms([a, b], name="union")
    union = Histogram("direct")
    union.observe_batch(np.concatenate([a_vals, b_vals]))
    assert merged.count == 1000
    assert merged.total == pytest.approx(union.total)
    for q in (50, 95, 99):
        assert merged.percentile(q) == pytest.approx(union.percentile(q))
    # inputs untouched
    assert a.count == 400 and b.count == 600


def test_merge_rejects_mismatched_shapes():
    with pytest.raises(ValueError):
        Histogram(growth=1.04).merge(Histogram(growth=1.1))


def test_fraction_below():
    hist = Histogram()
    hist.observe_batch([0.1] * 90 + [10.0] * 10)
    assert hist.fraction_below(1.0) == pytest.approx(0.9)
    assert hist.fraction_below(100.0) == pytest.approx(1.0)


def test_dict_round_trip():
    hist = Histogram("rt")
    hist.observe_batch([0.01, 0.2, 3.0, 0.0])
    clone = Histogram.from_dict(hist.to_dict())
    assert clone.count == hist.count
    assert clone.total == pytest.approx(hist.total)
    assert clone.percentile(50) == pytest.approx(hist.percentile(50))
    assert clone.minimum == hist.minimum and clone.maximum == hist.maximum


def test_empty_histogram_raises():
    hist = Histogram("empty")
    for call in (lambda: hist.mean, lambda: hist.percentile(50),
                 lambda: hist.fraction_below(1.0)):
        with pytest.raises(ValueError):
            call()


def test_validation():
    with pytest.raises(ValueError):
        Histogram(min_value=0.0)
    with pytest.raises(ValueError):
        Histogram(growth=1.0)
    hist = Histogram()
    hist.observe(1.0)
    with pytest.raises(ValueError):
        hist.percentile(101)


def test_histogram_tally_surface():
    """A registry latency tally is a plain histogram."""
    tally = MetricsRegistry().tally("lat")
    assert isinstance(tally, Histogram) and tally.name == "lat"
    tally.observe_batch([0.1, 0.2, 0.3])
    assert tally.count == 3 and len(tally) == 3
    assert tally.mean == pytest.approx(0.2)
    assert tally.percentile(50) == pytest.approx(0.2, rel=0.03)
    assert tally.minimum == pytest.approx(0.1)
    assert tally.maximum == pytest.approx(0.3)
    other = Histogram("lat")
    other.observe(0.4)
    tally.merge(other)
    assert tally.count == 4 and tally.maximum == pytest.approx(0.4)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
def test_scalar_observe_rejects_non_finite_without_mutating(bad):
    hist = Histogram("t")
    hist.observe(0.5)
    before = hist.to_dict()
    with pytest.raises(ValueError):
        hist.observe(bad)
    assert hist.to_dict() == before
    assert hist.count == 1 and hist.total == 0.5
