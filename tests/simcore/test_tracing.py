"""Unit tests for tallies and time series."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.simcore import Tally, TimeSeries
from repro.simcore import tracing


def test_tally_summary_statistics():
    t = Tally("lat")
    for value in (4.0, 1.0, 3.0, 2.0):
        t.observe(value)
    assert t.count == 4
    assert t.percentile(0) == 1.0
    assert t.percentile(50) == 2.5
    assert t.percentile(100) == 4.0


def test_empty_tally_raises():
    t = Tally("empty")
    with pytest.raises(ValueError):
        t.percentile(50)
    assert t.count == 0


def test_tally_rejects_nan():
    t = Tally("lat")
    t.observe(1.0)
    with pytest.raises(ValueError, match="NaN"):
        t.observe(float("nan"))
    # The rejected value left no trace.
    t.observe(2.0)
    assert t.count == 2
    assert (t.percentile(0), t.percentile(100)) == (1.0, 2.0)


def test_tally_percentile_rejects_q_out_of_range():
    t = Tally()
    t.observe(3.0)
    t.observe(-1.0)
    for q in (-0.1, 100.1, float("nan")):
        with pytest.raises(ValueError):
            t.percentile(q)


_Q = st.one_of(
    st.sampled_from([0.0, 100.0, 33.3, 50.0, 90.0, 95.0, 99.0, 99.9]),
    st.integers(0, 100),
    st.floats(0.0, 100.0),
)
# Integer-valued floats force ties; a few distinct magnitudes mix in.
_X = st.one_of(
    st.integers(-5, 5).map(float),
    st.floats(-1e6, 1e6, allow_nan=False),
    st.sampled_from([-1e300, 1e300, 5e-324, math.inf, -math.inf]),
)


def _same(got, want):
    """``==``, except that NaN (numpy's lerp of an infinity) matches
    NaN.  Zeros of either sign tie, so their order in the sorted samples,
    and the sign of a returned zero, is not defined."""
    return got == want or (math.isnan(got) and math.isnan(want))


@given(st.lists(st.tuples(_X, st.lists(_Q, max_size=3)),
                min_size=1, max_size=120))
@settings(max_examples=150, deadline=None)
def test_property_tally_percentile_bit_identical_to_numpy(steps):
    t = Tally()
    xs = []
    for value, qs in steps:
        t.observe(value)
        xs.append(value)
        arr = np.asarray(xs)
        for q in (0, 100, *qs):
            with np.errstate(invalid="ignore"):
                want = float(np.percentile(arr, q))
            assert _same(t.percentile(q), want), (q, xs)
    assert t.count == len(xs)


def test_tally_hot_path_materializes_no_array(monkeypatch):
    def boom(*args, **kwargs):
        raise AssertionError("Tally built a numpy array on the hot path")

    monkeypatch.setattr(tracing.np, "percentile", boom)
    monkeypatch.setattr(tracing.np, "asarray", boom)
    rng = np.random.default_rng(3)
    values = rng.lognormal(-3.0, 1.0, 3000).tolist()
    t = Tally("hedge.latency")
    for value in values:
        t.observe(value)
        t.percentile(99.0)
    monkeypatch.undo()
    assert t.percentile(99.0) == float(np.percentile(values, 99.0))


def test_timeseries_records_in_order():
    ts = TimeSeries("daily")
    ts.record(0.0, 1.0)
    ts.record(1.0, 2.0)
    assert list(ts) == [(0.0, 1.0), (1.0, 2.0)]
    assert len(ts) == 2
    with pytest.raises(ValueError):
        ts.record(0.5, 9.9)
