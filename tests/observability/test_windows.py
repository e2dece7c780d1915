"""Window-invariance properties of the per-minute availability fold.

The campaign fast-forward driver solves stationary windows
independently and folds each as one batch; that is only sound if
splitting a stream of observations at arbitrary window boundaries and
merging the pieces reproduces the unsplit accumulator — and hence the
identical SLO burn.  These tests pin that invariance (and the matching
property of ``Histogram.observe_batch``) over randomized splits.
"""

import numpy as np
import pytest

from repro.observability.histogram import Histogram
from repro.observability.slo import availability_slo, evaluate_slo
from repro.observability.windows import MinuteAvailability


def _random_ops(rng, n_minutes, n_ops):
    minutes = rng.integers(0, n_minutes, size=n_ops)
    ok = rng.random(n_ops) < 0.9
    return minutes, ok


def _split_points(rng, n_ops, n_splits):
    cuts = np.sort(rng.integers(0, n_ops + 1, size=n_splits))
    return [0, *cuts.tolist(), n_ops]


# -- construction / ingestion ------------------------------------------------

def test_rejects_bad_horizons_and_indices():
    with pytest.raises(ValueError):
        MinuteAvailability(0)
    with pytest.raises(ValueError):
        MinuteAvailability(10, window_s=0.0)
    acc = MinuteAvailability(10)
    with pytest.raises(ValueError):
        acc.observe_batch([0, 10], [True, True])
    with pytest.raises(ValueError):
        acc.observe_batch([-1], [True])
    with pytest.raises(ValueError):
        acc.observe_batch([1, 2], [True])


def test_minute_of_clamps_into_the_horizon():
    acc = MinuteAvailability(10)
    assert acc.minute_of(0.0) == 0
    assert acc.minute_of(59.999) == 0
    assert acc.minute_of(60.0) == 1
    # Grace-drain convention: past the horizon lands in the last minute.
    assert acc.minute_of(1e9) == 9


def test_batch_fold_equals_scalar_observes():
    rng = np.random.default_rng(7)
    minutes, ok = _random_ops(rng, 30, 500)
    batch = MinuteAvailability(30)
    batch.observe_batch(minutes, ok)
    scalar = MinuteAvailability(30)
    for m, o in zip(minutes.tolist(), ok.tolist()):
        scalar.observe(m, o)
    assert np.array_equal(batch.ok, scalar.ok)
    assert np.array_equal(batch.total, scalar.total)


# -- the window-invariance property ------------------------------------------

@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_split_windows_merge_to_the_unsplit_accumulator(seed):
    """Folding the stream split at arbitrary boundaries == one fold."""
    rng = np.random.default_rng(seed)
    minutes, ok = _random_ops(rng, 60, 2000)
    whole = MinuteAvailability(60)
    whole.observe_batch(minutes, ok)

    merged = MinuteAvailability(60)
    bounds = _split_points(rng, len(minutes), n_splits=5)
    for lo, hi in zip(bounds, bounds[1:]):
        piece = MinuteAvailability(60)
        piece.observe_batch(minutes[lo:hi], ok[lo:hi])
        merged.merge(piece)

    assert np.array_equal(merged.ok, whole.ok)
    assert np.array_equal(merged.total, whole.total)
    assert merged.minutes == whole.minutes
    assert merged.bad_minutes == whole.bad_minutes
    assert merged.zero_minutes == whole.zero_minutes
    assert merged.worst_minute_availability == (
        whole.worst_minute_availability
    )
    assert merged.mean_minute_availability == (
        whole.mean_minute_availability
    )


@pytest.mark.parametrize("seed", [0, 5])
def test_slo_burn_is_invariant_to_window_boundaries(seed):
    """The availability SLO burn computed from merged split-window
    accumulators equals the unsplit evaluation exactly (integer adds
    commute; the SLO engine sees identical totals)."""
    rng = np.random.default_rng(seed)
    minutes, ok = _random_ops(rng, 45, 1500)
    whole = MinuteAvailability(45)
    whole.observe_batch(minutes, ok)

    merged = MinuteAvailability(45)
    bounds = _split_points(rng, len(minutes), n_splits=7)
    for lo, hi in zip(bounds, bounds[1:]):
        piece = MinuteAvailability(45)
        piece.observe_batch(minutes[lo:hi], ok[lo:hi])
        merged.merge(piece)

    def burn(acc):
        total = int(acc.total.sum())
        return evaluate_slo(availability_slo(0.999), total=total,
                            errors=total - int(acc.ok.sum()))

    a, b = burn(whole), burn(merged)
    assert a.sli == b.sli
    assert a.burn_rate == b.burn_rate
    assert a.budget_consumed == b.budget_consumed
    assert a.passed == b.passed


def test_merge_rejects_mismatched_horizons():
    acc = MinuteAvailability(10)
    with pytest.raises(ValueError):
        acc.merge(MinuteAvailability(11))
    with pytest.raises(ValueError):
        acc.merge(MinuteAvailability(10, window_s=30.0))


# -- the histogram half of the fold ------------------------------------------

@pytest.mark.parametrize("seed", [0, 9])
def test_histogram_batch_fold_is_window_invariant(seed):
    """``Histogram.observe_batch`` over split windows + ``merge`` gives
    the same buckets (and so the same percentiles) as one unsplit
    batch — the latency half of the fast path's batched ingestion."""
    rng = np.random.default_rng(seed)
    values = rng.lognormal(mean=-3.0, sigma=1.0, size=3000)
    whole = Histogram("lat")
    whole.observe_batch(values)

    merged = Histogram("lat")
    bounds = _split_points(rng, len(values), n_splits=6)
    for lo, hi in zip(bounds, bounds[1:]):
        piece = Histogram("lat")
        piece.observe_batch(values[lo:hi])
        merged.merge(piece)

    assert merged._counts == whole._counts
    assert merged.percentile(50) == whole.percentile(50)
    assert merged.percentile(99) == whole.percentile(99)


def test_tally_batch_matches_scalar_tally():
    rng = np.random.default_rng(3)
    values = rng.exponential(0.05, size=400)
    batch = Histogram("t")
    batch.observe_batch(values)
    scalar = Histogram("t")
    for v in values.tolist():
        scalar.observe(v)
    assert batch.count == scalar.count
    assert batch.percentile(50) == scalar.percentile(50)
    assert batch.percentile(99) == scalar.percentile(99)


def _generator_summaries(acc):
    """Worst and mean minute availability, one sampled minute at a time
    over Python ints (the reference the numpy summaries must match)."""
    values = [
        ok / total
        for ok, total in zip(acc.ok.tolist(), acc.total.tolist())
        if total > 0
    ]
    if not values:
        return 1.0, 1.0
    return min(values), sum(values) / len(values)


@pytest.mark.parametrize("seed", range(6))
def test_minute_summaries_match_the_per_minute_loop(seed):
    """Worst and mean minute availability equal, bit for bit, the loop
    over sampled minutes, on a series with empty minutes in it."""
    rng = np.random.default_rng(seed)
    n_minutes = 500
    acc = MinuteAvailability(n_minutes)
    # About a third of the minutes get no operation at all.
    busy = np.flatnonzero(rng.random(n_minutes) < 0.65)
    minutes = rng.choice(busy, size=4000)
    acc.observe_batch(minutes, rng.random(minutes.size) < 0.93)
    assert 0 < acc.minutes < n_minutes
    worst, mean = _generator_summaries(acc)
    assert type(acc.worst_minute_availability) is float
    assert acc.worst_minute_availability == worst
    assert acc.mean_minute_availability == mean


def test_minute_summaries_without_operations():
    acc = MinuteAvailability(30)
    assert acc.worst_minute_availability == 1.0
    assert acc.mean_minute_availability == 1.0
    assert acc.availabilities().size == 0
