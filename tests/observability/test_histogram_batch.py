"""``Histogram.observe_batch`` is bucket-for-bucket the scalar path.

The cohort driver folds thousands of latencies per kernel event through
one vectorized call; percentiles must be *identical* to having observed
each sample in turn (same log-bucket arithmetic), with only the running
sum allowed to differ in the last ulps (pairwise vs sequential
summation).
"""

import math

import numpy as np
import pytest

from repro.observability.histogram import Histogram
from repro.service.tracing import RequestTracer


def _samples(seed, n=5000):
    rng = np.random.default_rng(seed)
    # A hostile mix: zeros, negatives, sub-resolution, the min_value
    # boundary exactly, and a heavy tail.
    parts = [
        rng.exponential(0.05, size=n),
        np.zeros(5),
        np.full(3, -1e-3),
        np.full(4, 1e-9),
        np.full(2, 1e-6),  # == min_value exactly: bucket 0, both paths
        rng.pareto(1.5, size=50) + 1.0,
    ]
    return np.concatenate(parts)


def test_batch_bucket_counts_identical_to_scalar():
    values = _samples(1)
    scalar, batch = Histogram("s"), Histogram("b")
    for v in values:
        scalar.observe(float(v))
    batch.observe_batch(values)
    assert batch._counts == scalar._counts
    assert batch._zero == scalar._zero
    assert batch.count == scalar.count
    assert batch.minimum == scalar.minimum
    assert batch.maximum == scalar.maximum
    assert abs(batch.total - scalar.total) < 1e-9 * max(1.0, abs(scalar.total))


def test_batch_percentiles_identical_to_scalar():
    values = _samples(2)
    scalar, batch = Histogram("s"), Histogram("b")
    for v in values:
        scalar.observe(float(v))
    batch.observe_batch(values)
    for q in (0, 1, 25, 50, 90, 99, 99.9, 100):
        assert batch.percentile(q) == scalar.percentile(q)


def test_batch_interleaves_with_scalar_ingestion():
    hist = Histogram("mixed")
    hist.observe(0.01)
    hist.observe_batch([0.02, 0.03])
    hist.observe(0.04)
    assert hist.count == 4
    assert hist.minimum == 0.01 and hist.maximum == 0.04


def test_empty_and_reshaped_batches():
    hist = Histogram("e")
    hist.observe_batch([])
    assert hist.count == 0
    hist.observe_batch(np.array([[0.01, 0.02], [0.03, 0.04]]))
    assert hist.count == 4


# -- RequestTracer.observe_batch -------------------------------------------


def test_tracer_batch_folds_client_view():
    tracer = RequestTracer()
    lat = np.array([0.01, 0.02, 0.05])
    tracer.observe_batch(
        "account.tables", "table.insert", lat, errors=2, client=True
    )
    assert tracer.client_total == 5
    assert tracer.client_errors == 2
    agg = tracer.client_per_op_totals()[("account.tables", "table.insert")]
    assert agg["count"] == 5 and agg["errors"] == 2
    hist = tracer.client_latency_histograms()[("account.tables", "table.insert")]
    assert hist.count == 3  # errors are not histogrammed
    # The client view only: the server-side view stays empty.
    assert tracer.total == 0 and tracer.per_service_op_totals() == {}


def test_tracer_batch_folds_server_view_with_sums():
    tracer = RequestTracer()
    tracer.observe_batch(
        "account.blobs",
        "blob.download",
        [0.1, 0.3],
        queue_waits=[0.01, 0.02],
        transfers=[0.05, 0.15],
        sizes_mb=[1.0, 2.0],
        errors=1,
    )
    assert tracer.total == 3 and tracer.errors == 1
    agg = tracer.per_service_op_totals()[("account.blobs", "blob.download")]
    assert agg["count"] == 3
    assert abs(agg["latency_s"] - 0.4) < 1e-12
    assert abs(agg["queue_wait_s"] - 0.03) < 1e-12
    assert abs(agg["transfer_s"] - 0.2) < 1e-12
    assert abs(agg["size_mb"] - 3.0) < 1e-12


def test_tracer_batch_matches_scalar_fold():
    """A batch fold must leave the same aggregates and histogram as the
    equivalent sequence of observe_call()s."""
    lat = [0.011, 0.025, 0.04, 0.033]
    scalar, batch = RequestTracer(), RequestTracer()
    for latency in lat:
        scalar.observe_call("svc", "op", latency)
    batch.observe_batch("svc", "op", lat, client=True)
    assert batch.client_total == scalar.client_total
    key = ("svc", "op")
    assert (
        batch.client_latency_histograms()[key]._counts
        == scalar.client_latency_histograms()[key]._counts
    )
    for q in (50, 99):
        assert batch.client_latency_histograms()[key].percentile(
            q
        ) == scalar.client_latency_histograms()[key].percentile(q)


def test_tracer_batch_disabled_is_a_noop():
    tracer = RequestTracer(enabled=False)
    tracer.observe_batch("svc", "op", [0.1], client=True)
    tracer.observe_batch("svc", "op", [0.1])
    assert tracer.total == 0 and tracer.client_total == 0


def test_tracer_batch_empty_is_a_noop():
    tracer = RequestTracer()
    tracer.observe_batch("svc", "op", [], errors=0, client=True)
    assert tracer.client_total == 0 and tracer._client_per_op == {}


# -- edge cases, element by element ----------------------------------------


def _without_name(hist):
    doc = hist.to_dict()
    del doc["name"]
    return doc


def _edge_values():
    hist = Histogram()
    mv, g = hist.min_value, hist.growth
    return np.concatenate([
        [mv * 0.5, mv * 1e-3, np.nextafter(mv, 0.0)],  # (0, min_value)
        [mv, np.nextafter(mv, 1.0)],
        [mv * g ** k for k in range(0, 400, 7)],  # exact bucket edges
        [np.nextafter(mv * g ** k, 0.0) for k in (1, 50, 300)],
        [0.0, -0.0, -1e-3, -5.0],
        np.geomspace(1e-7, 1e4, 997),
    ])


def _scalar(values, name="s"):
    hist = Histogram(name)
    for v in np.asarray(values, dtype=float).reshape(-1):
        hist.observe(float(v))
    return hist


def test_batch_edge_cases_equal_scalar_element_by_element():
    values = _edge_values()
    before = values.copy()
    one_by_one = Histogram("b")
    for v in values:
        one_by_one.observe_batch(np.array([v]))
    # One-element batches sum sequentially, so even ``sum`` matches.
    assert _without_name(one_by_one) == _without_name(_scalar(values))
    whole = Histogram("w")
    whole.observe_batch(values)
    expected = _without_name(_scalar(values))
    got = _without_name(whole)
    assert got.pop("sum") == pytest.approx(expected.pop("sum"), rel=1e-12)
    assert got == expected
    assert np.array_equal(values, before)


@pytest.mark.parametrize(
    "batch",
    [
        np.array([0.02]),
        np.array([[1e-7, 0.5], [0.0, 3e3]]),
        np.array([0, 1, 2, 7, -3, 10_000], dtype=np.int64),
        np.geomspace(1e-7, 1e4, 50).reshape(5, 10),
        [1e-6, 2e-6, 0.0],
    ],
    ids=["one", "2d", "int", "2d-range", "list"],
)
def test_batch_shapes_and_dtypes_equal_scalar(batch):
    before = np.array(batch, copy=True)
    hist = Histogram("b")
    hist.observe_batch(batch)
    got, expected = _without_name(hist), _without_name(_scalar(batch))
    assert got.pop("sum") == pytest.approx(expected.pop("sum"), rel=1e-12)
    assert got == expected
    assert np.array_equal(np.asarray(batch), before)


@pytest.mark.parametrize(
    "bad", [np.inf, -np.inf, np.nan], ids=["inf", "-inf", "nan"]
)
def test_batch_rejects_non_finite_without_mutating(bad):
    hist = Histogram("h")
    hist.observe_batch([0.01, 0.5])
    before = hist.to_dict()
    for batch in ([0.01, bad], [bad], np.array([[0.2, bad], [0.0, -1.0]])):
        with pytest.raises(ValueError, match="non-finite"):
            hist.observe_batch(batch)
        assert hist.to_dict() == before
    if bad != -np.inf:  # the scalar path counts -inf as a zero
        with pytest.raises((ValueError, OverflowError)):
            Histogram().observe(bad)


def _bucket_edge_values(min_value, growth):
    """Values on, and one ulp either side of, bucket edges from
    ``min_value`` up to ``min_value * 1e100``, plus the first values
    above ``min_value``."""
    top = math.log(1e100) / math.log(growth)
    ks = np.unique(np.concatenate([
        np.arange(0, 64),
        np.geomspace(1, top, 400).astype(np.int64),
    ]))
    edges = min_value * growth ** ks.astype(float)
    above_min = [np.nextafter(min_value, np.inf)]
    for _ in range(3):
        above_min.append(np.nextafter(above_min[-1], np.inf))
    return np.concatenate([
        edges,
        np.nextafter(edges, 0.0),
        np.nextafter(edges, np.inf),
        above_min,
        [min_value * (1.0 + 1e-12), min_value * growth * (1.0 - 1e-15)],
    ])


@pytest.mark.parametrize("min_value", [1e-9, 1e-6, 1.0])
@pytest.mark.parametrize("growth", [1.0001, 1.04, 2.0])
def test_batch_equals_scalar_on_every_bucket_edge(growth, min_value):
    values = _bucket_edge_values(min_value, growth)
    rng = np.random.default_rng(7)
    values = np.concatenate([values, rng.permutation(values)])
    scalar = Histogram("h", min_value=min_value, growth=growth)
    for v in values.tolist():
        scalar.observe(v)
    batch = Histogram("h", min_value=min_value, growth=growth)
    batch.observe_batch(values)
    assert batch._counts == scalar._counts
    assert (batch.count, batch.minimum, batch.maximum) == (
        scalar.count, scalar.minimum, scalar.maximum
    )
