"""Serialization round-trips for the observability snapshots.

The catalog stores tracer/registry snapshots as JSON payloads; these
tests pin the round-trip contract: dict → JSON → dict restores every
aggregate exactly and every histogram bucket-for-bucket.
"""

import json

import numpy as np
import pytest

from repro.monitoring import MetricsRegistry, request_summary
from repro.observability.histogram import Histogram
from repro.service.tracing import RequestTracer


def _json_round_trip(doc):
    return json.loads(json.dumps(doc))


def _observe(tracer, service, op, latency, ok=True):
    tracer.observe(
        service, op, latency, ok,
        queue_wait_s=latency / 10, transfer_s=latency / 5, size_mb=1.5,
    )


@pytest.fixture()
def tracer():
    tracer = RequestTracer()
    rng = np.random.default_rng(11)
    for i in range(200):
        lat = float(rng.lognormal(-3.0, 0.5))
        _observe(tracer, "account.blobs", "blob.download", lat)
        tracer.observe_call(
            "account.blobs", "blob.download", lat * 1.1, retries=i % 3
        )
    _observe(tracer, "account.queues", "queue.add", 0.05, ok=False)
    tracer.observe_batch(
        "account.tables", "table.insert",
        rng.lognormal(-4.0, 0.3, size=500), errors=7, client=True,
    )
    return tracer


def test_tracer_snapshot_round_trip(tracer):
    doc = _json_round_trip(tracer.snapshot())
    restored = RequestTracer.from_snapshot(doc)
    assert restored.total == tracer.total
    assert restored.errors == tracer.errors
    assert restored.client_total == tracer.client_total
    assert restored.client_errors == tracer.client_errors
    assert restored.retries == tracer.retries
    assert restored.per_service_op_totals() == (
        tracer.per_service_op_totals()
    )
    assert restored.client_per_op_totals() == tracer.client_per_op_totals()


def test_tracer_histograms_round_trip_bucket_for_bucket(tracer):
    doc = _json_round_trip(tracer.snapshot())
    restored = RequestTracer.from_snapshot(doc)
    for view in ("latency_histograms", "client_latency_histograms"):
        orig = getattr(tracer, view)()
        back = getattr(restored, view)()
        assert set(back) == set(orig)
        for key, hist in orig.items():
            assert back[key].to_dict() == hist.to_dict()
            for q in (50, 95, 99):
                assert back[key].percentile(q) == hist.percentile(q)


def test_snapshot_key_encoding_handles_dotted_names(tracer):
    # Service names ("account.blobs") and ops ("blob.download") both
    # contain dots; the snapshot keys must keep them separable.
    doc = tracer.snapshot()
    assert "account.blobs|blob.download" in doc["per_op"]
    restored = RequestTracer.from_snapshot(_json_round_trip(doc))
    assert ("account.blobs", "blob.download") in (
        restored.per_service_op_totals()
    )


def test_request_summary_identical_after_round_trip(tracer):
    restored = RequestTracer.from_snapshot(
        _json_round_trip(tracer.snapshot())
    )
    assert request_summary(restored) == request_summary(tracer)


def test_tracer_snapshot_omits_raw_records(tracer):
    doc = tracer.snapshot()
    # Counters, per-op aggregates and histograms only; "dropped" stays
    # in the format, at 0, so catalogued snapshots keep their bytes.
    assert sorted(doc) == [
        "client_errors", "client_latency", "client_per_op", "client_total",
        "dropped", "errors", "latency", "per_op", "retries", "total",
    ]
    assert doc["dropped"] == 0
    # A payload from a tracer that kept a record window still loads.
    restored = RequestTracer.from_snapshot(
        _json_round_trip({**doc, "dropped": 17})
    )
    assert restored.snapshot() == _json_round_trip(doc)


def test_histogram_tally_round_trip():
    tally = Histogram("lat")
    rng = np.random.default_rng(5)
    tally.observe_batch(rng.lognormal(-3.0, 1.0, size=1000))
    tally.observe(0.0)  # zero bucket
    restored = Histogram.from_dict(_json_round_trip(tally.to_dict()))
    assert restored.count == tally.count
    assert restored.to_dict() == tally.to_dict()
    assert restored.percentile(99) == tally.percentile(99)


def test_empty_histogram_round_trip():
    hist = Histogram("empty")
    restored = Histogram.from_dict(_json_round_trip(hist.to_dict()))
    assert restored.count == 0
    assert restored.to_dict() == hist.to_dict()


def test_registry_round_trip():
    registry = MetricsRegistry()
    registry.counter("jobs.done").increment(42)
    registry.register_gauge("queue.depth", lambda: 17.0)
    tally = registry.tally("job.latency_s")
    tally.observe_batch(np.linspace(0.01, 0.5, 100))
    doc = _json_round_trip(registry.to_dict())
    assert doc["counters"] == {"jobs.done": 42}
    # Gauges freeze to the value they held at to_dict() time.
    assert doc["gauges"] == {"queue.depth": 17.0}
    restored = Histogram.from_dict(doc["tallies"]["job.latency_s"])
    assert restored.to_dict() == _json_round_trip(tally.to_dict())
    # The flat values block mirrors snapshot() for catalog consumers.
    assert doc["values"] == _json_round_trip(registry.snapshot())
