"""Unit tests for the request tracer's exact aggregates."""

import hashlib
import json

import pytest

from repro.service.tracing import RequestTracer


def test_trace_latency_and_ok():
    tracer = RequestTracer()
    tracer.observe("svc", "svc.op", 3.5)
    tracer.observe("svc", "svc.op", 1.0, False)
    agg = tracer.per_service_op_totals()[("svc", "svc.op")]
    assert agg["latency_s"] == pytest.approx(4.5)
    assert agg["errors"] == 1
    # Only the successful request's latency reaches the histogram.
    hist = tracer.latency_histograms()[("svc", "svc.op")]
    assert hist.count == 1 and hist.maximum == 3.5


def test_counters_and_records():
    tracer = RequestTracer()
    tracer.observe("svc", "svc.op", 1.0)
    tracer.observe("svc", "svc.op", 1.0, False)
    assert tracer.total == 2 and tracer.errors == 1
    assert tracer.per_service_op_totals()[("svc", "svc.op")]["count"] == 2
    assert tracer.client_total == 0


def test_client_calls_tracked_separately():
    tracer = RequestTracer()
    tracer.observe_call("svc", "svc.op", 1.0, retries=2)
    tracer.observe_call("svc", "svc.op", 1.0, False, 3)
    assert tracer.client_total == 2 and tracer.client_errors == 1
    assert tracer.retries == 5
    assert tracer.total == 0 and tracer.per_service_op_totals() == {}
    assert tracer.client_per_op_totals()[("svc", "svc.op")]["count"] == 2


def test_per_op_totals_fold_stage_timings():
    tracer = RequestTracer()
    tracer.observe("svc", "a", 1.0, queue_wait_s=0.5, transfer_s=1.5,
                   size_mb=8.0)
    tracer.observe("svc", "a", 1.0, False, queue_wait_s=0.25, size_mb=2.0)
    tracer.observe("svc", "b", 1.0)
    totals = tracer.per_service_op_totals()
    a = totals[("svc", "a")]
    assert a["count"] == 2 and a["errors"] == 1
    assert a["latency_s"] == pytest.approx(2.0)
    assert a["queue_wait_s"] == pytest.approx(0.75)
    assert a["transfer_s"] == pytest.approx(1.5)
    assert a["size_mb"] == pytest.approx(10.0)
    assert totals[("svc", "b")]["count"] == 1


def test_per_service_op_totals_keep_services_apart():
    tracer = RequestTracer()
    tracer.observe("blob", "get", 1.0)
    tracer.observe("table", "get", 1.0)
    tracer.observe("table", "get", 1.0, False)
    exact = tracer.per_service_op_totals()
    assert exact[("blob", "get")]["count"] == 1
    assert exact[("table", "get")]["count"] == 2
    assert exact[("table", "get")]["errors"] == 1


def test_latency_histograms_skip_failures():
    tracer = RequestTracer()
    for _ in range(200):
        tracer.observe("svc", "svc.op", 0.1)
    tracer.observe("svc", "svc.op", 9.0, False)
    hist = tracer.latency_histograms()[("svc", "svc.op")]
    assert hist.count == 200  # failures excluded
    assert hist.percentile(99) == pytest.approx(0.1, rel=0.03)
    assert tracer.latency_histograms() is not tracer.latency_histograms()


def test_client_latency_histograms_track_call_level_view():
    tracer = RequestTracer()
    tracer.observe_call("svc", "svc.op", 0.5, retries=1)
    tracer.observe_call("svc", "svc.op", 1.0, False, 3)
    hists = tracer.client_latency_histograms()
    assert hists[("svc", "svc.op")].count == 1
    calls = tracer.client_per_op_totals()[("svc", "svc.op")]
    assert calls["count"] == 2 and calls["errors"] == 1
    assert calls["retries"] == 4


def test_disabled_tracer_records_nothing():
    tracer = RequestTracer(enabled=False)
    assert not tracer.enabled
    tracer.observe("svc", "svc.op", 1.0)
    tracer.observe_call("svc", "svc.op", 1.0)
    assert tracer.total == 0 and tracer.client_total == 0
    assert tracer.per_service_op_totals() == {}
    assert tracer.client_per_op_totals() == {}


def test_snapshot_digest_is_pinned():
    """A mixed workload (two services, both kinds, failures, batches on
    both views) serializes to the same bytes as recorded.

    The first pin was recorded through a tracer that kept a window of
    five raw records, so its ``"dropped"`` field read 35 (the records
    trimmed from that window) where the tracer now writes 0; with that
    count put back, the aggregates hash to the first pin unchanged."""
    tracer = RequestTracer()
    for i in range(40):
        service = "blob" if i % 4 == 0 else "table"
        op = "get" if i % 2 else "put"
        started_at = i * 0.25
        latency_s = (started_at + 0.01 * (i + 1)) - started_at
        ok = bool(i % 7)
        if i % 5 == 0:
            tracer.observe_call(service, op, latency_s, ok, i % 3)
        else:
            tracer.observe(
                service, op, latency_s, ok,
                0.001 * i, 0.002 * i, 0.5 * (i % 3),
            )
    tracer.observe_batch(
        "table",
        "get",
        [0.01, 0.02, 0.5],
        queue_waits=[0.001, 0.0, 0.002],
        transfers=[0.1, 0.2, 0.3],
        sizes_mb=[1.0, 1.0, 2.0],
        errors=2,
    )
    tracer.observe_batch("queue", "add", [0.03, 0.04], errors=1, client=True)
    snapshot = tracer.snapshot()
    assert snapshot["dropped"] == 0
    payload = json.dumps(snapshot, sort_keys=True).encode()
    assert hashlib.sha256(payload).hexdigest() == (
        "23d79e2f0b5f6dbffab62118219dc2c7dad1851e6eefbf821d1f469b6cd2c85f"
    )
    windowed = json.dumps({**snapshot, "dropped": 35}, sort_keys=True)
    assert hashlib.sha256(windowed.encode()).hexdigest() == (
        "bf91f4f8c9690322e7e7096f4f0f9ae2c11f044966071cd77e06c4099cfccfb5"
    )
