"""Unit tests for the bounded request tracer."""

import hashlib
import json

import pytest

from repro.service.tracing import OK, RequestTrace, RequestTracer


def _trace(op="svc.op", outcome=OK, **kw):
    defaults = dict(
        service="svc",
        op=op,
        started_at=0.0,
        finished_at=1.0,
        outcome=outcome,
    )
    defaults.update(kw)
    return RequestTrace(**defaults)


def test_trace_latency_and_ok():
    t = _trace(started_at=2.0, finished_at=5.5)
    assert t.latency_s == pytest.approx(3.5)
    assert t.ok
    assert not _trace(outcome="OperationTimeoutError").ok


def test_capacity_must_be_positive():
    with pytest.raises(ValueError):
        RequestTracer(capacity=0)
    # None = unbounded is allowed.
    RequestTracer(capacity=None)


def test_counters_and_records():
    tracer = RequestTracer()
    tracer.observe(_trace())
    tracer.observe(_trace(outcome="ServerBusyError"))
    assert tracer.total == 2 and tracer.errors == 1
    assert len(tracer.records()) == 2
    assert tracer.client_total == 0


def test_client_calls_tracked_separately():
    tracer = RequestTracer()
    tracer.observe_call(_trace(retries=2))
    tracer.observe_call(_trace(outcome="ClientTimeoutError", retries=3))
    assert tracer.client_total == 2 and tracer.client_errors == 1
    assert tracer.retries == 5
    assert tracer.records() == []
    assert len(tracer.client_calls()) == 2


def test_capacity_trimming_keeps_aggregates_exact():
    tracer = RequestTracer(capacity=100)
    for i in range(500):
        tracer.observe(_trace(started_at=float(i), finished_at=i + 1.0))
    assert tracer.total == 500
    assert tracer.dropped > 0
    retained = tracer.records()
    assert len(retained) <= 100 + 25  # capacity + one trim block
    assert len(retained) + tracer.dropped == 500
    # Newest records win.
    assert retained[-1].started_at == 499.0
    # Aggregates never trim.
    totals = tracer.per_service_op_totals()[("svc", "svc.op")]
    assert totals["count"] == 500
    assert totals["latency_s"] == pytest.approx(500.0)


def test_per_op_totals_fold_stage_timings():
    tracer = RequestTracer()
    tracer.observe(
        _trace(op="a", queue_wait_s=0.5, transfer_s=1.5, size_mb=8.0)
    )
    tracer.observe(
        _trace(op="a", outcome="X", queue_wait_s=0.25, size_mb=2.0)
    )
    tracer.observe(_trace(op="b"))
    totals = tracer.per_service_op_totals()
    a = totals[("svc", "a")]
    assert a["count"] == 2 and a["errors"] == 1
    assert a["queue_wait_s"] == pytest.approx(0.75)
    assert a["transfer_s"] == pytest.approx(1.5)
    assert a["size_mb"] == pytest.approx(10.0)
    assert totals[("svc", "b")]["count"] == 1


def test_per_service_op_totals_keep_services_apart():
    tracer = RequestTracer()
    tracer.observe(_trace(service="blob", op="get"))
    tracer.observe(_trace(service="table", op="get"))
    tracer.observe(
        _trace(service="table", op="get", outcome="ServerBusyError")
    )
    exact = tracer.per_service_op_totals()
    assert exact[("blob", "get")]["count"] == 1
    assert exact[("table", "get")]["count"] == 2
    assert exact[("table", "get")]["errors"] == 1


def test_latency_histograms_survive_trimming_and_skip_failures():
    tracer = RequestTracer(capacity=10)
    for i in range(200):
        tracer.observe(_trace(started_at=0.0, finished_at=0.1))
    tracer.observe(_trace(outcome="ServerBusyError", finished_at=9.0))
    assert tracer.dropped > 0
    hist = tracer.latency_histograms()[("svc", "svc.op")]
    assert hist.count == 200  # failures excluded, trimming irrelevant
    assert hist.percentile(99) == pytest.approx(0.1, rel=0.03)
    assert tracer.latency_histograms() is not tracer.latency_histograms()


def test_client_latency_histograms_track_call_level_view():
    tracer = RequestTracer()
    tracer.observe_call(_trace(started_at=0.0, finished_at=0.5, retries=1))
    tracer.observe_call(_trace(outcome="ClientTimeoutError", retries=3))
    hists = tracer.client_latency_histograms()
    assert hists[("svc", "svc.op")].count == 1
    calls = tracer.client_per_op_totals()[("svc", "svc.op")]
    assert calls["count"] == 2 and calls["errors"] == 1
    assert calls["retries"] == 4


def test_disabled_tracer_records_nothing():
    tracer = RequestTracer(enabled=False)
    assert not tracer.enabled
    tracer.observe(_trace())
    tracer.observe_call(_trace())
    assert tracer.total == 0 and tracer.client_total == 0
    assert tracer.records() == []


def test_clear_resets_everything():
    tracer = RequestTracer(capacity=10)
    for i in range(50):
        tracer.observe(_trace())
    tracer.observe_call(_trace(retries=1))
    tracer.clear()
    assert tracer.total == 0 and tracer.errors == 0
    assert tracer.dropped == 0 and tracer.retries == 0
    assert tracer.records() == [] and tracer.client_calls() == []
    assert tracer.per_service_op_totals() == {}


def test_mixed_kind_trimming_keeps_newest_of_both_kinds():
    """Server and client records share one window: the block trim drops
    the oldest records whatever their kind, and each reader filters its
    own kind out of what is left, oldest first."""
    tracer = RequestTracer(capacity=8)
    for i in range(23):
        trace = _trace(started_at=float(i), finished_at=i + 0.5, retries=i % 2)
        if i % 3 == 0:
            tracer.observe_call(trace)
        else:
            tracer.observe(trace)
    assert [t.started_at for t in tracer.records()] == [
        14.0, 16.0, 17.0, 19.0, 20.0, 22.0,
    ]
    assert [t.started_at for t in tracer.client_calls()] == [
        15.0, 18.0, 21.0,
    ]
    assert tracer.dropped == 14
    assert tracer.total == 15 and tracer.client_total == 8


def test_snapshot_digest_is_pinned():
    """A mixed workload (two services, both kinds, failures, batches on
    both views, trimming) serializes to the same bytes as recorded."""
    tracer = RequestTracer(capacity=5)
    for i in range(40):
        trace = RequestTrace(
            service="blob" if i % 4 == 0 else "table",
            op="get" if i % 2 else "put",
            started_at=i * 0.25,
            finished_at=i * 0.25 + 0.01 * (i + 1),
            queue_wait_s=0.001 * i,
            transfer_s=0.002 * i,
            size_mb=0.5 * (i % 3),
            retries=i % 3,
            outcome=OK if i % 7 else "ServerBusyError",
        )
        if i % 5 == 0:
            tracer.observe_call(trace)
        else:
            tracer.observe(trace)
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
    payload = json.dumps(tracer.snapshot(), sort_keys=True).encode()
    assert hashlib.sha256(payload).hexdigest() == (
        "bf91f4f8c9690322e7e7096f4f0f9ae2c11f044966071cd77e06c4099cfccfb5"
    )
    assert tracer.dropped == 35
