"""Every bench on the unified harness emits per-request traces, and the
trace log is retrievable through the monitoring layer (the acceptance
contract for the single request-path runtime)."""

import pytest

from repro.monitoring import (
    MetricsRegistry,
    attach_request_tracer,
    ingest_request_traces,
    request_summary,
)
from repro.workloads.blob_bench import run_blob_test
from repro.workloads.harness import ClientRun, build_platform, sweep
from repro.workloads.queue_bench import run_queue_test
from repro.workloads.table_bench import run_table_test


def _totals_by_op(tracer):
    # Each bench drives one service, so the op kind alone is a unique key.
    return {op: agg for (_, op), agg in tracer.per_service_op_totals().items()}


def test_platform_carries_the_account_tracer():
    p = build_platform(seed=0, n_clients=1)
    assert p.tracer is p.account.tracer
    assert p.tracer.enabled


def test_blob_bench_emits_request_traces():
    p = build_platform(seed=0, n_clients=2)
    run_blob_test("download", 2, size_mb=64.0, platform=p)
    # Server-side records use the wire op kind ...
    downloads = [t for t in p.tracer.records() if t.op == "blob.get"]
    assert len(downloads) == 2
    assert all(t.ok and t.size_mb == 64.0 for t in downloads)
    assert all(t.transfer_s > 0 for t in downloads)
    # ... and the client-call records riding the same tracer use the
    # client API kind, carrying retry counts.
    assert p.tracer.client_total == 2
    assert {t.op for t in p.tracer.client_calls()} == {"blob.download"}


def test_table_bench_emits_request_traces_with_queue_waits():
    p = build_platform(seed=0, n_clients=4)
    ops = {"insert": 5, "query": 3, "update": 2, "delete": 5}
    run_table_test(4, entity_kb=4.0, ops_per_client=ops, platform=p)
    totals = _totals_by_op(p.tracer)
    assert totals["table.insert"]["count"] == 20
    assert totals["table.query"]["count"] == 12
    assert totals["table.update"]["count"] == 8
    assert totals["table.delete"]["count"] == 20
    # Four clients hammering one partition must queue somewhere.
    waited = sum(t["queue_wait_s"] for t in totals.values())
    assert waited > 0


def test_queue_bench_emits_request_traces():
    p = build_platform(seed=0, n_clients=2)
    run_queue_test("receive", 2, ops_per_client=5, platform=p)
    totals = _totals_by_op(p.tracer)
    assert totals["queue.receive"]["count"] == 10
    assert totals["queue.receive"]["errors"] == 0


def test_traces_flow_into_monitoring():
    p = build_platform(seed=0, n_clients=2)
    run_queue_test("add", 2, ops_per_client=4, platform=p)

    registry = MetricsRegistry()
    attach_request_tracer(registry, p.tracer)
    snapshot = registry.snapshot()
    assert snapshot["gauge:requests.total"] == p.tracer.total > 0
    assert snapshot["gauge:requests.errors"] == 0
    assert snapshot["gauge:requests.client_total"] == 8

    ingested = ingest_request_traces(registry, p.tracer)
    assert ingested == p.tracer.total
    assert "latency_p50:requests.queue.add" in registry.snapshot()

    summary = request_summary(p.tracer)
    assert "queue.add" in summary
    assert "mean_latency_s" in summary


def test_sweep_merges_results_in_level_order():
    levels = [1, 2]
    out = sweep(
        run_queue_test,
        [("add", n, 0.5, 2, None, n) for n in levels],
        levels,
    )
    assert sorted(out) == levels
    assert all(out[n].n_clients == n for n in levels)


def test_client_run_rates():
    run = ClientRun(client=0, ops_completed=10, elapsed_s=2.0)
    assert run.ops_per_s == pytest.approx(5.0)
    assert run.finished
    failed = ClientRun(0, 3, 1.0, error="ServerBusyError")
    assert not failed.finished
    zero = ClientRun(0, 0, 0.0)
    assert zero.ops_per_s == 0.0
