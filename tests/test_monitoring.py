"""Tests for the monitoring module and its integration points."""

import pytest

from repro.monitoring import Counter, MetricsRegistry, Sampler, render_dashboard
from repro.simcore import Environment


def test_counter_increments_only():
    c = Counter("x")
    c.increment()
    c.increment(4.0)
    assert c.value == 5.0
    with pytest.raises(ValueError):
        c.increment(-1.0)


def test_registry_counters_are_singletons():
    reg = MetricsRegistry()
    reg.counter("ops").increment()
    reg.counter("ops").increment()
    assert reg.counter("ops").value == 2.0


def test_gauges_read_live_values():
    reg = MetricsRegistry()
    state = {"depth": 3}
    reg.register_gauge("queue.depth", lambda: state["depth"])
    assert reg.read_gauge("queue.depth") == 3.0
    state["depth"] = 9
    assert reg.read_gauge("queue.depth") == 9.0
    with pytest.raises(ValueError):
        reg.register_gauge("queue.depth", lambda: 0)
    with pytest.raises(KeyError):
        reg.read_gauge("ghost")


def test_tally_percentiles_in_snapshot():
    reg = MetricsRegistry()
    for v in (0.1, 0.2, 0.3):
        reg.tally("lat").observe(v)
    snap = reg.snapshot()
    # Tallies are histogram-backed: percentiles are within the bucket
    # relative error (~2%), while counts stay exact.
    assert snap["latency_p50:lat"] == pytest.approx(0.2, rel=0.03)
    assert "latency_p95:lat" in snap
    assert snap["latency_p99:lat"] == pytest.approx(0.3, rel=0.03)
    assert snap["latency_count:lat"] == 3


def test_sampler_records_series():
    env = Environment()
    reg = MetricsRegistry()
    state = {"v": 0.0}
    reg.register_gauge("load", lambda: state["v"])
    sampler = Sampler(env, reg, interval_s=10.0)
    sampler.start()

    def ramp(env):
        for i in range(5):
            state["v"] = float(i)
            yield env.timeout(10.0)

    env.process(ramp(env))
    # The sampler ticks before the ramp at shared timestamps (it was
    # started first), so sample k sees the value set at tick k-1; run
    # one interval past the last ramp step to observe its final value.
    env.run(until=55.0)
    series = sampler.series["load"]
    assert len(series) == 6
    assert sampler.peak("load") == 4.0
    with pytest.raises(KeyError):
        sampler.peak("ghost")


def test_sampler_validation():
    env = Environment()
    with pytest.raises(ValueError):
        Sampler(env, MetricsRegistry(), interval_s=0.0)


def test_render_dashboard():
    env = Environment()
    reg = MetricsRegistry()
    reg.counter("requests").increment(42)
    reg.register_gauge("active", lambda: 7)
    reg.tally("lat").observe(0.1)
    sampler = Sampler(env, reg, interval_s=1.0)
    sampler.start()
    env.run(until=3.0)
    out = render_dashboard(reg, title="ops", sampler=sampler)
    assert "ops" in out
    assert "counter:requests" in out and "42" in out
    assert "gauge:active" in out
    assert "peak:active" in out
    assert "latency_count:lat" in out and "latency_p99:lat" in out


def test_render_dashboard_empty():
    out = render_dashboard(MetricsRegistry())
    assert "(no metrics)" in out


def test_monitoring_a_live_platform():
    """Wire gauges onto real simulated services."""
    from repro.client import QueueClient
    from repro.simcore import RandomStreams
    from repro.storage import QueueService

    env = Environment()
    svc = QueueService(env, RandomStreams(0).stream("q"))
    svc.create_queue("work")
    reg = MetricsRegistry()
    reg.register_gauge("queue.depth", lambda: svc.queue_length("work"))
    reg.register_gauge(
        "server.active", lambda: svc.server_for("work").active_requests
    )
    sampler = Sampler(env, reg, interval_s=0.5)
    sampler.start()
    client = QueueClient(svc)

    def producer(env):
        for i in range(20):
            yield from client.add("work", i)
            reg.counter("produced").increment()
        yield env.timeout(5.0)
        for _ in range(20):
            msg = yield from client.receive("work")
            yield from client.delete("work", msg, msg.pop_receipt)

    env.process(producer(env))
    env.run(until=30.0)
    assert reg.counter("produced").value == 20
    assert sampler.peak("queue.depth") == 20.0
    assert svc.queue_length("work") == 0


def test_request_summary_breaks_out_services():
    from repro.monitoring import request_summary
    from repro.service.tracing import RequestTracer

    tracer = RequestTracer()
    tracer.observe("blob", "get", 0.2)
    tracer.observe("table", "get", 0.2, False)
    out = request_summary(tracer)
    lines = [line for line in out.splitlines() if "get" in line]
    assert len(lines) == 2  # one row per (service, op), not merged by op
    assert any("blob" in line for line in lines)
    assert any("table" in line for line in lines)
    assert "(no requests)" in request_summary(RequestTracer())


def test_ops_dashboard_example_catalogues_the_live_tracer(
    tmp_path, monkeypatch, capsys
):
    import importlib.util
    import json
    from pathlib import Path

    from repro.artifacts import CatalogStore

    path = Path(__file__).parents[1] / "examples" / "ops_dashboard.py"
    spec = importlib.util.spec_from_file_location("ops_dashboard", path)
    example = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(example)
    monkeypatch.chdir(tmp_path)
    tracer = example.main()
    assert "Requests per operation" in capsys.readouterr().out

    store = CatalogStore(tmp_path / "catalog-example")
    (run,) = store.list_runs()
    snapshot = store.get_record(run["run_id"]).snapshots["tracer"]
    assert snapshot["total"] > 0 and snapshot["client_total"] > 0
    assert snapshot["per_op"] and snapshot["latency"]
    assert snapshot == json.loads(json.dumps(tracer.snapshot()))
