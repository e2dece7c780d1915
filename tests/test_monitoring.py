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
    assert "latency_errors:lat" not in snap
    reg.tally("lat").observe_error()
    assert reg.snapshot()["latency_errors:lat"] == 1


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
    sampler = Sampler(env, reg, interval_s=1.0)
    sampler.start()
    env.run(until=3.0)
    out = render_dashboard(reg, title="ops", sampler=sampler)
    assert "ops" in out
    assert "counter:requests" in out and "42" in out
    assert "gauge:active" in out
    assert "peak:active" in out


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


def test_attach_circuit_breaker_gauges_and_transition_counters():
    from repro.monitoring import attach_circuit_breaker
    from repro.resilience.breaker import CircuitBreaker
    from repro.storage.errors import ServerBusyError

    env = Environment()
    chained = []
    breaker = CircuitBreaker(
        env,
        window=4,
        error_threshold=0.5,
        min_volume=2,
        on_transition=lambda now, old, new: chained.append((old, new)),
    )
    reg = MetricsRegistry()
    attach_circuit_breaker(reg, breaker, prefix="b")
    assert reg.read_gauge("b.state") == 0.0  # closed
    assert reg.read_gauge("b.error_rate") == 0.0
    breaker.on_failure(ServerBusyError("busy"))
    breaker.on_failure(ServerBusyError("busy"))
    assert reg.read_gauge("b.state") == 2.0  # open
    assert reg.read_gauge("b.opens") == 1.0
    assert reg.counter("b.transitions.open").value == 1.0
    # The pre-existing callback still fires (chained, not replaced).
    assert chained == [("closed", "open")]
    with pytest.raises(Exception):
        breaker.guard()
    assert reg.read_gauge("b.fast_failures") == 1.0


def test_attach_retry_budget_gauges():
    from repro.monitoring import attach_retry_budget
    from repro.resilience.budget import RetryBudget

    budget = RetryBudget(ratio=0.5, initial_tokens=1.0, max_tokens=10.0)
    reg = MetricsRegistry()
    attach_retry_budget(reg, budget, prefix="rb")
    assert reg.read_gauge("rb.tokens") == pytest.approx(1.0)
    assert budget.try_spend()
    assert not budget.try_spend()
    budget.record_call()
    assert reg.read_gauge("rb.tokens") == pytest.approx(0.5)
    assert reg.read_gauge("rb.granted") == 1.0
    assert reg.read_gauge("rb.shed") == 1.0


def test_attach_request_tracer_gauges():
    from repro.monitoring import attach_request_tracer
    from repro.service.tracing import RequestTrace, RequestTracer

    tracer = RequestTracer()
    reg = MetricsRegistry()
    attach_request_tracer(reg, tracer)
    trace = RequestTrace(
        service="svc", op="get", started_at=0.0, finished_at=1.0,
        outcome="ok",
    )
    tracer.observe(trace)
    tracer.observe_call(
        RequestTrace(
            service="svc", op="get", started_at=0.0, finished_at=2.0,
            outcome="ServerBusyError", retries=2,
        )
    )
    assert reg.read_gauge("requests.total") == 1.0
    assert reg.read_gauge("requests.recorded") == 1.0
    assert reg.read_gauge("requests.client_total") == 1.0
    assert reg.read_gauge("requests.client_errors") == 1.0
    assert reg.read_gauge("requests.retries") == 2.0


def _service_trace(op="get", outcome=None, latency=0.2, service="blob"):
    from repro.service.tracing import OK, RequestTrace

    outcome = OK if outcome is None else outcome

    return RequestTrace(
        service=service, op=op, started_at=0.0, finished_at=latency,
        outcome=outcome,
    )


def test_ingest_request_traces_folds_latencies_and_errors():
    from repro.monitoring import ingest_request_traces
    from repro.service.tracing import RequestTracer

    tracer = RequestTracer()
    for _ in range(4):
        tracer.observe(_service_trace())
    tracer.observe(_service_trace(outcome="ServerBusyError"))
    reg = MetricsRegistry()
    assert ingest_request_traces(reg, tracer) == 5
    assert reg.tally("requests.get").count == 5
    assert reg.tally("requests.get").errors == 1
    assert reg.snapshot()["latency_errors:requests.get"] == 1


def test_ingest_request_traces_clear_after_is_idempotent():
    from repro.monitoring import ingest_request_traces
    from repro.service.tracing import RequestTracer

    tracer = RequestTracer()
    reg = MetricsRegistry()
    tracer.observe(_service_trace())
    tracer.observe(_service_trace())
    assert ingest_request_traces(reg, tracer, clear_after=True) == 2
    # A second scrape with no new traffic adds nothing...
    assert ingest_request_traces(reg, tracer, clear_after=True) == 0
    assert reg.tally("requests.get").count == 2
    # ...and new records are counted exactly once.
    tracer.observe(_service_trace())
    ingest_request_traces(reg, tracer, clear_after=True)
    assert reg.tally("requests.get").count == 3
    # Without the flag, repeated scrapes double-count.
    tracer.observe(_service_trace())
    ingest_request_traces(reg, tracer)
    ingest_request_traces(reg, tracer)
    assert reg.tally("requests.get").count == 5


def test_request_summary_breaks_out_services():
    from repro.monitoring import request_summary
    from repro.service.tracing import RequestTracer

    tracer = RequestTracer()
    tracer.observe(_service_trace(service="blob", op="get"))
    tracer.observe(_service_trace(service="table", op="get",
                                  outcome="ServerBusyError"))
    out = request_summary(tracer)
    lines = [line for line in out.splitlines() if "get" in line]
    assert len(lines) == 2  # one row per (service, op), not merged by op
    assert any("blob" in line for line in lines)
    assert any("table" in line for line in lines)
    assert "(no requests)" in request_summary(RequestTracer())


def test_render_dashboard_shows_tally_error_counts():
    reg = MetricsRegistry()
    reg.tally("lat").observe(0.1)
    reg.tally("lat").observe_error()
    out = render_dashboard(reg)
    assert "latency_count:lat" in out
    assert "latency_errors:lat" in out
    assert "latency_p99:lat" in out
