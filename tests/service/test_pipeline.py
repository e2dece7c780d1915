"""Unit tests for the unified request pipeline."""

from types import SimpleNamespace

import pytest

from repro.observability.spans import SpanTracer
from repro.service import (
    LatencyProfile,
    OpSpec,
    RequestPipeline,
    RequestTracer,
    TransferSpec,
)
from repro.simcore import Environment, RandomStreams


def _rng(seed=0):
    return RandomStreams(seed).stream("svc")


def _traced():
    """A request tracer carrying a span collector that keeps every span."""
    tracer = RequestTracer()
    tracer.spans = SpanTracer(capacity=None)
    return tracer


def _span(tracer, name):
    (span,) = [s for s in tracer.spans.spans() if s.name == name]
    return span


def drive(env, gen):
    """Run one pipeline request in a process; capture result or error."""
    box = {}

    def proc():
        try:
            box["result"] = yield from gen
        except Exception as exc:  # noqa: BLE001 - tests inspect the error
            box["error"] = exc

    env.process(proc())
    env.run()
    return box


class FakeNetwork:
    """Just enough of FlowNetwork for the transfer stage."""

    def __init__(self, env, duration_s=1.0):
        self.env = env
        self.duration_s = duration_s
        self.flows = []
        self.pokes = 0

    def transfer(self, route, size_mb, label=""):
        self.flows.append((route, size_mb, label))
        return SimpleNamespace(done=self.env.timeout(self.duration_s))

    def poke(self):
        self.pokes += 1


def test_commit_result_is_returned_and_traced():
    env = Environment()
    tracer = RequestTracer()
    pipe = RequestPipeline(env, _rng(), service="svc", tracer=tracer)
    box = drive(env, pipe.execute("svc.op", commit=lambda: "payload"))
    assert box["result"] == "payload"
    assert tracer.total == 1 and tracer.errors == 0
    (key,) = tracer.per_service_op_totals()
    assert key == ("svc", "svc.op")
    assert tracer.per_service_op_totals()[key]["latency_s"] == 0.0
    assert tracer.latency_histograms()[key].count == 1


def test_base_latency_draw_is_fixed_plus_jitter():
    env = Environment()
    tracer = _traced()
    pipe = RequestPipeline(
        env,
        _rng(),
        service="svc",
        latency=LatencyProfile(fixed_frac=0.8, jitter_frac=0.2),
        tracer=tracer,
    )
    drive(env, pipe.execute("svc.op", base_latency_s=1.0))
    delay = _span(tracer, "stage:base_latency").duration_s
    # At least the fixed floor, plus a nonnegative exponential draw.
    assert delay >= 0.8
    assert env.now == pytest.approx(delay)


def test_lazy_op_evaluates_after_base_latency():
    from repro.storage import PartitionServer

    env = Environment()
    server = PartitionServer(env, _rng(1), frontend_c_s=0.0)
    pipe = RequestPipeline(
        env, _rng(), service="svc", router=lambda key: server
    )
    seen = []

    def make_spec():
        seen.append(env.now)
        return OpSpec(name="op", cpu_s=0.1, deterministic=True)

    drive(
        env,
        pipe.execute("svc.op", make_spec, base_latency_s=1.0, route="k"),
    )
    # The spec was built after the latency delay, not at call time.
    assert len(seen) == 1 and seen[0] >= 0.8


def test_routed_op_measures_queue_wait():
    from repro.storage import PartitionServer

    env = Environment()
    tracer = _traced()
    server = PartitionServer(env, _rng(1), frontend_c_s=0.0)
    pipe = RequestPipeline(
        env, _rng(), service="svc", router=lambda key: server, tracer=tracer
    )
    op = OpSpec(name="w", exclusive_s=1.0, latch_key="k", deterministic=True)
    for i in range(2):
        env.process(pipe.execute(f"svc.w{i}", op, route="k"))
    env.run()
    totals = tracer.per_service_op_totals()
    assert totals[("svc", "svc.w0")]["queue_wait_s"] == pytest.approx(0.0)
    # The second request sat on the latch while the first held it.
    assert totals[("svc", "svc.w1")]["queue_wait_s"] == pytest.approx(1.0)
    routing = {
        s.parent_id: s for s in tracer.spans.spans()
        if s.name == "stage:routing"
    }
    second = routing[_span(tracer, "svc.svc.w1").span_id]
    assert second.duration_s == pytest.approx(2.0)


def test_route_without_router_raises():
    env = Environment()
    pipe = RequestPipeline(env, _rng(), service="svc")
    box = drive(env, pipe.execute("svc.op", route="k"))
    assert isinstance(box["error"], ValueError)


def test_routed_op_requires_spec():
    env = Environment()
    pipe = RequestPipeline(
        env, _rng(), service="svc", router=lambda key: None
    )
    box = drive(env, pipe.execute("svc.op", None, route="k"))
    assert isinstance(box["error"], ValueError)


def test_transfer_runs_flow_with_connection_accounting():
    env = Environment()
    tracer = RequestTracer()
    network = FakeNetwork(env, duration_s=2.0)
    pipe = RequestPipeline(
        env, _rng(), service="svc", network=network, tracer=tracer
    )
    conns = []
    spec = TransferSpec(
        route=("a", "b"),
        size_mb=64.0,
        label="xfer",
        acquire=lambda: conns.append("+"),
        release=lambda: conns.append("-"),
    )
    drive(env, pipe.execute("svc.get", transfer=lambda: spec))
    assert network.flows == [(("a", "b"), 64.0, "xfer")]
    assert conns == ["+", "-"]
    assert network.pokes == 1
    totals = tracer.per_service_op_totals()[("svc", "svc.get")]
    assert totals["transfer_s"] == pytest.approx(2.0)
    assert totals["size_mb"] == 64.0


def test_transfer_without_network_raises():
    env = Environment()
    pipe = RequestPipeline(env, _rng(), service="svc")
    box = drive(
        env,
        pipe.execute(
            "svc.get", transfer=TransferSpec(route=("a",), size_mb=1.0)
        ),
    )
    assert isinstance(box["error"], ValueError)


def test_failed_request_traces_outcome_and_reraises():
    env = Environment()
    tracer = _traced()
    pipe = RequestPipeline(env, _rng(), service="svc", tracer=tracer)

    def bad_commit():
        raise KeyError("nope")

    box = drive(env, pipe.execute("svc.op", commit=bad_commit))
    assert isinstance(box["error"], KeyError)
    assert tracer.total == 1 and tracer.errors == 1
    assert tracer.per_service_op_totals()[("svc", "svc.op")]["errors"] == 1
    assert tracer.latency_histograms() == {}  # failures skip the histogram
    server = _span(tracer, "svc.svc.op")
    assert server.status == "KeyError" and not server.ok


def test_precheck_runs_before_routing():
    env = Environment()
    order = []
    pipe = RequestPipeline(
        env,
        _rng(),
        service="svc",
        router=lambda key: order.append("route"),
    )

    def precheck():
        order.append("precheck")
        raise RuntimeError("reject early")

    box = drive(env, pipe.execute("svc.op", precheck=precheck, route="k"))
    assert isinstance(box["error"], RuntimeError)
    assert order == ["precheck"]


def test_fault_injector_read_from_owner():
    env = Environment()
    owner = SimpleNamespace(fault_injector=None)
    pipe = RequestPipeline(env, _rng(), service="svc", owner=owner)
    assert pipe.fault_injector is None
    sentinel = object()
    owner.fault_injector = sentinel
    assert pipe.fault_injector is sentinel


def test_work_stage_advances_clock():
    env = Environment()
    tracer = RequestTracer()
    pipe = RequestPipeline(env, _rng(), service="svc", tracer=tracer)
    drive(env, pipe.execute("svc.copy", work_s=3.5))
    assert env.now == pytest.approx(3.5)
    totals = tracer.per_service_op_totals()[("svc", "svc.copy")]
    assert totals["latency_s"] == pytest.approx(3.5)


def _contended_run(with_spans):
    """Twelve jittered requests queueing for one core and two latches.

    Returns the request tracer, the span tracer (or None) and the
    partition server's per-request return values in completion order.
    Each request has its own op kind, so the tracer's per-op aggregates
    are per-request, in completion order.
    """
    from repro.storage import PartitionServer

    returned = []

    class RecordingServer(PartitionServer):
        def execute(self, op, observer=None):
            waited = yield from super().execute(op, observer)
            returned.append(waited)
            return waited

    env = Environment()
    tracer = RequestTracer()
    spans = SpanTracer(capacity=None) if with_spans else None
    tracer.spans = spans
    server = RecordingServer(env, _rng(1), cores=1)
    pipe = RequestPipeline(
        env, _rng(2), service="svc", router=lambda key: server, tracer=tracer
    )
    for i in range(12):
        op = OpSpec(
            name="op",
            cpu_s=0.2,
            exclusive_s=0.3 if i % 3 else 0.0,
            latch_key=f"k{i % 2}",
        )
        env.process(
            pipe.execute(f"op{i}", op, base_latency_s=0.01 * i, route="k")
        )
    env.run()
    return tracer, spans, returned


def _queue_waits(tracer):
    """Each op kind's queue wait, in the order the kinds first finished."""
    return {
        op: agg["queue_wait_s"]
        for (_, op), agg in tracer.per_service_op_totals().items()
    }


def test_queue_wait_is_the_same_with_spans_on_and_off():
    plain, _, plain_returned = _contended_run(with_spans=False)
    traced, spans, traced_returned = _contended_run(with_spans=True)
    per_op = _queue_waits(plain)
    assert list(_queue_waits(traced).items()) == list(per_op.items())
    waits = list(per_op.values())
    assert sum(w > 0 for w in waits) >= 6  # the run really contends
    # The pipeline takes queue_wait_s from the server's return value.
    assert plain_returned == traced_returned == waits

    # ... which is the sum of the request's cpu_wait/latch_wait spans.
    all_spans = spans.spans()
    by_id = {s.span_id: s for s in all_spans}
    span_wait = {}
    for s in all_spans:
        if s.name in ("cpu_wait", "latch_wait"):
            op = by_id[by_id[s.parent_id].parent_id].attributes["op"]
            span_wait[op] = span_wait.get(op, 0.0) + s.duration_s
    assert len(span_wait) == 12  # every request waits for the core
    for op, wait in per_op.items():
        assert span_wait[op] == pytest.approx(wait, abs=1e-12)
