"""End-to-end span tracing over the real request path.

The acceptance shape: a platform run with spans enabled produces causal
trees nesting client call → attempt → server pipeline → stages →
partition/network, while the simulation's results stay bit-identical
with tracing on or off.
"""

import dataclasses

from repro.observability.export import to_chrome_trace
from repro.workloads.blob_bench import run_blob_test
from repro.workloads.harness import build_platform


def _by_id(spans):
    return {s.span_id: s for s in spans}


def _kind_chain(span, by_id):
    kinds = []
    cursor = span
    while cursor.parent_id is not None:
        cursor = by_id[cursor.parent_id]
        kinds.append(cursor.kind)
    return kinds


def test_blob_run_emits_nested_traces_and_stays_bit_identical():
    traced = build_platform(seed=3, n_clients=2, spans=True)
    result_traced = run_blob_test(
        "download", n_clients=2, size_mb=1.0, seed=3, platform=traced
    )
    plain = build_platform(seed=3, n_clients=2)
    result_plain = run_blob_test(
        "download", n_clients=2, size_mb=1.0, seed=3, platform=plain
    )
    assert dataclasses.asdict(result_traced) == dataclasses.asdict(
        result_plain
    )
    assert plain.spans is None

    spans = traced.spans.spans()
    assert traced.spans.open_spans() == []
    by_id = _by_id(spans)
    # One trace per client call, each nesting the full path.
    traces = traced.spans.traces()
    assert len(traces) == 2
    for members in traces.values():
        kinds = {s.kind for s in members}
        assert {"client", "attempt", "server", "stage", "flow"} <= kinds
    stage = next(s for s in spans if s.name == "stage:transfer")
    assert _kind_chain(stage, by_id) == ["server", "attempt", "client"]
    flow = next(s for s in spans if s.kind == "flow")
    assert _kind_chain(flow, by_id) == ["stage", "server", "attempt", "client"]
    # Parents contain their children in time.
    for span in spans:
        if span.parent_id is not None:
            parent = by_id[span.parent_id]
            assert parent.start_s <= span.start_s + 1e-9
            assert parent.end_s >= span.end_s - 1e-9


def test_routed_op_emits_wait_and_work_spans():
    from repro.client import TableClient
    from repro.storage.table import make_entity

    platform = build_platform(seed=5, n_clients=1, spans=True)
    account = platform.account
    account.tables.create_table("t")
    client = TableClient(account.tables)
    env = platform.env

    def run():
        for i in range(8):
            yield from client.insert(
                "t", make_entity("p", f"k{i}", size_kb=8.0)
            )

    env.process(run())
    env.run()
    spans = platform.spans.spans()
    routing = [s for s in spans if s.name == "stage:routing"]
    assert len(routing) == 8
    by_id = _by_id(spans)
    # Partition observer stages land under the routing stage.
    server_side = [
        s for s in spans
        if s.parent_id is not None
        and by_id[s.parent_id].name == "stage:routing"
    ]
    assert server_side, "expected partition observer spans under routing"
    assert {s.kind for s in server_side} <= {"wait", "stage"}


def test_failed_call_closes_spans_with_error_status():
    from repro.client import BlobClient
    from repro.resilience.backoff import NO_RETRY
    from repro.storage.errors import BlobNotFoundError

    platform = build_platform(seed=1, n_clients=1, spans=True)
    blob_svc = platform.account.blobs
    blob_svc.create_container("c")
    client = BlobClient(blob_svc, platform.clients[0], retry=NO_RETRY)
    env = platform.env
    caught = []

    def run():
        try:
            yield from client.download("c", "missing")
        except BlobNotFoundError as exc:
            caught.append(exc)

    env.process(run())
    env.run()
    assert caught
    spans = platform.spans.spans()
    call = next(s for s in spans if s.kind == "client")
    assert call.status == "BlobNotFoundError"
    assert platform.spans.errors >= 1
    assert platform.spans.open_spans() == []


def test_retry_gets_a_fresh_attempt_span():
    from repro.client import TableClient
    from repro.faults import FaultInjector
    from repro.storage.table import make_entity

    platform = build_platform(seed=2, n_clients=1, spans=True)
    account = platform.account
    account.tables.create_table("t")
    server = account.tables.server_for("t", "p")
    injector = FaultInjector(env=platform.env,
                             rng=platform.streams.stream("faults"))
    injector.attach(server)
    injector.add_window(0.0, 1e9, "error_burst", 1.0)
    client = TableClient(account.tables, timeout_s=30.0)
    env = platform.env
    errors = []

    def run():
        try:
            yield from client.insert("t", make_entity("p", "k", size_kb=1.0))
        except Exception as exc:  # noqa: BLE001 - asserted below
            errors.append(exc)

    env.process(run())
    env.run()
    assert errors  # the burst outlasted every retry
    attempts = [s for s in platform.spans.spans() if s.kind == "attempt"]
    assert len(attempts) == client.retries + 1
    assert all(a.finished for a in attempts)


def test_chrome_export_of_platform_run_passes_schema_check(tmp_path):
    import json
    import subprocess
    import sys
    from pathlib import Path

    from repro.observability.export import write_chrome_trace

    platform = build_platform(seed=3, n_clients=2, spans=True)
    run_blob_test("download", n_clients=2, size_mb=1.0, seed=3,
                  platform=platform)
    path = write_chrome_trace(tmp_path / "t.json", platform.spans.spans())
    json.loads(path.read_text())  # valid JSON document
    repo = Path(__file__).resolve().parents[2]
    proc = subprocess.run(
        [sys.executable, str(repo / "tools" / "check_trace_schema.py"),
         str(path)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert "trace schema OK" in proc.stdout


def test_hedged_reads_get_parallel_attempt_lanes():
    from repro.client import BlobClient
    from repro.faults import FaultInjector
    from repro.resilience.backoff import NO_RETRY
    from repro.resilience.hedging import HedgePolicy

    platform = build_platform(seed=7, n_clients=1, spans=True)
    blob_svc = platform.account.blobs
    blob_svc.create_container("c")
    blob_svc.seed_blob("c", "hot", 2.0)
    injector = FaultInjector(platform.env, platform.streams.stream("faults"))
    injector.attach(blob_svc)
    injector.add_window(0.0, 1e9, "latency_spike", 1.5)
    hedge = HedgePolicy(percentile=90.0, default_delay_s=0.2)
    client = BlobClient(blob_svc, platform.clients[0], retry=NO_RETRY,
                        hedge=hedge)
    env = platform.env

    def reader():
        for _ in range(30):
            yield from client.download("c", "hot")
            yield env.timeout(1.0)

    env.process(reader())
    env.run()
    assert hedge.launched > 0
    spans = platform.spans.spans()
    attempts = [s for s in spans if s.kind == "attempt"]
    assert len(attempts) == 30 + hedge.launched
    # Hedge losers are torn down and marked, not leaked.
    assert platform.spans.open_spans() == []
    doc = to_chrome_trace(spans)
    # Some trace has two attempt lanes (primary + hedge leg).
    lanes_per_trace = {}
    for event in doc["traceEvents"]:
        if event["cat"] == "attempt":
            lanes_per_trace.setdefault(event["pid"], set()).add(event["tid"])
    assert any(len(lanes) == 2 for lanes in lanes_per_trace.values())
