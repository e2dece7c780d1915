#!/usr/bin/env python
"""Operate a busy deployment: live metrics over a mixed workload.

Section 6.3: "extensive monitoring and logging facilities are necessary
to not only diagnose problems but also to determine how the application
is behaving."  This example wires gauges onto every service of a
simulated platform, runs a mixed blob/table/queue workload with a
mid-run 503 storm, and prints the dashboard an operator would watch,
then one row per ``(service, op)`` straight from the account's request
tracer: exact counts and mean stage timings, and latency percentiles of
the successful requests.

The final registry state and the tracer's snapshot are then catalogued
as an ``ops`` run record — a content-addressed file in
``catalog-example/`` — so ``repro dash --catalog
catalog-example`` re-renders this run's KPIs long after the process
exits (the run-catalog upgrade of the old print-and-forget loop).

Run:  python examples/ops_dashboard.py
"""

from repro.analysis import ascii_table
from repro.client import BlobClient, QueueClient, TableClient
from repro.resilience.backoff import RetryPolicy
from repro.faults import FaultInjector
from repro.monitoring import (
    MetricsRegistry,
    Sampler,
    render_dashboard,
    request_summary,
)
from repro.storage.table import make_entity
from repro.workloads import build_platform


def main():
    platform = build_platform(seed=13, n_clients=24, racks=4, hosts_per_rack=8)
    env, account = platform.env, platform.account
    account.blobs.create_container("data")
    account.tables.create_table("status")
    account.queues.create_queue("work")

    registry = MetricsRegistry()
    registry.register_gauge(
        "queue.depth", lambda: account.queues.queue_length("work")
    )
    registry.register_gauge(
        "queue.server.active",
        lambda: account.queues.server_for("work").active_requests,
    )
    registry.register_gauge(
        "table.server.active",
        lambda: account.tables.server_for("status", "jobs").active_requests,
    )
    registry.register_gauge(
        "network.flows", lambda: platform.network.active_count
    )
    sampler = Sampler(env, registry, interval_s=5.0)
    sampler.start()

    # Mid-run 503 storm against the table partition.
    injector = FaultInjector(env, platform.streams.stream("drill"))
    injector.attach(account.tables.server_for("status", "jobs"))
    injector.add_window(120.0, 90.0, "server_busy_storm", magnitude=0.4)

    def producer(env, idx):
        queue = QueueClient(account.queues)
        blob = BlobClient(account.blobs, platform.clients[idx])
        for i in range(12):
            yield from blob.upload("data", f"in-{idx}-{i}", 5.0)
            yield from queue.add("work", {"blob": f"in-{idx}-{i}"})
            registry.counter("jobs.submitted").increment()
            yield env.timeout(10.0)

    def worker(env, idx):
        queue = QueueClient(account.queues)
        table = TableClient(account.tables, retry=RetryPolicy(max_retries=6))
        blob = BlobClient(account.blobs, platform.clients[12 + idx])
        while env.now < 420.0:
            try:
                msg = yield from queue.receive("work", visibility_timeout_s=120.0)
            except Exception:  # noqa: BLE001 - empty queue: idle poll
                yield env.timeout(3.0)
                continue
            start = env.now
            retries_before = table.retries
            failed = False
            yield from blob.download("data", msg.payload["blob"])
            try:
                yield from table.insert(
                    "status", make_entity("jobs", f"done-{msg.id}")
                )
            except Exception:  # noqa: BLE001 - counted, the job moves on
                failed = True
            registry.tally("job.latency_s").observe(env.now - start)
            if failed:
                registry.counter("jobs.failed").increment()
            registry.counter("table.retries").increment(
                table.retries - retries_before
            )
            yield from queue.delete("work", msg, msg.pop_receipt)
            registry.counter("jobs.done").increment()

    for idx in range(8):
        env.process(producer(env, idx))
    for idx in range(8):
        env.process(worker(env, idx))
    env.run(until=450.0)

    print(render_dashboard(
        registry,
        title="Dashboard after 7.5 simulated minutes "
              "(503 storm hit the status table at t=120..210s)",
        sampler=sampler,
    ))
    print(f"\n503s injected by the drill: {injector.stats.rejections} "
          "(absorbed by client retries -- visible only in the retry "
          "counter and the latency tallies, which is the paper's point)")
    print()
    print(request_summary(platform.tracer, title="Requests per operation"))
    print()
    print(latency_table(platform.tracer))

    # Catalog the registry snapshot as a durable 'ops' artifact.
    from repro.artifacts import CatalogStore, ops_record, render_dash

    store = CatalogStore("catalog-example")
    run_id = store.put_record(
        ops_record(
            "mixed-workload-503-storm",
            registry.to_dict(),
            tracer_snapshot=platform.tracer.snapshot(),
            spec={"seed": 13, "n_clients": 24, "storm": "t=120..210s"},
        )
    )
    print(f"\ncatalogued as {run_id} in catalog-example/ -- re-render "
          "any time with:\n  python -m repro dash --catalog catalog-example")
    print()
    print(render_dash(store.get_record(run_id)))
    return platform.tracer


def latency_table(tracer):
    """p50/p95/p99 in ms per ``(service, op)``, over successful requests."""
    rows = [
        [service, op, hist.count,
         *(round(hist.percentile(q) * 1000, 1) for q in (50, 95, 99))]
        for (service, op), hist in sorted(tracer.latency_histograms().items())
    ]
    return ascii_table(
        ["service", "op", "ok", "p50_ms", "p95_ms", "p99_ms"],
        rows,
        title="Latency of successful requests",
    )


if __name__ == "__main__":
    main()
