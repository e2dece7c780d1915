"""Soak test: every subsystem running together under fault pressure.

One simulated platform hosts, simultaneously:

* a blob-backed producer/consumer pipeline through a queue,
* a table-status workload,
* TCP endpoint probes between placed VMs,
* background traffic,
* a mid-run 503 storm AND a latency spike,
* an autoscaling-style fleet change (workers join late).

The assertions are conservation and consistency invariants -- exactly
the properties long-running cloud apps rely on.
"""

import pytest

from repro.client import BlobClient, QueueClient, TableClient, TcpEndpointPair
from repro.resilience.backoff import LinearBackoff, RetryPolicy
from repro.cluster import SpilloverPlacement, VMInstance, make_nodes
from repro.cluster.sizes import get_size
from repro.faults import FaultInjector
from repro.network import LatencyModel
from repro.storage.table import make_entity
from repro.workloads import build_platform

pytestmark = pytest.mark.slow


def test_full_platform_soak():
    platform = build_platform(seed=99, n_clients=32, racks=8,
                              hosts_per_rack=8)
    env, account = platform.env, platform.account
    account.blobs.create_container("soak")
    account.tables.create_table("status")
    account.queues.create_queue("jobs")

    injector = FaultInjector(env, platform.streams.stream("soak.faults"))
    injector.attach(account.tables.server_for("status", "pk"))
    injector.attach(account.queues.server_for("jobs"))
    injector.add_window(300.0, 200.0, "server_busy_storm", magnitude=0.3)
    injector.add_window(700.0, 150.0, "latency_spike", magnitude=0.5)

    state = {
        "produced": 0, "consumed": 0, "uploads": 0, "downloads": 0,
        "status_rows": 0, "pings": 0, "errors": 0,
    }
    retry = RetryPolicy(max_retries=8, strategy=LinearBackoff(0.5))

    def producer(env, idx):
        queue = QueueClient(account.queues, retry=retry)
        blob = BlobClient(account.blobs, platform.clients[idx])
        for i in range(15):
            name = f"obj-{idx}-{i}"
            yield from blob.upload("soak", name, 2.0)
            state["uploads"] += 1
            yield from queue.add("jobs", name)
            state["produced"] += 1
            yield env.timeout(8.0)

    def consumer(env, idx, start_delay=0.0):
        yield env.timeout(start_delay)
        queue = QueueClient(account.queues, retry=retry)
        table = TableClient(account.tables, retry=retry)
        blob = BlobClient(account.blobs, platform.clients[16 + idx])
        while state["consumed"] < state["produced"] or env.now < 1300.0:
            try:
                msg = yield from queue.receive(
                    "jobs", visibility_timeout_s=300.0
                )
            except Exception:  # noqa: BLE001 - empty queue
                yield env.timeout(5.0)
                continue
            try:
                yield from blob.download("soak", msg.payload)
                state["downloads"] += 1
                yield from table.insert(
                    "status", make_entity("pk", f"done-{msg.id}")
                )
                state["status_rows"] += 1
                yield from queue.delete("jobs", msg, msg.pop_receipt)
                state["consumed"] += 1
            except Exception:  # noqa: BLE001 - storms leak through retries
                state["errors"] += 1
                yield from queue.delete("jobs", msg, msg.pop_receipt)
                yield from queue.add("jobs", msg.payload)

    # TCP probes between placed VMs, sharing the same network.
    nodes = make_nodes(platform.datacenter)
    placement = SpilloverPlacement(
        nodes, platform.streams.stream("soak.place")
    )
    vm_a = VMInstance("worker", get_size("small"), 0)
    vm_b = VMInstance("worker", get_size("small"), 0)
    placement.place(vm_a)
    placement.place(vm_b)
    pair = TcpEndpointPair(
        platform.network, platform.datacenter,
        LatencyModel(platform.streams.stream("soak.lat")), vm_a, vm_b,
    )

    def prober(env):
        while env.now < 1200.0:
            rtt = yield from pair.ping()
            assert 0 < rtt < 0.5
            state["pings"] += 1
            yield env.timeout(20.0)

    for idx in range(8):
        env.process(producer(env, idx))
    for idx in range(6):
        env.process(consumer(env, idx))
    # Late fleet expansion: four more consumers join mid-run.
    for idx in range(6, 10):
        env.process(consumer(env, idx, start_delay=600.0))
    env.process(prober(env))
    env.run(until=3000.0)

    # -- conservation invariants --------------------------------------------
    assert state["produced"] == 8 * 15
    assert state["uploads"] == state["produced"]
    assert state["consumed"] == state["produced"]
    assert state["status_rows"] >= state["consumed"]
    assert account.queues.queue_length("jobs") == 0
    assert account.blobs.blob_count("soak") == state["uploads"]
    assert account.tables.entity_count("status") == state["status_rows"]
    assert state["pings"] >= 50
    # The storm had to actually fire for this soak to mean anything.
    assert injector.stats.rejections + injector.stats.delays_applied > 0
    # And the platform is quiescent: no leaked flows or server work.
    assert platform.network.active_count == 0
    for server in account.tables._servers.values():
        assert server.active_requests == 0
