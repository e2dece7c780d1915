"""Benchmark: the Section 6.1 recommendations, quantified via the
public client API.

* replicate hot blobs and stripe readers over the copies;
* upload large blobs as parallel block streams;
* split fan-in across multiple queues.
"""

from repro.analysis import ascii_table
from repro.client.parallel import StripedReader, parallel_upload, replicate_blob
from repro.network import Datacenter, FlowNetwork
from repro.simcore import Environment, RandomStreams
from repro.storage import BlobService
from repro.workloads.queue_bench import run_queue_test


class _EP:
    def __init__(self, host):
        self.nic_tx, self.nic_rx = host.nic_tx, host.nic_rx


def _striped_aggregate(copies: int, n_readers: int = 64) -> float:
    env = Environment()
    net = FlowNetwork(env)
    dc = Datacenter(racks=16, hosts_per_rack=16)
    svc = BlobService(env, RandomStreams(copies).stream("b"), net)
    svc.create_container("c")
    svc.seed_blob("c", "hot", 150.0)
    box = {}

    def setup(env):
        box["names"] = yield from replicate_blob(svc, "c", "hot", copies)

    env.process(setup(env))
    env.run()
    reader = StripedReader(svc, "c", box["names"])

    def dl(env, client):
        yield from reader.download(client)

    start = env.now
    for host in dc.hosts[:n_readers]:
        env.process(dl(env, _EP(host)))
    env.run()
    return n_readers * 150.0 / (env.now - start)


def _upload_rate(parallelism: int) -> float:
    env = Environment()
    net = FlowNetwork(env)
    dc = Datacenter(racks=1, hosts_per_rack=2)
    svc = BlobService(env, RandomStreams(parallelism).stream("b"), net)
    svc.create_container("c")
    box = {}

    def up(env):
        t0 = env.now
        if parallelism == 1:
            yield from svc.upload(_EP(dc.hosts[0]), "c", "x", 80.0)
        else:
            yield from parallel_upload(
                svc, _EP(dc.hosts[0]), "c", "x", 80.0,
                parallelism=parallelism,
            )
        box["rate"] = 80.0 / (env.now - t0)

    env.process(up(env))
    env.run()
    return box["rate"]


def _multi_queue_aggregate(n_queues: int, consumers: int = 64) -> float:
    """Total receive throughput with consumers split over queues."""
    per_queue = consumers // n_queues
    total = 0.0
    for i in range(n_queues):
        result = run_queue_test(
            "receive", per_queue, ops_per_client=40, seed=100 + i
        )
        total += result.aggregate_ops
    return total


def test_bench_recommendations(once):
    results = once(lambda: {
        "stripe1": _striped_aggregate(1),
        "stripe3": _striped_aggregate(3),
        "up1": _upload_rate(1),
        "up4": _upload_rate(4),
        "q1": _multi_queue_aggregate(1),
        "q4": _multi_queue_aggregate(4),
    })
    print("\n" + ascii_table(
        ["recommendation", "baseline", "applied", "gain"],
        [
            ["blob copies x3, 64 readers (MB/s aggregate)",
             results["stripe1"], results["stripe3"],
             f"{results['stripe3'] / results['stripe1']:.2f}x"],
            ["block-parallel upload x4 (MB/s)",
             results["up1"], results["up4"],
             f"{results['up4'] / results['up1']:.2f}x"],
            ["4 queues vs 1, 64 consumers (ops/s)",
             results["q1"], results["q4"],
             f"{results['q4'] / results['q1']:.2f}x"],
        ],
        title="Section 6.1 recommendations, quantified",
    ))
    assert results["stripe3"] > results["stripe1"] * 1.5
    assert results["up4"] > results["up1"] * 1.6
    assert results["q4"] > results["q1"] * 1.5
