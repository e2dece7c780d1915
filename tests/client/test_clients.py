"""Integration tests for the typed service clients."""

import pytest

from repro.client import BlobClient, ManagementClient, QueueClient, TableClient
from repro.client.tcp import TcpEndpointPair
from repro.cluster import FabricController, PackPlacement, VMInstance, make_nodes
from repro.cluster.sizes import get_size
from repro.network import Datacenter, FlowNetwork, LatencyModel
from repro.simcore import Environment, RandomStreams
from repro.storage import StorageAccount
from repro.storage.errors import EntityNotFoundError
from repro.storage.table import make_entity


def _run(env, gen):
    box = {}

    def proc(env):
        try:
            box["result"] = yield from gen
        except Exception as exc:  # noqa: BLE001 - test harness
            box["error"] = exc

    env.process(proc(env))
    env.run()
    return box.get("result"), box.get("error")


def _account(seed=0):
    env = Environment()
    account = StorageAccount(env, RandomStreams(seed))
    return env, account


def test_table_client_roundtrip():
    env, account = _account()
    account.tables.create_table("t")
    client = TableClient(account.tables)
    _, err = _run(env, client.insert("t", make_entity("p", "r", f1=7)))
    assert err is None
    found, err = _run(env, client.query("t", "p", "r"))
    assert err is None and found.properties["f1"] == 7
    _, err = _run(env, client.delete("t", "p", "r"))
    assert err is None
    _, err = _run(env, client.query("t", "p", "r"))
    assert isinstance(err, EntityNotFoundError)


def _timed(env, gen):
    """``_run`` plus the call's simulated latency."""
    start = env.now
    result, err = _run(env, gen)
    return result, err, env.now - start


def test_table_client_measured_outcome():
    env, account = _account()
    account.tables.create_table("t")
    client = TableClient(account.tables)
    entity, err, latency_s = _timed(
        env, client.insert("t", make_entity("p", "r"))
    )
    assert err is None and entity is not None
    assert latency_s > 0
    _none, err, _latency_s = _timed(env, client.query("t", "p", "ghost"))
    assert isinstance(err, EntityNotFoundError)


def test_queue_client_roundtrip():
    env, account = _account()
    account.queues.create_queue("q")
    client = QueueClient(account.queues)

    def scenario(env):
        yield from client.add("q", "hello")
        msg = yield from client.receive("q")
        yield from client.delete("q", msg, msg.pop_receipt)
        return msg.payload

    payload, err = _run(env, scenario(env))
    assert err is None and payload == "hello"
    assert account.queues.queue_length("q") == 0


class _EP:
    """A bare network endpoint: one host's NIC pair."""

    def __init__(self, host):
        self.nic_tx, self.nic_rx = host.nic_tx, host.nic_rx


def test_blob_client_roundtrip():
    env, account = _account()
    account.blobs.create_container("c")
    dc = Datacenter(racks=1, hosts_per_rack=2)

    client = BlobClient(account.blobs, _EP(dc.hosts[0]))
    meta, err = _run(env, client.upload("c", "b", 5.0))
    assert err is None and client.exists("c", "b")
    got, err = _run(env, client.download("c", "b"))
    assert err is None and got.content_token == meta.content_token
    _meta, err, latency_s = _timed(env, client.download("c", "b"))
    assert err is None and latency_s > 0


def test_blob_client_timeout_races_transfers():
    """``timeout_s`` is a real parameter (as on the table and queue
    clients), not a keyword that collides with the no-timeout default."""
    from repro.client.base import ClientTimeoutError
    from repro.resilience.backoff import NO_RETRY

    env, account = _account()
    account.blobs.create_container("c")
    dc = Datacenter(racks=1, hosts_per_rack=2)

    assert BlobClient(account.blobs, _EP(dc.hosts[0])).timeout_s is None
    client = BlobClient(
        account.blobs, _EP(dc.hosts[0]), timeout_s=1e-3, retry=NO_RETRY
    )
    assert client.timeout_s == 1e-3
    _, err = _run(env, client.upload("c", "b", 5.0))
    assert isinstance(err, ClientTimeoutError)


def test_management_client_full_cycle():
    env = Environment()
    fabric = FabricController(
        env, RandomStreams(0).stream("fabric"), inject_failures=False
    )
    mgmt = ManagementClient(fabric)
    record, err = _run(env, mgmt.timed_lifecycle("worker", "small", 4))
    assert err is None
    assert not record.failed
    assert set(record.phase_s) == {"create", "run", "add", "suspend", "delete"}
    assert len(record.run_instance_ready_s) == 4
    assert record.phase_s["run"] > 300


def test_management_client_skips_add_for_extralarge():
    env = Environment()
    fabric = FabricController(
        env, RandomStreams(1).stream("fabric"), inject_failures=False
    )
    mgmt = ManagementClient(fabric)
    record, err = _run(env, mgmt.timed_lifecycle("worker", "extralarge", 1))
    assert err is None
    assert not record.add_supported
    assert "add" not in record.phase_s


def test_tcp_pair_ping_and_send():
    env = Environment()
    streams = RandomStreams(3)
    net = FlowNetwork(env)
    dc = Datacenter(racks=2, hosts_per_rack=2)
    nodes = make_nodes(dc)
    placement = PackPlacement(nodes)
    a = VMInstance("worker", get_size("small"), 0)
    b = VMInstance("worker", get_size("small"), 0)
    placement.place(a)
    # Force b onto a different host for a real network path.
    nodes[1].attach(b)
    pair = TcpEndpointPair(net, dc, LatencyModel(streams.stream("lat")), a, b)

    def scenario(env):
        rtt = yield from pair.ping()
        mbps = yield from pair.send(100.0)
        return rtt, mbps

    (rtt, mbps), err = _run(env, scenario(env))
    assert err is None
    assert 0 < rtt < 0.05
    assert 50 < mbps <= 125.5  # same rack, idle network: near GigE


def test_tcp_pair_requires_placement():
    env = Environment()
    net = FlowNetwork(env)
    dc = Datacenter(racks=1, hosts_per_rack=2)
    lat = LatencyModel(RandomStreams(0).stream("lat"))
    a = VMInstance("worker", get_size("small"), 0)
    b = VMInstance("worker", get_size("small"), 0)
    with pytest.raises(ValueError):
        TcpEndpointPair(net, dc, lat, a, b)


def test_tcp_send_validation():
    env = Environment()
    net = FlowNetwork(env)
    dc = Datacenter(racks=1, hosts_per_rack=2)
    nodes = make_nodes(dc)
    a = VMInstance("worker", get_size("small"), 0)
    b = VMInstance("worker", get_size("small"), 0)
    nodes[0].attach(a)
    nodes[1].attach(b)
    pair = TcpEndpointPair(
        net, dc, LatencyModel(RandomStreams(0).stream("lat")), a, b
    )
    with pytest.raises(ValueError):
        next(pair.send(0.0))
