"""Tests for the extended blob API (copies, block upload) and the
parallel client utilities."""

import pytest

from repro.client.parallel import StripedReader, parallel_upload, replicate_blob
from repro.network import Datacenter, FlowNetwork
from repro.simcore import Environment, RandomStreams
from repro.storage import BlobService
from repro.storage.errors import BlobAlreadyExistsError, BlobNotFoundError


class _EP:
    def __init__(self, host):
        self.nic_tx, self.nic_rx = host.nic_tx, host.nic_rx


def _setup(seed=0):
    env = Environment()
    net = FlowNetwork(env)
    dc = Datacenter(racks=4, hosts_per_rack=8)
    svc = BlobService(env, RandomStreams(seed).stream("blob"), net)
    svc.create_container("c")
    return env, svc, [_EP(h) for h in dc.hosts]


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


def test_copy_blob_server_side():
    env, svc, clients = _setup()
    original = svc.seed_blob("c", "src", 50.0)
    t0 = env.now
    copy, err = _run(env, svc.copy_blob("c", "src", "dst"))
    assert err is None
    assert copy.size_mb == 50.0
    assert copy.content_token == original.content_token
    assert copy.etag != original.etag
    # Server-side copy takes size/copy-bandwidth, no client involvement.
    assert env.now - t0 == pytest.approx(50.0 / 100.0, abs=0.3)
    _, err = _run(env, svc.copy_blob("c", "src", "dst"))
    assert isinstance(err, BlobAlreadyExistsError)
    _, err = _run(env, svc.copy_blob("c", "ghost", "x"))
    assert isinstance(err, BlobNotFoundError)


def test_block_upload_and_commit():
    env, svc, clients = _setup()

    def scenario(env):
        yield from svc.put_block(clients[0], "c", "blob", "b0", 5.0)
        yield from svc.put_block(clients[0], "c", "blob", "b1", 7.0)
        meta = yield from svc.put_block_list("c", "blob", ("b0", "b1"))
        return meta

    meta, err = _run(env, scenario(env))
    assert err is None
    assert meta.size_mb == pytest.approx(12.0)
    assert svc.exists("c", "blob")


def test_block_commit_missing_block_fails():
    env, svc, clients = _setup()

    def scenario(env):
        yield from svc.put_block(clients[0], "c", "blob", "b0", 5.0)
        yield from svc.put_block_list("c", "blob", ("b0", "missing"))

    _, err = _run(env, scenario(env))
    assert isinstance(err, BlobNotFoundError)


def test_block_validation():
    env, svc, clients = _setup()
    with pytest.raises(ValueError):
        next(svc.put_block(clients[0], "c", "b", "id", 0.0))


def test_replicate_blob_creates_copies():
    env, svc, clients = _setup()
    svc.seed_blob("c", "hot", 10.0)
    names, err = _run(env, replicate_blob(svc, "c", "hot", 3))
    assert err is None
    assert names == ["hot", "hot.copy1", "hot.copy2"]
    assert all(svc.exists("c", n) for n in names)
    # Idempotent: replicating again does not fail.
    names2, err = _run(env, replicate_blob(svc, "c", "hot", 3))
    assert err is None and names2 == names


def test_replicate_validation():
    env, svc, clients = _setup()
    svc.seed_blob("c", "hot", 10.0)
    with pytest.raises(ValueError):
        next(replicate_blob(svc, "c", "hot", 0))


def test_striped_reader_round_robin():
    env, svc, clients = _setup()
    for n in ("hot", "hot.copy1"):
        svc.seed_blob("c", n, 1.0)
    reader = StripedReader(svc, "c", ["hot", "hot.copy1"])
    picks = [reader.pick_copy() for _ in range(4)]
    assert picks == ["hot", "hot.copy1", "hot", "hot.copy1"]
    with pytest.raises(ValueError):
        StripedReader(svc, "c", [])


def test_striping_raises_aggregate_bandwidth():
    def aggregate(copies, n_readers=48):
        env, svc, clients = _setup(seed=copies)
        svc.seed_blob("c", "hot", 100.0)
        names_box = {}

        def setup(env):
            names_box["names"] = yield from replicate_blob(
                svc, "c", "hot", copies
            )

        env.process(setup(env))
        env.run()
        reader = StripedReader(svc, "c", names_box["names"])

        def dl(env, client):
            yield from reader.download(client)

        start_done = env.now
        for client in clients[:n_readers]:
            env.process(dl(env, client))
        env.run()
        return n_readers * 100.0 / (env.now - start_done)

    single = aggregate(1)
    striped = aggregate(3)
    assert striped > single * 1.5  # Section 6.1 recommendation pays off


def test_parallel_upload_beats_single_stream():
    env, svc, clients = _setup()

    def single(env):
        t0 = env.now
        yield from svc.upload(clients[0], "c", "single", 60.0)
        return 60.0 / (env.now - t0)

    rate_single, _ = _run(env, single(env))

    env2, svc2, clients2 = _setup(seed=1)

    def parallel(env):
        t0 = env.now
        yield from parallel_upload(
            svc2, clients2[0], "c", "par", 60.0, parallelism=4
        )
        return 60.0 / (env.now - t0)

    rate_parallel, err = _run(env2, parallel(env2))
    assert err is None
    assert rate_parallel > rate_single * 1.6
    assert svc2.get_meta("c", "par").size_mb == pytest.approx(60.0)


def test_parallel_upload_validation():
    env, svc, clients = _setup()
    with pytest.raises(ValueError):
        next(parallel_upload(svc, clients[0], "c", "x", 0.0))
    with pytest.raises(ValueError):
        next(parallel_upload(svc, clients[0], "c", "x", 1.0, parallelism=0))
