"""Unit tests for blob-service semantics and bandwidth shaping."""

import pytest

from repro.network import Datacenter, FlowNetwork
from repro.simcore import Environment, RandomStreams
from repro.storage import (
    BlobAlreadyExistsError,
    BlobNotFoundError,
    BlobService,
    CorruptBlobError,
)


class _Endpoint:
    """Minimal NetworkEndpoint: one host's NIC pair."""

    def __init__(self, host):
        self.nic_tx = host.nic_tx
        self.nic_rx = host.nic_rx


def _setup(seed=0, replicas=3):
    env = Environment()
    net = FlowNetwork(env)
    dc = Datacenter(racks=2, hosts_per_rack=8)
    svc = BlobService(
        env, RandomStreams(seed).stream("blob"), net, replicas=replicas
    )
    svc.create_container("c")
    clients = [_Endpoint(h) for h in dc.hosts]
    return env, net, svc, clients


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


def test_upload_then_download_roundtrip():
    env, _net, svc, clients = _setup()
    meta, err = _run(env, svc.upload(clients[0], "c", "b1", 10.0))
    assert err is None
    assert svc.exists("c", "b1")
    got, err = _run(env, svc.download(clients[1], "c", "b1"))
    assert err is None
    assert got.content_token == meta.content_token
    assert got.size_mb == 10.0


def test_upload_existing_name_fails():
    env, _net, svc, clients = _setup()
    _run(env, svc.upload(clients[0], "c", "b", 1.0))
    _, err = _run(env, svc.upload(clients[0], "c", "b", 1.0))
    assert isinstance(err, BlobAlreadyExistsError)


def test_upload_overwrite_allowed():
    env, _net, svc, clients = _setup()
    first, _ = _run(env, svc.upload(clients[0], "c", "b", 1.0))
    second, err = _run(
        env, svc.upload(clients[0], "c", "b", 2.0, overwrite=True)
    )
    assert err is None
    assert second.etag != first.etag
    assert svc.get_meta("c", "b").size_mb == 2.0


def test_racing_uploads_one_winner():
    """Two concurrent uploads of the same name: exactly one commits."""
    env, _net, svc, clients = _setup()
    outcomes = []

    def racer(env, client, tag):
        try:
            yield from svc.upload(client, "c", "contested", 5.0)
            outcomes.append((tag, "ok"))
        except BlobAlreadyExistsError:
            outcomes.append((tag, "exists"))

    env.process(racer(env, clients[0], "a"))
    env.process(racer(env, clients[1], "b"))
    env.run()
    assert sorted(o for _, o in outcomes) == ["exists", "ok"]
    assert svc.blob_count("c") == 1


def test_download_missing_blob_fails():
    env, _net, svc, clients = _setup()
    _, err = _run(env, svc.download(clients[0], "c", "ghost"))
    assert isinstance(err, BlobNotFoundError)


def test_corruption_injection():
    env, _net, svc, clients = _setup()
    _run(env, svc.upload(clients[0], "c", "b", 1.0))
    _, err = _run(
        env, svc.download(clients[1], "c", "b", corrupt_probability=1.0)
    )
    assert isinstance(err, CorruptBlobError)


def test_single_client_download_near_per_client_cap():
    """One reader should see ~13 MB/s (the Section 6.1 limitation)."""
    env, _net, svc, clients = _setup()
    _run(env, svc.upload(clients[0], "c", "big", 100.0))
    t0 = env.now
    _, err = _run(env, svc.download(clients[1], "c", "big"))
    assert err is None
    bw = 100.0 / (env.now - t0)
    assert 10.0 <= bw <= 13.5


def test_concurrent_downloads_slower_per_client():
    env, _net, svc, clients = _setup()
    _run(env, svc.upload(clients[0], "c", "shared", 50.0))
    times = []

    def reader(env, client):
        t0 = env.now
        yield from svc.download(client, "c", "shared")
        times.append(env.now - t0)

    for client in clients[1:9]:  # 8 concurrent readers
        env.process(reader(env, client))
    env.run()
    per_client_bw = [50.0 / t for t in times]
    # Still near the per-connection cap at 8 clients (Fig. 1 plateau).
    assert all(8.0 <= bw <= 13.5 for bw in per_client_bw)


def test_upload_half_download_bandwidth_solo():
    env, _net, svc, clients = _setup()
    t0 = env.now
    _run(env, svc.upload(clients[0], "c", "up", 50.0))
    up_bw = 50.0 / (env.now - t0)
    # Section 3.1: upload is about half the download bandwidth.
    assert 4.0 <= up_bw <= 8.0


def test_replica_ablation_scales_read_trunk():
    _env1, _n1, svc1, _c1 = _setup(replicas=1)
    _env3, _n3, svc3, _c3 = _setup(replicas=3)
    link1 = svc1.download_link("c", "b")
    link3 = svc3.download_link("c", "b")
    assert link3.capacity_mbps == pytest.approx(3 * link1.capacity_mbps)


def test_validation():
    env, net, svc, clients = _setup()
    with pytest.raises(ValueError):
        next(svc.upload(clients[0], "c", "zero", 0.0))
    with pytest.raises(ValueError):
        BlobService(env, RandomStreams(0).stream("x"), net, replicas=0)


def test_finished_uploads_leave_no_active_transfers():
    env, _net, svc, clients = _setup()
    _run(env, svc.upload(clients[0], "c", "a", 3.0))
    _run(env, svc.upload(clients[0], "c", "b", 7.0))
    assert svc.active_transfers() == (0, 0)


def test_etags_repeat_across_identical_runs_in_one_process():
    from repro.workloads.harness import build_platform

    def first_blob():
        blobs = build_platform(seed=1).account.blobs
        blobs.create_container("c")
        meta = blobs.seed_blob("c", "b", 1.0)
        return meta.etag, meta.content_token

    assert first_blob() == first_blob() == (1, 1)
