"""Integration tests for the workload drivers at reduced scale."""

import hashlib

import pytest

from repro.network import FlowNetwork
from repro.workloads import tcp_bench
from repro.workloads import (
    build_platform,
    run_blob_test,
    run_property_filter_test,
    run_queue_test,
    run_table_test,
    run_tcp_test,
    run_vm_campaign,
)


def test_platform_builder_validation():
    with pytest.raises(ValueError):
        build_platform(n_clients=10_000, racks=2, hosts_per_rack=2)


def test_platform_deterministic_per_seed():
    a = build_platform(seed=5)
    b = build_platform(seed=5)
    assert a.streams.stream("x").random() == b.streams.stream("x").random()


def test_blob_bench_validation():
    with pytest.raises(ValueError):
        run_blob_test("sideways", 1)
    with pytest.raises(ValueError):
        run_blob_test("download", 0)
    with pytest.raises(ValueError, match="size_mb must be > 0, got -1.0"):
        run_blob_test("download", 1, size_mb=-1.0)


def test_blob_download_shape_small():
    one = run_blob_test("download", 1, size_mb=100.0, seed=1)
    many = run_blob_test("download", 32, size_mb=100.0, seed=2)
    assert one.mean_client_mbps == pytest.approx(13.0, rel=0.1)
    assert many.mean_client_mbps < one.mean_client_mbps * 0.65
    assert many.aggregate_mbps > one.aggregate_mbps * 10


def test_blob_upload_slower_than_download():
    down = run_blob_test("download", 4, size_mb=50.0, seed=3)
    up = run_blob_test("upload", 4, size_mb=50.0, seed=3)
    assert up.mean_client_mbps < down.mean_client_mbps * 0.7


def test_table_bench_runs_all_phases():
    ops = {"insert": 20, "query": 20, "update": 10, "delete": 20}
    result = run_table_test(4, entity_kb=1.0, ops_per_client=ops, seed=4)
    for phase, expected in ops.items():
        outcomes = result.phases[phase]
        assert len(outcomes) == 4
        assert all(o.ops_completed == expected for o in outcomes)
        assert result.mean_client_ops(phase) > 0
        assert result.failed_clients(phase) == 0


def test_table_bench_update_contention():
    ops = {"insert": 5, "query": 5, "update": 30, "delete": 5}
    solo = run_table_test(1, ops_per_client=ops, seed=5)
    crowd = run_table_test(32, ops_per_client=ops, seed=6)
    assert crowd.mean_client_ops("update") < solo.mean_client_ops("update") * 0.4


def test_property_filter_test_is_pinned():
    """Section 6.1 as fig2 runs it at seed 3: 32 scanners against the
    220k-entity partition, over half of them timing out."""
    result = run_property_filter_test(n_clients=32, seed=10)
    assert result.n_entities == 220_000
    assert result.timed_out_clients == 24
    assert result.succeeded_clients == 8
    assert hashlib.sha256(repr(result.latencies_s).encode()).hexdigest() == (
        "9fa2e8e8ba7075d40744d452ab50b3d2f9ccf0462f680c9a11aa1cfbc8ea8d82"
    )


def test_table_bench_validation():
    with pytest.raises(ValueError):
        run_table_test(0)


def test_queue_bench_runs_each_operation():
    for op in ("add", "peek", "receive"):
        result = run_queue_test(op, 4, ops_per_client=15, seed=7)
        assert len(result.outcomes) == 4
        assert result.mean_client_ops > 5
        assert all(o.error is None for o in result.outcomes)


def test_queue_bench_validation():
    with pytest.raises(ValueError):
        run_queue_test("steal", 4)
    with pytest.raises(ValueError):
        run_queue_test("add", 0)


def test_vm_campaign_collects_requested_runs():
    campaign = run_vm_campaign(runs=30, seed=8)
    assert len(campaign.records) == 30
    assert campaign.total_attempts >= 30
    roles = {r.role for r in campaign.records}
    sizes = {r.size for r in campaign.records}
    assert roles == {"worker", "web"}
    assert len(sizes) >= 3


def test_vm_campaign_validation():
    with pytest.raises(ValueError):
        run_vm_campaign(runs=0)


def test_tcp_bench_collects_samples():
    result = run_tcp_test(
        latency_samples=200, bandwidth_samples=20, transfer_mb=500.0, seed=9
    )
    assert len(result.latency_s) >= 200
    assert len(result.bandwidth_mbps) >= 20
    assert result.total_pairs == 10
    assert all(0 < bw <= 126 for bw in result.bandwidth_mbps)
    assert all(0 < lat < 0.5 for lat in result.latency_s)


def test_tcp_bench_raises_past_horizon(monkeypatch):
    """A run whose measurements outlast the horizon fails instead of
    simulating the endless background traffic forever."""
    monkeypatch.setattr(tcp_bench, "_HORIZON_S", 10.0)
    with pytest.raises(RuntimeError, match="did not finish"):
        run_tcp_test(
            latency_samples=4, bandwidth_samples=10, transfer_mb=2000.0,
            seed=3,
        )


@pytest.mark.parametrize("seed", [3, 40002])
def test_tcp_bench_stops_at_its_last_sample(monkeypatch, seed):
    """The run ends at the instant the final bandwidth sample is taken:
    the clock stops there and no flow starts after it (the background
    sources would otherwise run on)."""
    starts = []
    measured = []
    envs = []
    transfer = FlowNetwork.transfer

    def spy(self, links, size_mb, cap=None, label=""):
        flow = transfer(self, links, size_mb, cap=cap, label=label)
        envs.append(self.env)
        starts.append(self.env.now)
        if label == "tcp-endpoint":
            flow.done.add_callback(lambda _: measured.append(self.env.now))
        return flow

    monkeypatch.setattr(FlowNetwork, "transfer", spy)
    result = run_tcp_test(
        latency_samples=4, bandwidth_samples=10, transfer_mb=200.0, seed=seed
    )
    assert len(result.bandwidth_mbps) == len(measured) == 10
    assert len(set(envs)) == 1
    last_sample = max(measured)
    assert envs[0].now == last_sample
    assert max(starts) <= last_sample


def test_tcp_bench_stable_across_heap_layouts():
    """Same seed must give bit-identical samples regardless of what the
    process allocated before (regression: a host set comprehension made
    background-traffic placement follow object addresses)."""
    first = run_tcp_test(
        latency_samples=8, bandwidth_samples=8, transfer_mb=200.0, seed=3
    )
    _perturb_heap = [object() for _ in range(50_000)]
    second = run_tcp_test(
        latency_samples=8, bandwidth_samples=8, transfer_mb=200.0, seed=3
    )
    assert first.latency_s == second.latency_s
    assert first.bandwidth_mbps == second.bandwidth_mbps


#: ``run_tcp_test(latency_samples=10, bandwidth_samples=5, seed=s)`` for
#: the first pooled TCP deployments of the net-fig1-fig5 benchmark at
#: seed 3: (cross-rack pairs, total pairs, SHA-256 of the latencies as
#: space-joined ``float.hex``, bandwidths as ``float.hex``).  Seeds 40002
#: and 40003 place cross-rack pairs, so their measured flows cross the
#: rack uplinks and take the multi-link solver.
_TCP_DEPLOYMENT_PINS = {
    40000: (0, 10, "70f69dc3f57385feb2d1b29fb0e3f65ccff82158b56a1d874ab3a5eaf05e333f",
            ["0x1.992a6781866bap+6", "0x1.7b8038e6821c0p+6",
             "0x1.76ff3bb414306p+6", "0x1.6140a66206320p+6",
             "0x1.3c4d69b199c23p+6"]),
    40001: (0, 10, "5a6fe966ca2dbfb5838bee7eb802f412975fd2e603dd94eb0656a9393205540e",
            ["0x1.9fd16294764c8p+6", "0x1.8b51aff32e2f4p+6",
             "0x1.7f77b09f62c04p+6", "0x1.7796e28ea8e3ap+6",
             "0x1.70038209d45d5p+6"]),
    40002: (2, 10, "bd22c74eaa5c2b5a630051c3db53eecb3c466e309c41a9246b31197da3450606",
            ["0x1.ae3e269c9bd7fp+6", "0x1.8cae8f4b2c1cep+6",
             "0x1.7ec15eb44f7e4p+6", "0x1.4eddf98091c07p+6",
             "0x1.91522edb161a0p+4"]),
    40003: (2, 10, "eb89742a364b1d5f177fbc6b35071d4b8ac1423400cf2bfb00019a73825c7d13",
            ["0x1.99ba17f22c422p+6", "0x1.8f39e6b686b00p+6",
             "0x1.6317bb575f495p+6", "0x1.40373732e441ap+6",
             "0x1.3a0600332ee94p+6"]),
}


@pytest.mark.parametrize("seed", sorted(_TCP_DEPLOYMENT_PINS))
def test_tcp_bench_pooled_deployment_pinned(seed):
    """The pooled TCP deployments repeat bit for bit (every sample is a
    full transfer through the fair-share network under background
    churn, so any change to a rate or completion instant shows here)."""
    result = vars(run_tcp_test(
        latency_samples=10, bandwidth_samples=5, seed=seed
    ))
    cross, total, latency_sha, bandwidth_hex = _TCP_DEPLOYMENT_PINS[seed]
    assert result["cross_rack_pairs"] == cross
    assert result["total_pairs"] == total
    assert [float.hex(b) for b in result["bandwidth_mbps"]] == bandwidth_hex
    latency = " ".join(map(float.hex, result["latency_s"]))
    assert hashlib.sha256(latency.encode()).hexdigest() == latency_sha
    assert set(result) == {
        "latency_s", "bandwidth_mbps", "cross_rack_pairs", "total_pairs"
    }
