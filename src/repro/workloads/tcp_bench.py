"""The Figs. 4-5 TCP internal-endpoint benchmark.

Protocol (Section 4.2): a deployment of 20 small VMs, paired
client/server.  Ten VMs (5 pairs) measure 1-byte round-trip latency;
the other ten (5 pairs) repeatedly send 2 GB and measure bandwidth.
10,000 samples were collected across both figures.

Placement follows the spillover model: most pairs land in one rack,
~15% end up split across racks.  Cross-rack flows contend with heavy
background traffic on the oversubscribed uplinks; same-rack flows see
only host-NIC neighbours, so the bandwidth histogram has a fast mode
near GigE and a <=30 MB/s tail -- Fig. 5's two populations.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

import numpy as np

from repro.client.tcp import TcpEndpointPair
from repro.cluster import SpilloverPlacement, VMInstance, make_nodes
from repro.cluster.sizes import get_size
from repro.network import BackgroundTraffic, Datacenter, FlowNetwork, LatencyModel
from repro.simcore import Distribution, Environment, RandomStreams

#: Simulated seconds after which an unfinished run raises instead of
#: simulating the never-ending background traffic forever.
_HORIZON_S = 3600.0 * 24 * 14


@dataclass
class TcpBenchResult:
    """Latency and bandwidth samples across all pairs."""

    latency_s: List[float] = field(default_factory=list)
    bandwidth_mbps: List[float] = field(default_factory=list)
    cross_rack_pairs: int = 0
    total_pairs: int = 0

    def latency_ms_grid(self) -> np.ndarray:
        """Latencies on the paper's 1 ms measurement grid (Fig. 4)."""
        return np.ceil(np.asarray(self.latency_s) * 1000.0 - 1e-9)


def _place_pairs(env, streams, datacenter, n_vms: int):
    """Deploy ``n_vms`` small instances and pair them sequentially."""
    nodes = make_nodes(datacenter)
    placement = SpilloverPlacement(nodes, streams.stream("tcp.placement"))
    vms = []
    for i in range(n_vms):
        vm = VMInstance("worker", get_size("small"), deployment_id=0)
        placement.place(vm)
        vms.append(vm)
    return [(vms[i], vms[i + 1]) for i in range(0, n_vms, 2)]


def run_tcp_test(
    latency_samples: int = 5000,
    bandwidth_samples: int = 200,
    transfer_mb: float = 2000.0,
    seed: int = 0,
    n_pairs: int = 10,
    background_intensity: float = 0.85,
) -> TcpBenchResult:
    """Run the paired-VM latency and bandwidth measurements.

    The paper's 10,000 samples (and 2 GB transfers) regenerate with
    ``latency_samples=5000, bandwidth_samples=5000``; the default keeps
    bandwidth sampling light because every sample simulates a full 2 GB
    transfer against live background traffic.
    """
    env = Environment()
    streams = RandomStreams(seed)
    network = FlowNetwork(env)
    datacenter = Datacenter(racks=8, hosts_per_rack=16)
    latency_model = LatencyModel(streams.stream("tcp.latency"))
    pairs = _place_pairs(env, streams, datacenter, n_vms=2 * n_pairs)
    half = len(pairs) // 2
    latency_pairs = pairs[:half]
    bandwidth_pairs = pairs[half:]

    # Background load: heavy elephants on every rack uplink (the
    # oversubscribed layer), light neighbours on each measured host NIC.
    # Each rack's uplink population is an independent fair-share
    # component while no measured flow crosses it, so the incremental
    # allocator re-rates one rack's 22 elephants per background churn
    # instead of every flow in the datacenter — the dominant cost of
    # this bench before fairshare.FairShareState existed.
    bg_rng = streams.stream("tcp.background")
    for rack in datacenter.racks:
        BackgroundTraffic(
            env, network, [rack.uplink_tx], bg_rng,
            intensity=background_intensity, parallelism=22,
            rate_cap_mbps=40.0,
            flow_size_mb=Distribution.lognormal_from_mean_std(400.0, 250.0),
        )
    for vm_a, vm_b in bandwidth_pairs:
        # Deduplicate in pair order, NOT via a set: set iteration order
        # follows object addresses, and the hosts share one RNG stream,
        # so it would silently unseed which NIC gets which draws.
        for host in dict.fromkeys((vm_a.node.host, vm_b.node.host)):
            BackgroundTraffic(
                env, network, [host.nic_tx], bg_rng,
                intensity=0.4, parallelism=1,
                flow_size_mb=Distribution.lognormal_from_mean_std(250.0, 150.0),
            )

    result = TcpBenchResult()
    result.total_pairs = len(pairs)
    result.cross_rack_pairs = sum(
        1 for a, b in pairs
        if a.node.host.rack is not b.node.host.rack
    )

    per_latency_pair = max(latency_samples // max(len(latency_pairs), 1), 1)
    per_bandwidth_pair = max(bandwidth_samples // max(len(bandwidth_pairs), 1), 1)

    def latency_proc(env, pair: TcpEndpointPair):
        for _ in range(per_latency_pair):
            rtt = yield from pair.ping()
            result.latency_s.append(rtt)
            yield env.timeout(0.05)  # pacing between probes

    def bandwidth_proc(env, pair: TcpEndpointPair, rng):
        for _ in range(per_bandwidth_pair):
            mbps = yield from pair.send(transfer_mb)
            result.bandwidth_mbps.append(mbps)
            yield env.timeout(float(rng.uniform(1.0, 5.0)))

    for vm_a, vm_b in latency_pairs:
        pair = TcpEndpointPair(network, datacenter, latency_model, vm_a, vm_b)
        env.process(latency_proc(env, pair))
    for i, (vm_a, vm_b) in enumerate(bandwidth_pairs):
        pair = TcpEndpointPair(network, datacenter, latency_model, vm_a, vm_b)
        env.process(bandwidth_proc(env, pair, streams.stream(f"tcp.pace{i}")))

    # Background sources run forever; stop once the measurements finish,
    # and fail rather than spin if they never do.
    def watchdog(env):
        target_lat = per_latency_pair * len(latency_pairs)
        target_bw = per_bandwidth_pair * len(bandwidth_pairs)
        while (
            len(result.latency_s) < target_lat
            or len(result.bandwidth_mbps) < target_bw
        ):
            if env.now > _HORIZON_S:
                raise RuntimeError(
                    f"TCP benchmark did not finish within {_HORIZON_S} s"
                    " of simulated time"
                )
            yield env.timeout(30.0)

    env.run(until=env.process(watchdog(env)))
    return result
