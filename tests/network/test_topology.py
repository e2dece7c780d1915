"""Unit tests for datacenter topology and the latency model."""

import numpy as np
import pytest

from repro.network import Datacenter, LatencyModel
from repro.simcore import RandomStreams


def test_datacenter_shape():
    dc = Datacenter(racks=3, hosts_per_rack=4)
    assert len(dc.racks) == 3
    assert len(dc.hosts) == 12
    assert all(len(r.hosts) == 4 for r in dc.racks)


def test_same_host_path_is_empty():
    dc = Datacenter(racks=1, hosts_per_rack=2)
    h = dc.hosts[0]
    assert dc.path(h, h) == ()


def test_same_rack_path_crosses_both_nics():
    dc = Datacenter(racks=1, hosts_per_rack=2)
    a, b = dc.hosts
    path = dc.path(a, b)
    assert path == (a.nic_tx, b.nic_rx)
    assert dc.same_rack(a, b)


def test_cross_rack_path_includes_uplinks():
    dc = Datacenter(racks=2, hosts_per_rack=1)
    a, b = dc.hosts
    path = dc.path(a, b)
    assert path == (a.nic_tx, a.rack.uplink_tx, b.rack.uplink_rx, b.nic_rx)
    assert not dc.same_rack(a, b)


def test_oversubscription_shrinks_uplink():
    dc = Datacenter(racks=1, hosts_per_rack=8, host_nic_mbps=125.0,
                    oversubscription=4.0)
    assert dc.racks[0].uplink_tx.capacity_mbps == pytest.approx(250.0)


def test_datacenter_validation():
    with pytest.raises(ValueError):
        Datacenter(racks=0)
    with pytest.raises(ValueError):
        Datacenter(oversubscription=0.5)


def test_latency_model_matches_paper_quantiles():
    rng = RandomStreams(42).stream("lat")
    model = LatencyModel(rng)
    samples_ms = np.array(
        [model.sample_rtt(same_rack=True) for _ in range(10000)]
    ) * 1000.0
    # Fig. 4: ~50% <= 1 ms (on the 1 ms grid), ~75% <= 2 ms.
    on_grid = np.ceil(samples_ms - 1e-9)
    frac_1ms = (on_grid <= 1.0).mean()
    frac_2ms = (on_grid <= 2.0).mean()
    assert 0.40 <= frac_1ms <= 0.70
    assert 0.65 <= frac_2ms <= 0.90
    assert samples_ms.max() <= 15.0
    assert samples_ms.min() > 0.0


def test_cross_rack_latency_strictly_slower_on_average():
    rng = RandomStreams(1).stream("lat")
    model = LatencyModel(rng)
    same = np.mean([model.sample_rtt(True) for _ in range(2000)])
    cross = np.mean([model.sample_rtt(False) for _ in range(2000)])
    assert cross > same
