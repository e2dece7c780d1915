"""Tests for the failure-domain hierarchy and correlated domain faults."""

import pytest

from repro.cluster.domains import (
    DOMAIN_KINDS,
    FailureDomain,
    register_account,
    register_datacenter,
)
from repro.faults import BLACKOUT_FLOOR_MBPS, DomainFault, DomainFaultInjector
from repro.network import FlowNetwork, Link
from repro.network.topology import Datacenter
from repro.simcore import Environment, RandomStreams
from repro.storage import StorageAccount
from repro.storage.errors import ConnectionFailureError


def _tree():
    root = FailureDomain("world", "world")
    region = FailureDomain("region-a", "region", parent=root)
    zone = FailureDomain("zone-a", "zone", parent=region)
    rack = FailureDomain("rack-a1", "rack", parent=zone)
    return root, region, zone, rack


# -- hierarchy bookkeeping ---------------------------------------------------

def test_kind_validation():
    with pytest.raises(ValueError):
        FailureDomain("x", "continent")
    for kind in DOMAIN_KINDS:
        FailureDomain(f"ok-{kind}", kind)


def test_duplicate_names_rejected_within_a_tree():
    root, _, zone, _ = _tree()
    with pytest.raises(ValueError):
        FailureDomain("rack-a1", "rack", parent=zone)
    # Separate trees keep separate registries.
    other = FailureDomain("world-2", "world")
    FailureDomain("rack-a1", "rack", parent=other)
    assert root.find("rack-a1") is not other.find("rack-a1")


def test_find_from_any_vertex_and_unknown_name():
    root, region, zone, rack = _tree()
    assert rack.find("region-a") is region
    assert zone.find("world") is root
    with pytest.raises(KeyError):
        root.find("rack-b9")


def test_ancestors_and_walk():
    root, region, zone, rack = _tree()
    assert [d.name for d in rack.ancestors()] == [
        "zone-a", "region-a", "world",
    ]
    assert [d.name for d in root.walk()] == [
        "world", "region-a", "zone-a", "rack-a1",
    ]


def test_subtree_aggregation_in_document_order():
    root, region, zone, rack = _tree()
    zone.register_server("zone-server")
    rack.register_server("rack-server")
    rack.register_link("rack-link")
    region.register_link("region-link")
    assert root.all_servers() == ["zone-server", "rack-server"]
    assert root.all_links() == ["region-link", "rack-link"]
    assert zone.all_servers() == ["zone-server", "rack-server"]
    assert rack.all_servers() == ["rack-server"]


def test_register_datacenter_builds_per_rack_domains():
    root, _, zone, _ = _tree()
    dc = Datacenter(racks=2, hosts_per_rack=2)
    rack_domains = register_datacenter(zone, dc, prefix="dc")
    assert [d.name for d in rack_domains] == ["dc/rack0", "dc/rack1"]
    assert all(d.kind == "rack" for d in rack_domains)
    assert all(d.parent is zone for d in rack_domains)
    # Each rack domain holds its ToR uplink pair + 2 hosts x 2 NICs.
    for rack_domain, rack in zip(rack_domains, dc.racks):
        assert len(rack_domain.links) == 6
        assert rack.uplink_tx in rack_domain.links
        assert rack.hosts[0].nic_rx in rack_domain.links
    assert root.find("dc/rack1") is rack_domains[1]


def test_register_account_registers_all_three_services():
    env = Environment()
    account = StorageAccount(env, RandomStreams(0), name="acct")
    _, _, zone, _ = _tree()
    register_account(zone, account)
    assert zone.servers == [account.blobs, account.tables, account.queues]


def test_domain_tree_is_inert():
    """Building and registering creates no events and draws no RNG."""
    env = Environment()
    root, _, zone, _ = _tree()
    account = StorageAccount(env, RandomStreams(0), name="acct")
    register_account(zone, account)
    DomainFaultInjector(env, root, RandomStreams(1).stream("faults"))
    assert env.now == 0.0
    env.run()
    assert env.now == 0.0


# -- correlated domain faults ------------------------------------------------

def test_domain_fault_validation():
    with pytest.raises(ValueError):
        DomainFault("rack-a1", 0.0, 10.0, "latency_spike")
    with pytest.raises(ValueError):
        DomainFault("rack-a1", 0.0)  # neither duration nor mttr
    with pytest.raises(ValueError):
        DomainFault("rack-a1", 0.0, 10.0, mttr_s=5.0)  # both
    with pytest.raises(ValueError):
        DomainFault("rack-a1", 0.0, -1.0)


def test_schedule_rejects_unknown_domain():
    env = Environment()
    root, _, _, _ = _tree()
    injector = DomainFaultInjector(env, root, RandomStreams(0).stream("f"))
    with pytest.raises(KeyError):
        injector.schedule("rack-xyz", 0.0, 10.0)


def _geo_world(seed=0):
    """A zone with a table service whose two partitions both exist."""
    env = Environment()
    streams = RandomStreams(seed)
    root, _region, zone, rack = _tree()
    account = StorageAccount(env, streams, name="acct")
    account.tables.create_table("t")
    account.tables.server_for("t", "p1")
    account.tables.server_for("t", "p2")
    register_account(rack, account)
    injector = DomainFaultInjector(env, root, streams.stream("faults"))
    return env, root, zone, rack, account, injector


def test_rack_fault_takes_down_all_partition_servers_atomically():
    env, root, zone, rack, account, injector = _geo_world()
    injector.schedule("rack-a1", 10.0, 20.0, "crash_restart")
    servers = account.tables.servers()
    assert len(servers) == 2

    observed = {}

    def watcher(env):
        yield env.timeout(11.0)  # inside the fault
        observed["during"] = [
            s.fault_injector.active_windows(env.now) for s in servers
        ]
        yield env.timeout(25.0)  # t=36, after the repair
        observed["after"] = [
            s.fault_injector.active_windows(env.now) for s in servers
        ]

    env.process(watcher(env))
    env.run()
    # Every member server got a window opened at the same instant...
    assert all(len(active) == 1 for active in observed["during"])
    assert all(
        active[0].start_s == 10.0 and active[0].kind == "crash_restart"
        for active in observed["during"]
    )
    # ...and window expiry is the repair.
    assert all(len(active) == 0 for active in observed["after"])
    assert [e["event"] for e in injector.log] == ["fault", "repair"]
    # Members: the blob service (a direct target) + both table servers.
    assert injector.log[0]["servers"] == 3
    assert injector.log[1]["t"] == 30.0


def test_requests_fail_during_fault_and_succeed_after_repair():
    from repro.client import TableClient
    from repro.resilience.backoff import NO_RETRY
    from repro.storage.table import make_entity

    env, root, zone, rack, account, injector = _geo_world()
    injector.schedule("zone-a", 5.0, 10.0, "blackout")
    client = TableClient(account.tables, retry=NO_RETRY)
    outcomes = {}

    def scenario(env):
        yield env.timeout(6.0)
        try:
            yield from client.insert("t", make_entity("p1", "during"))
        except ConnectionFailureError as exc:
            outcomes["during"] = exc
        yield env.timeout(20.0 - env.now)
        outcomes["after"] = (
            yield from client.insert("t", make_entity("p1", "after"))
        )

    env.process(scenario(env))
    env.run()
    assert isinstance(outcomes["during"], ConnectionFailureError)
    assert outcomes["after"].key == ("p1", "after")


def test_ancestor_fault_covers_descendants_is_down():
    env, root, zone, rack, account, injector = _geo_world()
    injector.schedule("zone-a", 5.0, 10.0)

    probes = {}

    def prober(env):
        probes["before"] = injector.is_down("rack-a1")
        yield env.timeout(7.0)
        probes["during_rack"] = injector.is_down("rack-a1")
        probes["during_zone"] = injector.is_down("zone-a")
        probes["during_region"] = injector.is_down("region-a")
        yield env.timeout(10.0)
        probes["after"] = injector.is_down("rack-a1")

    env.process(prober(env))
    env.run()
    assert probes == {
        "before": False,
        "during_rack": True,      # ancestor zone is down
        "during_zone": True,
        "during_region": False,   # faults do not propagate upward
        "after": False,
    }


def test_link_blackout_stalls_flows_and_repair_resumes():
    env = Environment()
    root, _, zone, rack = _tree()
    net = FlowNetwork(env)
    link = Link("rack.up", 100.0)
    rack.register_link(link)
    injector = DomainFaultInjector(env, root, RandomStreams(0).stream("f"))
    injector.attach_network(net)
    injector.schedule("rack-a1", 0.0, 5.0)

    finished = {}

    def sender(env):
        flow = net.transfer([link], 10.0)  # 0.1 s at full rate
        yield flow.done
        finished["t"] = env.now

    env.process(sender(env))
    env.run()
    # Stalled at the blackout floor for 5 s, then ~0.1 s at full rate.
    assert finished["t"] == pytest.approx(5.1, rel=1e-3)
    assert not injector._down_links


def test_overlapping_faults_keep_links_down_until_last_repair():
    env = Environment()
    root, _, zone, rack = _tree()
    net = FlowNetwork(env)
    link = Link("rack.up", 100.0)
    rack.register_link(link)
    injector = DomainFaultInjector(env, root, RandomStreams(0).stream("f"))
    injector.attach_network(net)
    injector.schedule("rack-a1", 0.0, 5.0)
    injector.schedule("zone-a", 2.0, 6.0)  # repairs at t=8

    finished = {}

    def sender(env):
        flow = net.transfer([link], 10.0)
        yield flow.done
        finished["t"] = env.now

    env.process(sender(env))
    env.run()
    assert finished["t"] == pytest.approx(8.1, rel=1e-3)


def test_attach_mid_outage_floors_flows_at_once():
    env = Environment()
    root, _, zone, rack = _tree()
    net = FlowNetwork(env)
    link = Link("rack.up", 100.0)
    other = Link("other", 100.0)
    rack.register_link(link)
    injector = DomainFaultInjector(env, root, RandomStreams(0).stream("f"))
    injector.schedule("rack-a1", 0.0, 5.0)
    rates = {}

    def sender(env):
        down = net.transfer([link], 1000.0)
        up = net.transfer([other], 1000.0)
        yield env.timeout(1.0)
        rates["before"] = (down.rate_mbps, up.rate_mbps)
        injector.attach_network(net)
        rates["attached"] = (down.rate_mbps, up.rate_mbps)
        yield down.done
        rates["done"] = env.now

    env.process(sender(env))
    env.run()
    assert rates["before"] == (100.0, 100.0)
    assert rates["attached"] == (BLACKOUT_FLOOR_MBPS, 100.0)
    # Stalled from t=1 until the repair at t=5 clears the floor; the
    # last 900 MB then take 9 s at full rate.
    assert rates["done"] == pytest.approx(14.0, rel=1e-6)


def test_mttr_draws_are_deterministic_per_seed():
    def realized_repair(seed):
        env, root, zone, rack, account, injector = _geo_world(seed=seed)
        injector.schedule("rack-a1", 0.0, kind="blackout", mttr_s=120.0)
        env.run()
        assert [e["event"] for e in injector.log] == ["fault", "repair"]
        return injector.log[1]["t"]

    first = realized_repair(7)
    assert first > 0.0
    assert realized_repair(7) == first
    assert realized_repair(8) != first


def test_servers_created_after_fault_fire_join_later_faults_only():
    """Member expansion happens at fault time: a partition server created
    mid-outage is healthy, but a later fault catches it."""
    env, root, zone, rack, account, injector = _geo_world()
    injector.schedule("rack-a1", 0.0, 10.0)
    injector.schedule("rack-a1", 20.0, 10.0)

    counts = {}

    def scenario(env):
        yield env.timeout(5.0)  # mid-first-outage
        late = account.tables.server_for("t", "p9")
        counts["during_first"] = late.fault_injector
        yield env.timeout(25.0 - env.now)  # mid-second-outage
        counts["during_second"] = len(
            late.fault_injector.active_windows(env.now)
        )

    env.process(scenario(env))
    env.run()
    assert counts["during_first"] is None  # untouched by the live fault
    assert counts["during_second"] == 1
    # First fault saw blob + 2 table servers; the second sees the late
    # partition server too.
    assert injector.log[0]["servers"] == 3
    assert injector.log[2]["servers"] == 4
