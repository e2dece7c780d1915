"""Unit tests for VM state machine, sizes, nodes and placement."""

import pytest

from repro.cluster import Node, PackPlacement, SpreadPlacement, VMInstance, VMState
from repro.cluster.placement import make_nodes
from repro.cluster.sizes import VM_SIZES, get_size
from repro.network import Datacenter
from repro.simcore import RandomStreams


def test_sizes_registry():
    assert set(VM_SIZES) == {"small", "medium", "large", "extralarge"}
    assert get_size("small").cores == 1
    assert get_size("extralarge").cores == 8
    with pytest.raises(ValueError):
        get_size("gigantic")


def test_vm_state_machine_allows_lifecycle():
    vm = VMInstance("worker", get_size("small"), deployment_id=0)
    for state in (
        VMState.CREATING, VMState.STOPPED, VMState.STARTING,
        VMState.READY, VMState.SUSPENDING, VMState.STOPPED,
        VMState.DELETED,
    ):
        vm.set_state(state)
    assert vm.state is VMState.DELETED


def test_vm_state_machine_rejects_illegal_transition():
    vm = VMInstance("worker", get_size("small"), deployment_id=0)
    with pytest.raises(ValueError):
        vm.set_state(VMState.READY)  # REQUESTED -> READY is illegal


def test_vm_role_validation():
    with pytest.raises(ValueError):
        VMInstance("database", get_size("small"), deployment_id=0)


def test_vm_network_requires_placement():
    vm = VMInstance("worker", get_size("small"), deployment_id=0)
    with pytest.raises(RuntimeError):
        vm.nic_tx


def test_vm_slowdown_marks_degraded():
    vm = VMInstance("worker", get_size("small"), deployment_id=0)
    assert not vm.is_degraded
    vm.slowdown = 4.5
    assert vm.is_degraded


def test_node_core_accounting():
    dc = Datacenter(racks=1, hosts_per_rack=1)
    node = Node(dc.hosts[0], cores=8)
    small = VMInstance("worker", get_size("small"), 0)
    xl = VMInstance("worker", get_size("extralarge"), 0)
    node.attach(small)
    assert node.free_cores == 7
    assert not node.can_host(xl)
    with pytest.raises(ValueError):
        node.attach(xl)
    node.detach(small)
    assert node.free_cores == 8
    node.attach(xl)
    assert node.free_cores == 0


def test_node_detach_unknown_vm():
    dc = Datacenter(racks=1, hosts_per_rack=1)
    node = Node(dc.hosts[0])
    with pytest.raises(ValueError):
        node.detach(VMInstance("worker", get_size("small"), 0))


def test_vm_nics_are_hosts():
    dc = Datacenter(racks=1, hosts_per_rack=1)
    node = Node(dc.hosts[0])
    vm = VMInstance("worker", get_size("small"), 0)
    node.attach(vm)
    assert vm.nic_tx is dc.hosts[0].nic_tx
    assert vm.nic_rx is dc.hosts[0].nic_rx


def test_pack_placement_fills_racks_in_order():
    dc = Datacenter(racks=4, hosts_per_rack=2)
    nodes = make_nodes(dc, cores_per_node=8)
    policy = PackPlacement(nodes)
    vms = [VMInstance("worker", get_size("small"), 0) for _ in range(20)]
    for vm in vms:
        policy.place(vm)
    # 20 small VMs pack into the first 3 nodes (8+8+4) -> at most 2 racks.
    racks_used = {vm.node.rack_index for vm in vms}
    assert len(racks_used) <= 2


def test_pack_placement_jitter_rotates_start():
    dc = Datacenter(racks=4, hosts_per_rack=2)
    nodes = make_nodes(dc)
    rng = RandomStreams(3).stream("placement")
    starts = set()
    for _ in range(12):
        policy = PackPlacement(nodes, jitter_rng=rng)
        starts.add(policy._order[0].rack_index)
    assert len(starts) > 1  # start rack varies


def test_spread_placement_uses_all_racks():
    dc = Datacenter(racks=4, hosts_per_rack=2)
    nodes = make_nodes(dc)
    policy = SpreadPlacement(nodes)
    vms = [VMInstance("worker", get_size("small"), 0) for _ in range(8)]
    for vm in vms:
        policy.place(vm)
    racks_used = {vm.node.rack_index for vm in vms}
    assert len(racks_used) == 4


def test_placement_capacity_exhaustion():
    dc = Datacenter(racks=1, hosts_per_rack=1)
    nodes = make_nodes(dc, cores_per_node=8)
    policy = PackPlacement(nodes)
    policy.place(VMInstance("worker", get_size("extralarge"), 0))
    with pytest.raises(RuntimeError):
        policy.place(VMInstance("worker", get_size("small"), 0))
    assert policy.free_cores() == 0


def test_placement_validation():
    with pytest.raises(ValueError):
        PackPlacement([])
