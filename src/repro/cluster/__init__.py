"""Compute fabric: physical nodes, VMs, placement and lifecycle.

Models the Windows Azure fabric controller the paper exercises through
the Service Management API (Section 4.1): deployments of web/worker
roles in four sizes move through create -> run -> add -> suspend ->
delete phases with calibrated, size- and role-dependent timing, a 2.6%
startup failure rate, staggered instance readiness, and sporadic host
degradation (the mechanism behind ModisAzure's VM execution timeouts).
"""

from repro.cluster.sizes import VM_SIZES, VMSize
from repro.cluster.vm import VMInstance, VMState
from repro.cluster.node import Node
from repro.cluster.placement import (
    PackPlacement,
    PlacementPolicy,
    SpilloverPlacement,
    SpreadPlacement,
    make_nodes,
)
from repro.cluster.lifecycle import LifecycleTimingModel
from repro.cluster.fabric import Deployment, FabricController
from repro.cluster.degradation import DegradationModel
from repro.cluster.domains import (
    DOMAIN_KINDS,
    FailureDomain,
    register_account,
    register_datacenter,
)

__all__ = [
    "DOMAIN_KINDS",
    "DegradationModel",
    "FailureDomain",
    "register_account",
    "register_datacenter",
    "Deployment",
    "FabricController",
    "LifecycleTimingModel",
    "Node",
    "PackPlacement",
    "PlacementPolicy",
    "SpilloverPlacement",
    "SpreadPlacement",
    "make_nodes",
    "VMInstance",
    "VMState",
    "VMSize",
    "VM_SIZES",
]
