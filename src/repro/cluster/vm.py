"""Virtual machine instances and their state machine."""

from __future__ import annotations

import enum
import itertools
from typing import TYPE_CHECKING, Optional

from repro.cluster.sizes import VMSize
from repro.network.links import Link

if TYPE_CHECKING:  # pragma: no cover
    from repro.cluster.node import Node


class VMState(enum.Enum):
    """Instance status as exposed by the Service Management API."""

    REQUESTED = "requested"
    CREATING = "creating"
    STOPPED = "stopped"
    STARTING = "starting"
    READY = "ready"
    SUSPENDING = "suspending"
    DELETED = "deleted"
    FAILED = "failed"


#: Legal state transitions; the fabric controller enforces these.
_TRANSITIONS = {
    VMState.REQUESTED: {VMState.CREATING},
    VMState.CREATING: {VMState.STOPPED, VMState.FAILED},
    VMState.STOPPED: {VMState.STARTING, VMState.DELETED},
    VMState.STARTING: {VMState.READY, VMState.FAILED, VMState.DELETED},
    VMState.READY: {VMState.SUSPENDING, VMState.FAILED},
    VMState.SUSPENDING: {VMState.STOPPED},
    VMState.FAILED: {VMState.STARTING, VMState.DELETED},
    VMState.DELETED: set(),
}


class VMInstance:
    """One role instance.

    Networking: the instance's traffic rides its host's NIC links
    (several VMs on one host share the GigE).  ``slowdown`` > 1 marks a
    degraded instance: guest computation runs that many times slower
    (the cause of ModisAzure's VM execution timeouts).
    """

    _ids = itertools.count()

    def __init__(self, role: str, size: VMSize, deployment_id: int) -> None:
        if role not in ("web", "worker"):
            raise ValueError(f"role must be 'web' or 'worker', got {role!r}")
        self.id = next(VMInstance._ids)
        self.name = f"{role}-{size.name}-{self.id}"
        self.role = role
        self.size = size
        self.deployment_id = deployment_id
        self.state = VMState.REQUESTED
        self.node: Optional["Node"] = None
        self.slowdown = 1.0
        self.ready_at: Optional[float] = None

    def set_state(self, new: VMState) -> None:
        if new not in _TRANSITIONS[self.state]:
            raise ValueError(
                f"{self.name}: illegal transition {self.state.value} -> {new.value}"
            )
        self.state = new

    # -- NetworkEndpoint protocol ------------------------------------------
    @property
    def nic_tx(self) -> Link:
        if self.node is None:
            raise RuntimeError(f"{self.name} is not placed on a node")
        return self.node.host.nic_tx

    @property
    def nic_rx(self) -> Link:
        if self.node is None:
            raise RuntimeError(f"{self.name} is not placed on a node")
        return self.node.host.nic_rx

    @property
    def is_degraded(self) -> bool:
        return self.slowdown > 1.0

    def __repr__(self) -> str:
        return f"<VM {self.name} {self.state.value} slowdown={self.slowdown}>"
