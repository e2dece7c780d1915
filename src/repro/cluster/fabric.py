"""The fabric controller: deployment lifecycle orchestration.

Drives deployments through the five phases the paper times (Section
4.1).  All phase methods are generators to be driven from a simulation
process; each records a :class:`PhaseRecord` on the deployment so the
Table-1 experiment can read both the deployment-level duration and the
per-instance ready times (observation (3)'s stagger).
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field
from typing import Dict, Generator, List, Optional

import numpy as np

from repro.cluster.lifecycle import LifecycleTimingModel
from repro.cluster.placement import PlacementPolicy
from repro.cluster.sizes import VMSize, get_size
from repro.cluster.vm import VMInstance, VMState
from repro.simcore import Environment


class StartupFailureError(Exception):
    """A run/add request hit the fabric's startup failure mode."""


class DeploymentPhase(enum.Enum):
    CREATE = "create"
    RUN = "run"
    ADD = "add"
    SUSPEND = "suspend"
    DELETE = "delete"


@dataclass
class PhaseRecord:
    """Timing evidence for one completed phase."""

    phase: str
    started_at: float
    #: Deployment-level duration: first instance ready for run/add,
    #: request completion for create/suspend/delete.
    duration_s: float
    #: Instance-ready offsets from request start (run/add only).
    instance_ready_s: List[float] = field(default_factory=list)


class Deployment:
    """A hosted service deployment of one role type and size."""

    _ids = itertools.count()

    def __init__(self, role: str, size: VMSize, package_mb: float) -> None:
        self.id = next(Deployment._ids)
        self.role = role
        self.size = size
        self.package_mb = package_mb
        self.instances: List[VMInstance] = []
        self.phase_log: Dict[str, PhaseRecord] = {}
        self.deleted = False

    @property
    def ready_instances(self) -> List[VMInstance]:
        return [vm for vm in self.instances if vm.state == VMState.READY]

    def __repr__(self) -> str:
        return (
            f"<Deployment #{self.id} {self.role}/{self.size.name}"
            f" instances={len(self.instances)}>"
        )


class FabricController:
    """Creates and manages deployments on the simulated fabric.

    ``placement`` is optional: the pure lifecycle-timing experiments
    (Table 1) do not need physical placement, while ModisAzure and the
    TCP experiments do.
    """

    def __init__(
        self,
        env: Environment,
        rng: np.random.Generator,
        timing: Optional[LifecycleTimingModel] = None,
        placement: Optional[PlacementPolicy] = None,
        inject_failures: bool = True,
    ) -> None:
        self.env = env
        self.rng = rng
        self.timing = timing or LifecycleTimingModel(rng)
        self.placement = placement
        self.inject_failures = inject_failures
        self.deployments: List[Deployment] = []
        self.startup_failures = 0

    # -- phases ---------------------------------------------------------------
    def create_deployment(
        self,
        role: str,
        size_name: str,
        count: int,
        package_mb: float = 5.0,
    ) -> Generator:
        """Create phase: upload/validate the package, allocate instances.

        Returns the Deployment with all instances in STOPPED state.
        """
        if count < 1:
            raise ValueError("count must be >= 1")
        size = get_size(size_name)
        deployment = Deployment(role, size, package_mb)
        start = self.env.now
        for _ in range(count):
            vm = VMInstance(role, size, deployment.id)
            vm.set_state(VMState.CREATING)
            deployment.instances.append(vm)
        duration = self.timing.create_duration(role, size.name, package_mb)
        yield self.env.timeout(duration)
        for vm in deployment.instances:
            vm.set_state(VMState.STOPPED)
            if self.placement is not None:
                self.placement.place(vm)
        deployment.phase_log["create"] = PhaseRecord(
            "create", start, self.env.now - start
        )
        self.deployments.append(deployment)
        return deployment

    def run(self, deployment: Deployment) -> Generator:
        """Run phase: boot all stopped instances.

        Completes when every instance is READY.  Raises
        StartupFailureError (after a realistic stall) on the fabric's
        2.6% startup failure mode.
        """
        self._check_live(deployment)
        targets = [
            vm for vm in deployment.instances if vm.state == VMState.STOPPED
        ]
        if not targets:
            raise ValueError("no stopped instances to run")
        yield from self._bring_up(deployment, targets, phase="run")
        return deployment

    def add_instances(self, deployment: Deployment, count: int) -> Generator:
        """Add phase: grow a running deployment by ``count`` instances.

        Slower and noisier than the initial run (observation (4)).
        """
        self._check_live(deployment)
        if count < 1:
            raise ValueError("count must be >= 1")
        if not deployment.ready_instances:
            raise ValueError("deployment must be running before adding")
        new_vms = []
        for _ in range(count):
            vm = VMInstance(deployment.role, deployment.size, deployment.id)
            vm.set_state(VMState.CREATING)
            vm.set_state(VMState.STOPPED)
            if self.placement is not None:
                self.placement.place(vm)
            deployment.instances.append(vm)
            new_vms.append(vm)
        yield from self._bring_up(deployment, new_vms, phase="add")
        return new_vms

    def _bring_up(
        self,
        deployment: Deployment,
        vms: List[VMInstance],
        phase: str,
    ) -> Generator:
        start = self.env.now
        if self.inject_failures and self.timing.startup_fails():
            # The stuck instance is abandoned after a stall; the paper's
            # campaign discarded such runs and redeployed.
            self.startup_failures += 1
            for vm in vms:
                vm.set_state(VMState.STARTING)
            yield self.env.timeout(
                self.timing.ready_times(
                    deployment.role, deployment.size.name, 1, phase=phase
                )[0] * 2.0
            )
            vms[0].set_state(VMState.FAILED)
            raise StartupFailureError(
                f"{vms[0].name} never reached ready (fabric startup failure)"
            )
        offsets = self.timing.ready_times(
            deployment.role, deployment.size.name, len(vms), phase=phase
        )
        for vm in vms:
            vm.set_state(VMState.STARTING)
        order = list(np.argsort(offsets))
        for idx in order:
            target_time = start + offsets[idx]
            if target_time > self.env.now:
                yield self.env.timeout(target_time - self.env.now)
            vm = vms[idx]
            vm.set_state(VMState.READY)
            vm.ready_at = self.env.now
        deployment.phase_log[phase] = PhaseRecord(
            phase, start, min(offsets), instance_ready_s=sorted(offsets)
        )

    def suspend(self, deployment: Deployment) -> Generator:
        """Suspend phase: stop every ready instance."""
        self._check_live(deployment)
        targets = deployment.ready_instances
        if not targets:
            raise ValueError("no ready instances to suspend")
        start = self.env.now
        for vm in targets:
            vm.set_state(VMState.SUSPENDING)
        duration = self.timing.suspend_duration(
            deployment.role, deployment.size.name
        )
        yield self.env.timeout(duration)
        for vm in targets:
            vm.set_state(VMState.STOPPED)
        deployment.phase_log["suspend"] = PhaseRecord(
            "suspend", start, self.env.now - start
        )

    def delete(self, deployment: Deployment) -> Generator:
        """Delete phase: remove the deployment entirely (instances must
        be stopped first, as the management API requires)."""
        self._check_live(deployment)
        if any(vm.state == VMState.READY for vm in deployment.instances):
            raise ValueError("suspend the deployment before deleting")
        start = self.env.now
        duration = self.timing.delete_duration(
            deployment.role, deployment.size.name
        )
        yield self.env.timeout(duration)
        for vm in deployment.instances:
            if vm.node is not None:
                vm.node.detach(vm)
            if vm.state != VMState.DELETED:
                vm.set_state(VMState.DELETED)
        deployment.deleted = True
        deployment.phase_log["delete"] = PhaseRecord(
            "delete", start, self.env.now - start
        )

    def _check_live(self, deployment: Deployment) -> None:
        if deployment.deleted:
            raise ValueError(f"deployment #{deployment.id} was deleted")
