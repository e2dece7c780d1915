"""The task manager's timeout monitor (Section 5.2).

ModisAzure initially relied on queue visibility timeouts for retries,
but tasks slower than the 2-hour maximum -- and slow tasks racing their
own retries -- forced explicit monitoring: a manager tracks every
running task and kills any execution exceeding ``multiplier`` times the
historical average completion time for its kind, re-queueing the task.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro import calibration as cal
from repro.modis.tasks import Task, TaskKind
from repro.simcore import Environment, Process


@dataclass
class _RunningEntry:
    task: Task
    process: Process
    started_at: float
    kill_after_s: float


class TaskMonitor:
    """Kills task executions that exceed ``multiplier`` x kind average."""

    def __init__(
        self,
        env: Environment,
        multiplier: float = cal.MODIS_TIMEOUT_MULTIPLIER,
        sweep_interval_s: float = 60.0,
    ) -> None:
        if multiplier <= 1.0:
            raise ValueError("multiplier must exceed 1.0")
        self.env = env
        self.multiplier = multiplier
        self.sweep_interval_s = sweep_interval_s
        self._running: Dict[int, _RunningEntry] = {}
        # Cold-start averages: the deployment's expected durations.
        self._avg: Dict[TaskKind, float] = {
            TaskKind(kind): mean
            for kind, (mean, _std) in cal.MODIS_TASK_DURATION_S.items()
        }
        self._avg_count: Dict[TaskKind, int] = {k: 1 for k in self._avg}
        self.kills = 0
        self._proc: Optional[Process] = None

    def start(self) -> Process:
        """Launch the periodic sweep process."""
        if self._proc is None:
            self._proc = self.env.process(self._sweeper())
        return self._proc

    # -- bookkeeping ---------------------------------------------------------
    def register(self, task: Task, process: Process) -> None:
        """Track a running execution.

        The kill deadline is ``multiplier`` x "the average completion
        time for that task" (Section 5.2): the manager predicts each
        task's runtime from the history of like tasks, which the model
        represents as the task's nominal duration, floored by the kind
        average so a mispredicted short task is not killed eagerly.
        """
        expected = max(
            task.expected_duration_s, 0.5 * self._avg[task.kind]
        )
        self._running[task.id] = _RunningEntry(
            task, process, self.env.now, self.multiplier * expected
        )

    def deregister(self, task: Task) -> None:
        self._running.pop(task.id, None)

    def record_completion(self, kind: TaskKind, duration_s: float) -> None:
        """Fold a successful duration into the historical average."""
        n = self._avg_count[kind]
        self._avg[kind] = (self._avg[kind] * n + duration_s) / (n + 1)
        self._avg_count[kind] = n + 1

    def average(self, kind: TaskKind) -> float:
        return self._avg[kind]

    @property
    def running_count(self) -> int:
        return len(self._running)

    # -- the sweep -----------------------------------------------------------
    def _sweeper(self):
        env = self.env
        while True:
            yield env.timeout(self.sweep_interval_s)
            now = env.now
            for entry in list(self._running.values()):
                elapsed = now - entry.started_at
                if elapsed > entry.kill_after_s:
                    self.deregister(entry.task)
                    if entry.process.is_alive:
                        self.kills += 1
                        entry.process.interrupt(cause="vm_execution_timeout")
