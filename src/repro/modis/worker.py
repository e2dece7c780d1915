"""Worker roles: the task execution loop (Fig. 6's compute layer).

Each worker repeatedly takes a task from the Azure queue, executes it
(wall-clock = nominal duration x the worker's current slowdown), commits
or retries based on the sampled outcome, and logs an execution record.
A degraded worker (slowdown > 1) runs tasks slowly enough that the task
monitor's 4x rule kills them -- the "VM execution timeout" rows of
Table 2 and the spikes of Fig. 7.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from repro.client import QueueClient
from repro.modis.failures import FailureModel
from repro.modis.monitor import TaskMonitor
from repro.modis.tasks import (
    ExecutionRecord,
    Task,
    TaskOutcome,
    TERMINAL_COMPLETE,
    TERMINAL_FAILURES,
)
from repro.simcore import Environment, Interrupt, Store
from repro.storage.errors import MessageNotFoundError, QueueEmptyError

#: Retry ceiling: a task failing this many times is abandoned (prevents
#: infinite churn on pathological tasks).
MAX_ATTEMPTS = 80

TASK_QUEUE = "modis-tasks"


@dataclass
class Worker:
    """One worker-role instance (duck-types the degradation model's VM)."""

    index: int
    slowdown: float = 1.0

    @property
    def is_degraded(self) -> bool:
        return self.slowdown > 1.0


@dataclass
class WorkerPool:
    """The ~200-instance worker fleet plus its dispatch plumbing."""

    env: Environment
    queue_client: QueueClient
    monitor: Optional[TaskMonitor]
    failure_model: FailureModel
    rng: np.random.Generator
    n_workers: int = 200
    visibility_timeout_s: float = 7200.0
    workers: List[Worker] = field(default_factory=list)
    records: List[ExecutionRecord] = field(default_factory=list)
    tasks_completed: int = 0
    tasks_abandoned: int = 0
    _ids: itertools.count = field(default_factory=lambda: itertools.count())

    def __post_init__(self) -> None:
        self.work_tokens = Store(self.env)
        self.workers = [Worker(i) for i in range(self.n_workers)]
        for worker in self.workers:
            self.env.process(self._worker_loop(worker))
        self.env.process(self._scavenger())

    # -- dispatch ------------------------------------------------------------
    def submit(self, task: Task):
        """Enqueue a task (generator: drives the real queue service)."""
        yield from self.queue_client.add(TASK_QUEUE, task, size_kb=2.0)
        yield self.work_tokens.put(1)

    def resubmit(self, task: Task):
        yield from self.submit(task)

    def _scavenger(self):
        """Re-arms dispatch for messages whose visibility expired.

        Tokens normally track explicit submissions; a message that
        reappears because its consumer ran past the visibility timeout
        (the Section 5.2 hazard) has no token, so this sweep issues one
        whenever a visible message exists with no pending token --
        letting a second worker pick the task up concurrently, exactly
        as the real system suffered.
        """
        from repro.storage.errors import QueueEmptyError

        interval = max(self.visibility_timeout_s / 2.0, 15.0)
        while True:
            yield self.env.timeout(interval)
            if len(self.work_tokens.items) > 0:
                continue
            try:
                yield from self.queue_client.peek(TASK_QUEUE)
            except QueueEmptyError:
                continue
            yield self.work_tokens.put(1)

    # -- the worker loop ---------------------------------------------------
    def _worker_loop(self, worker: Worker):
        env = self.env
        while True:
            yield self.work_tokens.get()
            try:
                message = yield from self.queue_client.receive(
                    TASK_QUEUE, visibility_timeout_s=self.visibility_timeout_s
                )
            except QueueEmptyError:
                continue  # another worker (or a stale retry) drained it
            task: Task = message.payload
            if task.finished:
                # A duplicate delivery of an already-completed task
                # (visibility-timeout race, Section 5.2).
                yield from self._delete_quietly(message)
                continue
            yield from self._execute(worker, task, message)

    def _execute(self, worker: Worker, task: Task, message):
        env = self.env
        task.attempts += 1
        attempt = task.attempts
        started = env.now
        degraded = worker.is_degraded

        # Wall-clock duration: nominal work stretched by the worker's
        # health, with small per-attempt jitter.
        jitter = float(self.rng.uniform(0.9, 1.1))
        duration = task.nominal_duration_s * jitter * worker.slowdown

        execution = env.process(self._sleep_through(duration))
        if self.monitor is not None:
            self.monitor.register(task, execution)
        killed = yield execution
        if self.monitor is not None:
            self.monitor.deregister(task)

        if killed:
            outcome = TaskOutcome.VM_EXECUTION_TIMEOUT
        else:
            outcome = self.failure_model.sample(task.kind)

        self.records.append(
            ExecutionRecord(
                task_id=task.id,
                kind=task.kind,
                attempt=attempt,
                worker=worker.index,
                started_at=started,
                finished_at=env.now,
                outcome=outcome,
                degraded_worker=degraded,
            )
        )

        yield from self._delete_quietly(message)

        if outcome is TaskOutcome.SUCCESS:
            if not task.finished:  # guard against duplicate deliveries
                task.completed = True
                self.tasks_completed += 1
            if self.monitor is not None and not degraded:
                self.monitor.record_completion(task.kind, env.now - started)
        elif outcome in TERMINAL_FAILURES:
            # Product exists (or a deterministic user-code bug): the
            # retry loop ends here either way.
            if not task.finished:
                if outcome in TERMINAL_COMPLETE:
                    task.completed = True
                    self.tasks_completed += 1
                else:
                    task.abandoned = True
                    self.tasks_abandoned += 1
        elif attempt >= MAX_ATTEMPTS:
            task.abandoned = True
            self.tasks_abandoned += 1
        else:
            yield from self.resubmit(task)

    def _sleep_through(self, duration: float):
        """The interruptible execution body; returns True if killed."""
        try:
            yield self.env.timeout(duration)
            return False
        except Interrupt:
            return True

    def _delete_quietly(self, message):
        try:
            yield from self.queue_client.delete(
                TASK_QUEUE, message, message.pop_receipt
            )
        except MessageNotFoundError:
            pass  # visibility expired and another worker re-received it
