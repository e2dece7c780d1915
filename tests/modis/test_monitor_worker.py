"""Unit tests for the task monitor and worker pool mechanics."""

import pytest

from repro.client import QueueClient
from repro.modis import FailureModel, TaskMonitor
from repro.modis.tasks import Task, TaskKind, TaskOutcome
from repro.modis.worker import TASK_QUEUE, WorkerPool
from repro.simcore import Environment, Interrupt, RandomStreams
from repro.storage import QueueService


def _pool(env, seed=0, n_workers=4, monitor=None, failure_model=None):
    streams = RandomStreams(seed)
    qsvc = QueueService(env, streams.stream("q"))
    qsvc.create_queue(TASK_QUEUE)
    return WorkerPool(
        env=env,
        queue_client=QueueClient(qsvc),
        monitor=monitor,
        failure_model=failure_model or FailureModel(streams.stream("f")),
        rng=streams.stream("jitter"),
        n_workers=n_workers,
    )


class _AlwaysSucceed:
    def sample(self, kind):
        return TaskOutcome.SUCCESS


class _FailNTimes:
    def __init__(self, n):
        self.remaining = n

    def sample(self, kind):
        if self.remaining > 0:
            self.remaining -= 1
            return TaskOutcome.UNKNOWN_FAILURE
        return TaskOutcome.SUCCESS


def test_monitor_kill_threshold_per_task():
    env = Environment()
    monitor = TaskMonitor(env, multiplier=4.0)
    short = Task(kind=TaskKind.REPROJECTION, request_id=1,
                 nominal_duration_s=300.0)
    long = Task(kind=TaskKind.REPROJECTION, request_id=1,
                nominal_duration_s=900.0)
    proc = env.process(_noop(env))
    monitor.register(short, proc)
    monitor.register(long, proc)
    assert monitor._running[short.id].kill_after_s == pytest.approx(1200.0)
    assert monitor._running[long.id].kill_after_s == pytest.approx(3600.0)


def _noop(env):
    yield env.timeout(1.0)


def test_monitor_kills_slow_execution():
    env = Environment()
    monitor = TaskMonitor(env, multiplier=4.0, sweep_interval_s=10.0)
    monitor.start()
    task = Task(kind=TaskKind.REPROJECTION, request_id=1,
                nominal_duration_s=300.0)
    log = {}

    def victim(env):
        try:
            yield env.timeout(10_000.0)  # way past 4 x 300s
            log["finished"] = True
        except Interrupt as i:
            log["killed_at"] = env.now
            log["cause"] = i.cause

    proc = env.process(victim(env))
    monitor.register(task, proc)
    env.run(until=2000.0)
    assert log["cause"] == "vm_execution_timeout"
    # Killed on the first sweep after 4 x 300 s.
    assert 1200.0 <= log["killed_at"] <= 1220.0
    assert monitor.kills == 1
    assert monitor.running_count == 0


def test_monitor_does_not_kill_healthy_execution():
    env = Environment()
    monitor = TaskMonitor(env, multiplier=4.0, sweep_interval_s=10.0)
    monitor.start()
    task = Task(kind=TaskKind.REPROJECTION, request_id=1,
                nominal_duration_s=100.0)
    log = {}

    def healthy(env):
        yield env.timeout(110.0)
        log["finished_at"] = env.now

    proc = env.process(healthy(env))
    monitor.register(task, proc)
    env.run(until=1000.0)
    assert log["finished_at"] == pytest.approx(110.0)
    assert monitor.kills == 0


def test_monitor_average_updates():
    env = Environment()
    monitor = TaskMonitor(env)
    before = monitor.average(TaskKind.REDUCTION)
    monitor.record_completion(TaskKind.REDUCTION, before * 3)
    after = monitor.average(TaskKind.REDUCTION)
    assert before < after < before * 3


def test_monitor_validation():
    env = Environment()
    with pytest.raises(ValueError):
        TaskMonitor(env, multiplier=1.0)


def test_worker_pool_executes_submitted_task():
    env = Environment()
    pool = _pool(env, failure_model=_AlwaysSucceed())
    task = Task(kind=TaskKind.REPROJECTION, request_id=1,
                nominal_duration_s=60.0)

    def submitter(env):
        yield from pool.submit(task)

    env.process(submitter(env))
    env.run(until=3600.0)
    assert task.completed
    assert pool.tasks_completed == 1
    assert len(pool.records) == 1
    record = pool.records[0]
    assert record.outcome is TaskOutcome.SUCCESS
    assert record.duration_s == pytest.approx(60.0, rel=0.15)


def test_worker_pool_retries_failed_task():
    env = Environment()
    pool = _pool(env, failure_model=_FailNTimes(2))
    task = Task(kind=TaskKind.REPROJECTION, request_id=1,
                nominal_duration_s=10.0)

    def submitter(env):
        yield from pool.submit(task)

    env.process(submitter(env))
    env.run(until=36_000.0)
    assert task.completed
    assert task.attempts == 3
    outcomes = [r.outcome for r in pool.records]
    assert outcomes.count(TaskOutcome.UNKNOWN_FAILURE) == 2
    assert outcomes.count(TaskOutcome.SUCCESS) == 1


def test_degraded_worker_task_killed_and_retried_elsewhere():
    env = Environment()
    monitor = TaskMonitor(env, multiplier=4.0, sweep_interval_s=10.0)
    monitor.start()
    pool = _pool(env, n_workers=2, monitor=monitor,
                 failure_model=_AlwaysSucceed())
    # Worker 0 degraded 6x; worker 1 healthy.
    pool.workers[0].slowdown = 6.0
    task = Task(kind=TaskKind.REPROJECTION, request_id=1,
                nominal_duration_s=300.0)

    def submitter(env):
        yield from pool.submit(task)

    env.process(submitter(env))
    env.run(until=100_000.0)
    assert task.completed
    outcomes = [r.outcome for r in pool.records]
    assert TaskOutcome.VM_EXECUTION_TIMEOUT in outcomes
    assert outcomes[-1] is TaskOutcome.SUCCESS
    killed = [r for r in pool.records
              if r.outcome is TaskOutcome.VM_EXECUTION_TIMEOUT]
    assert all(r.degraded_worker for r in killed)
    # The kill happened near 4x the task's nominal duration.
    assert killed[0].duration_s == pytest.approx(4 * 300.0, rel=0.15)


def test_worker_records_carry_day_index():
    env = Environment(initial_time=86_400.0 * 3 + 100)
    pool = _pool(env, failure_model=_AlwaysSucceed())
    task = Task(kind=TaskKind.AGGREGATION, request_id=1,
                nominal_duration_s=5.0)

    def submitter(env):
        yield from pool.submit(task)

    env.process(submitter(env))
    env.run(until=86_400.0 * 3 + 3600)
    assert pool.records[0].day == 3


def test_worker_abandons_after_max_attempts():
    from repro.modis import worker as worker_mod

    env = Environment()

    class _AlwaysFail:
        def sample(self, kind):
            return TaskOutcome.UNKNOWN_FAILURE

    pool = _pool(env, failure_model=_AlwaysFail())
    task = Task(kind=TaskKind.AGGREGATION, request_id=1,
                nominal_duration_s=1.0)

    def submitter(env):
        yield from pool.submit(task)

    env.process(submitter(env))
    env.run(until=500_000.0)
    assert task.abandoned
    assert task.attempts == worker_mod.MAX_ATTEMPTS
    assert pool.tasks_abandoned == 1
