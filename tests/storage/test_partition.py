"""Unit tests for the partition-server front end."""

import pytest

from repro.simcore import Environment, RandomStreams
from repro.storage import OperationTimeoutError, OpSpec, PartitionServer
from repro.storage.queue import QueueService
from repro.storage.table import TableService


def _drive(env, server, ops, errors=None):
    done = []

    def client(env, op):
        try:
            yield from server.execute(op)
            done.append(env.now)
        except OperationTimeoutError as exc:
            if errors is not None:
                errors.append(exc)
            else:
                raise

    for op in ops:
        env.process(client(env, op))
    return done


def _server(env, seed=0, **kw):
    rng = RandomStreams(seed).stream("part")
    return PartitionServer(env, rng, **kw)


def test_deterministic_op_takes_cpu_time():
    env = Environment()
    server = _server(env, frontend_c_s=0.0)
    op = OpSpec(name="op", cpu_s=0.5, deterministic=True)
    done = _drive(env, server, [op])
    env.run()
    assert done == [pytest.approx(0.5)]
    assert server.stats.completed == 1


def test_latch_serializes_conflicting_ops():
    env = Environment()
    server = _server(env, frontend_c_s=0.0)
    op = OpSpec(
        name="w", exclusive_s=1.0, latch_key="k", deterministic=True
    )
    done = _drive(env, server, [op, op, op])
    env.run()
    assert done == [pytest.approx(t) for t in (1.0, 2.0, 3.0)]


def test_different_latch_keys_run_in_parallel():
    env = Environment()
    server = _server(env, frontend_c_s=0.0)
    ops = [
        OpSpec(name="w", exclusive_s=1.0, latch_key=f"k{i}", deterministic=True)
        for i in range(3)
    ]
    done = _drive(env, server, ops)
    env.run()
    assert done == [pytest.approx(1.0)] * 3


def test_cpu_pool_limits_parallel_scans():
    env = Environment()
    server = _server(env, frontend_c_s=0.0, cores=2)
    op = OpSpec(name="scan", cpu_s=1.0, deterministic=True)
    done = _drive(env, server, [op] * 4)
    env.run()
    # 2 cores: two waves of two.
    assert done == [pytest.approx(t) for t in (1.0, 1.0, 2.0, 2.0)]


def test_frontend_penalty_grows_with_concurrency():
    env = Environment()
    # Deterministic: the k-th concurrent request pays c * active**g extra.
    server = _server(env, frontend_c_s=0.01, frontend_gamma=1.0)
    op = OpSpec(name="op", cpu_s=0.05, deterministic=True)
    solo_done = _drive(env, server, [op])
    env.run()
    solo_time = solo_done[0]

    env2 = Environment()
    server2 = _server(env2, frontend_c_s=0.01, frontend_gamma=1.0)
    done = _drive(env2, server2, [op] * 10)
    env2.run()
    assert max(done) > solo_time
    assert server2.stats.peak_concurrency == 10


def test_exclusive_without_latch_key_raises():
    env = Environment()
    server = _server(env)
    op = OpSpec(name="bad", exclusive_s=1.0, latch_key=None)
    errors = []

    def client(env):
        try:
            yield from server.execute(op)
        except ValueError as exc:
            errors.append(exc)

    env.process(client(env))
    env.run()
    assert len(errors) == 1


def test_overload_shedding_fails_requests_under_payload_pressure():
    env = Environment()
    server = _server(
        env,
        frontend_c_s=0.0,
        overload_knee_mb=0.5,
        overload_slope_per_mb=0.05,
        server_timeout_s=5.0,
    )
    op = OpSpec(name="big", cpu_s=0.1, payload_mb=0.25)
    errors = []
    # 100 concurrent 0.25 MB requests -> 25 MB in flight >> 0.5 MB knee.
    _drive(env, server, [op] * 100, errors=errors)
    env.run()
    assert server.stats.shed > 0
    assert len(errors) == server.stats.shed
    # Shed requests stall for the full server timeout.
    assert env.now >= 5.0


def test_no_shedding_below_knee():
    env = Environment()
    server = _server(
        env, overload_knee_mb=10.0, overload_slope_per_mb=0.05
    )
    op = OpSpec(name="small", cpu_s=0.01, payload_mb=0.001)
    _drive(env, server, [op] * 50)
    env.run()
    assert server.stats.shed == 0
    assert server.stats.completed == 50


def test_inflight_accounting_returns_to_zero():
    env = Environment()
    server = _server(env)
    op = OpSpec(name="op", cpu_s=0.05, payload_mb=0.1)
    _drive(env, server, [op] * 20)
    env.run()
    assert server.active_requests == 0
    assert server.inflight_payload_mb == pytest.approx(0.0, abs=1e-9)


def test_stats_track_op_names():
    env = Environment()
    server = _server(env)
    _drive(env, server, [OpSpec(name="a", cpu_s=0.01),
                         OpSpec(name="a", cpu_s=0.01),
                         OpSpec(name="b", cpu_s=0.01)])
    env.run()
    assert server.stats.ops_by_name == {"a": 2, "b": 1}


def test_parameter_validation():
    env = Environment()
    rng = RandomStreams(0).stream("x")
    with pytest.raises(ValueError):
        PartitionServer(env, rng, frontend_c_s=-1.0)


# -- server selection (the pipeline's routing targets) --------------------


def _streams(seed=0):
    return RandomStreams(seed)


def test_table_server_selection_is_per_partition():
    env = Environment()
    svc = TableService(env, _streams().stream("tables"))
    a = svc.server_for("t", "pk-a")
    b = svc.server_for("t", "pk-b")
    other_table = svc.server_for("u", "pk-a")
    assert a is svc.server_for("t", "pk-a")  # stable identity
    assert a is not b
    assert a is not other_table
    assert a.name == f"{svc.name}/t/pk-a"


def test_queue_server_selection_is_per_queue():
    env = Environment()
    svc = QueueService(env, _streams().stream("queues"))
    a = svc.server_for("q1")
    b = svc.server_for("q2")
    assert a is svc.server_for("q1")
    assert a is not b
    assert a.name == f"{svc.name}/q1"


# -- observer hook: queue/latch wait under concurrency --------------------


def _drive_observed(env, server, ops):
    """Run ops concurrently, returning [(stage, seconds), ...] per op."""
    waits = [[] for _ in ops]

    def client(op, log):
        yield from server.execute(
            op, observer=lambda stage, s: log.append((stage, s))
        )

    for op, log in zip(ops, waits):
        env.process(client(op, log))
    env.run()
    return waits


def test_observer_reports_cpu_wait_under_core_contention():
    env = Environment()
    server = _server(env, frontend_c_s=0.0, cores=1)
    op = OpSpec(name="op", cpu_s=1.0, deterministic=True)
    first, second = _drive_observed(env, server, [op, op])
    assert dict(first)["cpu_wait"] == pytest.approx(0.0)
    # The second op queued behind the first's full CPU slice.
    assert dict(second)["cpu_wait"] == pytest.approx(1.0)


def test_observer_reports_latch_wait_for_conflicting_writes():
    env = Environment()
    server = _server(env, frontend_c_s=0.0)
    op = OpSpec(name="w", exclusive_s=0.5, latch_key="k", deterministic=True)
    first, second, third = _drive_observed(env, server, [op, op, op])
    assert dict(first)["latch_wait"] == pytest.approx(0.0)
    assert dict(second)["latch_wait"] == pytest.approx(0.5)
    assert dict(third)["latch_wait"] == pytest.approx(1.0)


def test_observer_sees_no_wait_on_disjoint_latches():
    env = Environment()
    server = _server(env, frontend_c_s=0.0)
    ops = [
        OpSpec(name="w", exclusive_s=0.5, latch_key=f"k{i}", deterministic=True)
        for i in range(3)
    ]
    for waits in _drive_observed(env, server, ops):
        assert dict(waits)["latch_wait"] == pytest.approx(0.0)


def test_observer_is_optional_and_pure():
    """Observed and unobserved runs complete at identical instants."""
    env1 = Environment()
    server1 = _server(env1, frontend_c_s=0.0, cores=1)
    op = OpSpec(name="op", cpu_s=0.3, deterministic=True)
    done1 = _drive(env1, server1, [op] * 3)
    env1.run()

    env2 = Environment()
    server2 = _server(env2, frontend_c_s=0.0, cores=1)
    _drive_observed(env2, server2, [op] * 3)
    assert done1 == [pytest.approx(t) for t in (0.3, 0.6, 0.9)]
    assert env2.now == pytest.approx(env1.now)


def test_shed_request_error_carries_server_context():
    env = Environment()
    server = _server(
        env,
        frontend_c_s=0.0,
        overload_knee_mb=0.5,
        overload_slope_per_mb=0.05,
        server_timeout_s=5.0,
    )
    op = OpSpec(name="big", cpu_s=0.1, payload_mb=0.25)
    errors = []
    _drive(env, server, [op] * 100, errors=errors)
    env.run()
    assert errors
    err = errors[0]
    assert isinstance(err, OperationTimeoutError)
    assert err.service == server.name
    assert err.op == "big"
