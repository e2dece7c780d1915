"""Unit tests for lifecycle timing and the fabric controller."""

import numpy as np
import pytest

from repro import calibration as cal
from repro.cluster import (
    FabricController,
    LifecycleTimingModel,
    VMState,
)
from repro.cluster.fabric import StartupFailureError
from repro.simcore import Environment, RandomStreams


def _rng(seed=0):
    return RandomStreams(seed).stream("fabric")


def _controller(env, seed=0, inject_failures=False):
    return FabricController(env, _rng(seed), inject_failures=inject_failures)


def _drive(env, gen):
    box = {}

    def proc(env):
        try:
            box["result"] = yield from gen
        except Exception as exc:  # noqa: BLE001 - test harness
            box["error"] = exc

    env.process(proc(env))
    env.run()
    return box.get("result"), box.get("error")


# -- timing model ----------------------------------------------------------

def test_timing_anchors_match_table1_means():
    model = LifecycleTimingModel(_rng())
    samples = [
        model.ready_times("worker", "small", 1)[0] for _ in range(600)
    ]
    mean, std = np.mean(samples), np.std(samples)
    assert mean == pytest.approx(533, rel=0.05)
    assert std == pytest.approx(36, rel=0.5)


def test_web_roles_start_slower_than_worker_roles():
    model = LifecycleTimingModel(_rng())
    worker = np.mean([model.ready_times("worker", "small", 1)[0] for _ in range(300)])
    web = np.mean([model.ready_times("web", "small", 1)[0] for _ in range(300)])
    assert 20 <= web - worker <= 110  # paper: 20-60 s longer


def test_larger_sizes_start_slower():
    model = LifecycleTimingModel(_rng())
    small = np.mean([model.ready_times("worker", "small", 1)[0] for _ in range(200)])
    xl = np.mean([model.ready_times("worker", "extralarge", 1)[0] for _ in range(200)])
    assert xl > small + 150


def test_instance_stagger_about_four_minutes_first_to_fourth():
    model = LifecycleTimingModel(_rng())
    lags = []
    for _ in range(300):
        times = model.ready_times("worker", "small", 4)
        lags.append(times[3] - times[0])
    assert np.mean(lags) == pytest.approx(240, rel=0.15)  # observation (3)


def test_create_duration_scales_with_package_size():
    model = LifecycleTimingModel(_rng())
    small_pkg = np.mean(
        [model.create_duration("worker", "small", 1.2) for _ in range(300)]
    )
    big_pkg = np.mean(
        [model.create_duration("worker", "small", 5.0) for _ in range(300)]
    )
    # Observation (5): a 1.2 MB package starts ~30 s faster than 5 MB.
    assert big_pkg - small_pkg == pytest.approx(30.0, rel=0.25)


def test_timing_unknown_combo_raises():
    model = LifecycleTimingModel(_rng())
    with pytest.raises(ValueError):
        model.ready_times("worker", "huge", 1)
    with pytest.raises(ValueError):
        model.ready_times("worker", "small", 0)


def test_startup_failure_rate_close_to_paper():
    model = LifecycleTimingModel(_rng())
    fails = sum(model.startup_fails() for _ in range(20_000))
    assert fails / 20_000 == pytest.approx(cal.VM_STARTUP_FAILURE_RATE, rel=0.2)


# -- fabric controller -------------------------------------------------------

def test_full_lifecycle_happy_path():
    env = Environment()
    fabric = _controller(env)

    def scenario(env):
        dep = yield from fabric.create_deployment("worker", "small", 4)
        assert all(vm.state is VMState.STOPPED for vm in dep.instances)
        yield from fabric.run(dep)
        assert len(dep.ready_instances) == 4
        added = yield from fabric.add_instances(dep, 4)
        assert len(added) == 4
        assert len(dep.ready_instances) == 8
        yield from fabric.suspend(dep)
        assert not dep.ready_instances
        yield from fabric.delete(dep)
        assert dep.deleted
        return dep

    dep, err = _drive(env, scenario(env))
    assert err is None
    assert set(dep.phase_log) == {"create", "run", "add", "suspend", "delete"}
    assert dep.phase_log["run"].duration_s > 60
    assert dep.phase_log["delete"].duration_s < 60
    # Instance ready offsets are recorded in sorted order.
    readies = dep.phase_log["run"].instance_ready_s
    assert readies == sorted(readies) and len(readies) == 4
    assert max(readies) >= dep.phase_log["run"].duration_s


def test_add_requires_running_deployment():
    env = Environment()
    fabric = _controller(env)

    def scenario(env):
        dep = yield from fabric.create_deployment("worker", "small", 2)
        yield from fabric.add_instances(dep, 2)

    _, err = _drive(env, scenario(env))
    assert isinstance(err, ValueError)


def test_delete_requires_suspend_first():
    env = Environment()
    fabric = _controller(env)

    def scenario(env):
        dep = yield from fabric.create_deployment("worker", "small", 1)
        yield from fabric.run(dep)
        yield from fabric.delete(dep)

    _, err = _drive(env, scenario(env))
    assert isinstance(err, ValueError)


def test_operations_on_deleted_deployment_fail():
    env = Environment()
    fabric = _controller(env)

    def scenario(env):
        dep = yield from fabric.create_deployment("worker", "small", 1)
        yield from fabric.run(dep)
        yield from fabric.suspend(dep)
        yield from fabric.delete(dep)
        yield from fabric.run(dep)

    _, err = _drive(env, scenario(env))
    assert isinstance(err, ValueError)


def test_startup_failure_raises_and_counts():
    env = Environment()
    # Force the failure path deterministically.
    fabric = _controller(env, inject_failures=True)
    fabric.timing.startup_fails = lambda: True

    def scenario(env):
        dep = yield from fabric.create_deployment("worker", "small", 2)
        yield from fabric.run(dep)

    _, err = _drive(env, scenario(env))
    assert isinstance(err, StartupFailureError)
    assert fabric.startup_failures == 1


def test_create_validation():
    env = Environment()
    fabric = _controller(env)
    with pytest.raises(ValueError):
        next(fabric.create_deployment("worker", "small", 0))


def test_web_suspend_slower_than_worker():
    means = {}
    for role in ("web", "worker"):
        durations = []
        for seed in range(40):
            env = Environment()
            fabric = _controller(env, seed=seed)

            def scenario(env, fabric=fabric, role=role):
                dep = yield from fabric.create_deployment(role, "small", 1)
                yield from fabric.run(dep)
                yield from fabric.suspend(dep)
                return dep.phase_log["suspend"].duration_s

            duration, err = _drive(env, scenario(env))
            assert err is None
            durations.append(duration)
        means[role] = np.mean(durations)
    # Table 1: web ~86-96 s vs worker ~35-42 s.
    assert means["web"] > means["worker"] * 1.6
