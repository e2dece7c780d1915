"""Unit tests for request hedging."""

import numpy as np
import pytest

from repro.resilience import HedgePolicy, hedged_call
from repro.simcore import Environment
from repro.storage.errors import ServerBusyError


def _run(env, gen):
    box = {}

    def proc(env):
        try:
            box["result"] = yield from gen
        except Exception as exc:  # noqa: BLE001 - test harness
            box["error"] = exc

    env.process(proc(env))
    env.run()
    return box.get("result"), box.get("error")


def _op(env, duration, value="done", error=None):
    yield env.timeout(duration)
    if error is not None:
        raise error
    return value


def _timed(env, gen):
    """Wrap a call so its completion time survives the queue drain."""
    result = yield from gen
    return result, env.now


def test_policy_validation():
    with pytest.raises(ValueError):
        HedgePolicy(percentile=0.0)
    with pytest.raises(ValueError):
        HedgePolicy(default_delay_s=0.0)


def test_hedge_delay_tracks_percentile_after_warmup():
    policy = HedgePolicy(percentile=50.0, default_delay_s=9.0, warmup=4)
    assert policy.hedge_delay() == 9.0  # warmup: default
    for latency in (1.0, 1.0, 1.0, 1.0):
        policy.latency.observe(latency)
    assert policy.hedge_delay() == pytest.approx(1.0)


def test_hedge_delay_is_exact_percentile_every_observation():
    policy = HedgePolicy(percentile=99.0, default_delay_s=2.0, warmup=16)
    rng = np.random.default_rng(3)
    # Lognormal latencies plus repeated values (ties), some below the
    # minimum delay.
    samples = np.concatenate([
        rng.lognormal(-3.0, 1.2, 1500), np.round(rng.exponential(0.1, 500), 2)
    ])
    rng.shuffle(samples)
    for n, value in enumerate(samples.tolist(), start=1):
        policy.latency.observe(value)
        want = 2.0 if n < 16 else max(
            policy.min_delay_s, float(np.percentile(samples[:n], 99.0))
        )
        assert policy.hedge_delay() == want


def test_fast_primary_never_hedges():
    env = Environment()
    policy = HedgePolicy(default_delay_s=1.0)
    pair, err = _run(
        env, _timed(env, hedged_call(env, lambda: _op(env, 0.2), policy))
    )
    assert err is None and pair[0] == "done"
    assert policy.launched == 0
    assert policy.duplicate_fraction == 0.0
    assert pair[1] == pytest.approx(0.2)


def test_slow_primary_launches_backup_which_wins():
    env = Environment()
    policy = HedgePolicy(default_delay_s=0.5)
    durations = iter([10.0, 0.3])  # primary slow, backup fast

    def make():
        return _op(env, next(durations))

    pair, err = _run(env, _timed(env, hedged_call(env, make, policy)))
    assert err is None and pair[0] == "done"
    assert policy.launched == 1 and policy.wins == 1
    # Backup launched at 0.5, finishes at 0.8; the orphaned primary is
    # defused and drained by the run without crashing it.
    assert pair[1] == pytest.approx(0.8)


def test_primary_can_still_win_after_hedge_launch():
    env = Environment()
    policy = HedgePolicy(default_delay_s=0.5)
    durations = iter([0.7, 10.0])

    def make():
        return _op(env, next(durations))

    pair, err = _run(env, _timed(env, hedged_call(env, make, policy)))
    assert err is None and pair[0] == "done"
    assert policy.launched == 1 and policy.wins == 0
    assert pair[1] == pytest.approx(0.7)


def test_primary_failure_before_hedge_propagates():
    env = Environment()
    policy = HedgePolicy(default_delay_s=5.0)
    _, err = _run(
        env,
        hedged_call(
            env, lambda: _op(env, 0.1, error=ServerBusyError("busy")), policy
        ),
    )
    assert isinstance(err, ServerBusyError)
    assert policy.launched == 0


def test_one_racer_failing_does_not_lose_the_race():
    """Primary fails after the hedge launches; the backup's result wins."""
    env = Environment()
    policy = HedgePolicy(default_delay_s=0.5)
    specs = iter([(1.0, ServerBusyError("busy")), (2.0, None)])

    def make():
        duration, error = next(specs)
        return _op(env, duration, error=error)

    pair, err = _run(env, _timed(env, hedged_call(env, make, policy)))
    assert err is None and pair[0] == "done"
    assert policy.wins == 1
    assert pair[1] == pytest.approx(2.5)


def test_raises_only_when_both_attempts_fail():
    env = Environment()
    policy = HedgePolicy(default_delay_s=0.5)
    specs = iter([(1.0, ServerBusyError("a")), (2.0, ServerBusyError("b"))])

    def make():
        duration, error = next(specs)
        return _op(env, duration, error=error)

    _, err = _run(env, hedged_call(env, make, policy))
    assert isinstance(err, ServerBusyError)
    assert env.now == pytest.approx(2.5)
