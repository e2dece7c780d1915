"""Unit + integration tests for the circuit breaker state machine."""

import pytest

from repro.client.base import with_retries
from repro.resilience.backoff import NO_RETRY
from repro.resilience import CircuitBreaker, CircuitOpenError
from repro.simcore import Environment
from repro.storage.errors import EntityNotFoundError, ServerBusyError


def _breaker(env, **kwargs):
    defaults = dict(
        window=10, error_threshold=0.5, min_volume=4, open_for_s=30.0,
        probe_quota=1, probe_successes=2,
    )
    defaults.update(kwargs)
    return CircuitBreaker(env, **defaults)


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


def test_stays_closed_below_min_volume():
    env = Environment()
    breaker = _breaker(env, min_volume=4)
    for _ in range(3):
        breaker.on_failure(ServerBusyError("busy"))
    assert breaker.state == "closed"
    assert breaker.error_rate == 1.0


def test_trips_open_at_error_threshold():
    env = Environment()
    breaker = _breaker(env)
    for _ in range(2):
        breaker.on_success()
    for _ in range(2):
        breaker.on_failure(ServerBusyError("busy"))
    assert breaker.state == "open"
    assert breaker.opens == 1
    with pytest.raises(CircuitOpenError):
        breaker.guard("insert")
    assert breaker.fast_failures == 1


def test_semantic_errors_count_as_answers():
    """Not-found proves the service is answering: never trips the breaker."""
    env = Environment()
    breaker = _breaker(env)
    for _ in range(20):
        breaker.on_failure(EntityNotFoundError("missing"))
    assert breaker.state == "closed"
    assert breaker.error_rate == 0.0


def test_half_open_probe_cycle_closes_on_success():
    env = Environment()
    breaker = _breaker(env, open_for_s=10.0, probe_successes=2)
    for _ in range(4):
        breaker.on_failure(ServerBusyError("busy"))
    assert breaker.state == "open"

    env.run(until=10.0)  # past open_for_s
    breaker.guard()  # transitions to half-open and admits the probe
    assert breaker.state == "half_open"
    breaker.on_success()
    breaker.guard()
    breaker.on_success()
    assert breaker.state == "closed"
    assert breaker.state_sequence() == [
        "closed", "open", "half_open", "closed",
    ]


def test_half_open_probe_failure_reopens():
    env = Environment()
    breaker = _breaker(env, open_for_s=10.0)
    for _ in range(4):
        breaker.on_failure(ServerBusyError("busy"))
    env.run(until=10.0)
    breaker.guard()
    assert breaker.state == "half_open"
    breaker.on_failure(ServerBusyError("still busy"))
    assert breaker.state == "open"
    assert breaker.opens == 2
    # The re-open restarts the clock: still open a moment later.
    env.run(until=15.0)
    with pytest.raises(CircuitOpenError):
        breaker.guard()


def test_half_open_probe_quota_limits_concurrency():
    env = Environment()
    breaker = _breaker(env, open_for_s=1.0, probe_quota=1)
    for _ in range(4):
        breaker.on_failure(ServerBusyError("busy"))
    env.run(until=1.0)
    breaker.guard()  # the one admitted probe
    with pytest.raises(CircuitOpenError):
        breaker.guard()  # quota exhausted while the probe is in flight


def test_transition_callback_fires():
    """Every state change lands in ``transitions``, timestamped."""
    env = Environment()
    breaker = _breaker(env, open_for_s=1.0)
    for _ in range(4):
        breaker.on_failure(ServerBusyError("busy"))
    assert breaker.transitions == [(0.0, "closed", "open")]
    env.run(until=1.0)
    breaker.guard()
    assert breaker.transitions[-1] == (1.0, "open", "half_open")


def test_validation():
    env = Environment()
    with pytest.raises(ValueError):
        CircuitBreaker(env, error_threshold=0.0)
    with pytest.raises(ValueError):
        CircuitBreaker(env, window=0)


def test_with_retries_fails_fast_when_open():
    """An open breaker rejects the call before any server work."""
    env = Environment()
    breaker = _breaker(env)
    for _ in range(4):
        breaker.on_failure(ServerBusyError("busy"))
    attempts = {"n": 0}

    def op():
        attempts["n"] += 1
        yield env.timeout(0.1)
        return "ok"

    _, err = _run(
        env, with_retries(env, op, NO_RETRY, None, breaker=breaker)
    )
    assert isinstance(err, CircuitOpenError)
    assert attempts["n"] == 0  # never sent
    assert env.now == 0.0  # and no time spent


def test_with_retries_feeds_the_breaker_window():
    env = Environment()
    breaker = _breaker(env, min_volume=2, error_threshold=1.0)

    def busy():
        yield env.timeout(0.1)
        raise ServerBusyError("busy")

    for _ in range(2):
        _, err = _run(env, with_retries(env, busy, NO_RETRY, None,
                                        breaker=breaker))
        assert isinstance(err, ServerBusyError)
    assert breaker.state == "open"
