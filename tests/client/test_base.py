"""Unit tests for client plumbing: timeout racing and retries."""

import pytest

from repro.client import ClientTimeoutError, RetryPolicy, race_timeout
from repro.client.base import with_retries
from repro.resilience.backoff import NO_RETRY, LinearBackoff
from repro.simcore import Environment
from repro.storage.errors import (
    EntityNotFoundError,
    OperationTimeoutError,
    ServerBusyError,
)


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


def _slow_op(env, duration, value="done", error=None):
    yield env.timeout(duration)
    if error is not None:
        raise error
    return value


def test_race_timeout_returns_result_when_fast():
    env = Environment()

    def scenario(env):
        result = yield from race_timeout(env, _slow_op(env, 1.0), 5.0)
        return result, env.now

    (result, finished_at), err = _run(env, scenario(env))
    assert err is None and result == "done"
    assert finished_at == pytest.approx(1.0)  # not delayed by the timer


def test_race_timeout_raises_when_slow():
    env = Environment()

    def scenario(env):
        try:
            yield from race_timeout(env, _slow_op(env, 10.0), 2.0)
        except ClientTimeoutError:
            return env.now
        return None

    raised_at, err = _run(env, scenario(env))
    assert err is None
    assert raised_at == pytest.approx(2.0)


def test_race_timeout_none_means_no_timeout():
    env = Environment()
    result, err = _run(env, race_timeout(env, _slow_op(env, 100.0), None))
    assert err is None and result == "done"


def test_abandoned_operation_failure_does_not_crash_run():
    env = Environment()

    def failing_late(env):
        yield env.timeout(10.0)
        raise ServerBusyError("late failure nobody hears")

    _, err = _run(env, race_timeout(env, failing_late(env), 1.0))
    assert isinstance(err, ClientTimeoutError)
    env.run()  # the orphan fails at t=10 but is defused


def test_race_timeout_propagates_operation_error():
    env = Environment()
    _, err = _run(
        env,
        race_timeout(
            env, _slow_op(env, 1.0, error=EntityNotFoundError("x")), 5.0
        ),
    )
    assert isinstance(err, EntityNotFoundError)


def test_with_retries_retries_retryable_errors():
    env = Environment()
    attempts = {"n": 0}

    def flaky():
        attempts["n"] += 1
        yield env.timeout(0.1)
        if attempts["n"] < 3:
            raise ServerBusyError("busy")
        return "ok"

    policy = RetryPolicy(max_retries=3, strategy=LinearBackoff(1.0))
    result, err = _run(env, with_retries(env, flaky, policy, None))
    assert err is None and result == "ok"
    assert attempts["n"] == 3
    # Two backoffs: 1.0 + 2.0, plus three 0.1s attempts.
    assert env.now == pytest.approx(3.3)


def test_with_retries_gives_up_after_max():
    env = Environment()
    attempts = {"n": 0}

    def always_busy():
        attempts["n"] += 1
        yield env.timeout(0.1)
        raise ServerBusyError("busy")

    policy = RetryPolicy(max_retries=2, strategy=LinearBackoff(0.5))
    _, err = _run(env, with_retries(env, always_busy, policy, None))
    assert isinstance(err, ServerBusyError)
    assert attempts["n"] == 3  # initial + 2 retries


def test_with_retries_never_retries_semantic_errors():
    env = Environment()
    attempts = {"n": 0}

    def not_found():
        attempts["n"] += 1
        yield env.timeout(0.1)
        raise EntityNotFoundError("missing")

    policy = RetryPolicy(max_retries=5)
    _, err = _run(env, with_retries(env, not_found, policy, None))
    assert isinstance(err, EntityNotFoundError)
    assert attempts["n"] == 1


def test_no_retry_policy():
    assert not NO_RETRY.should_retry(ServerBusyError(), 0)


def test_retry_policy_classification():
    policy = RetryPolicy(max_retries=2)
    assert policy.should_retry(OperationTimeoutError(), 0)
    assert policy.should_retry(ServerBusyError(), 1)
    assert not policy.should_retry(ServerBusyError(), 2)
    assert not policy.should_retry(ValueError(), 0)
    assert policy.backoff(0) < policy.backoff(1)


class _KernelInterrupt(BaseException):
    """A control-flow exception that must never enter retry handling."""


class _RetryEverything:
    """A (mis)policy claiming every error, any number of times."""

    def should_retry(self, _error, _attempt):
        return True

    def backoff(self, _attempt):
        return 0.1


def test_with_retries_never_catches_base_exceptions():
    """Regression: the loop once caught BaseException, so a policy like
    this could swallow kernel control-flow exceptions and retry them."""
    env = Environment()
    attempts = {"n": 0}

    def interrupted():
        attempts["n"] += 1
        yield env.timeout(0.1)
        raise _KernelInterrupt()

    box = {}

    def proc(env):
        try:
            yield from with_retries(
                env, interrupted, _RetryEverything(), None
            )
        except BaseException as exc:  # noqa: BLE001 - the assertion
            box["error"] = exc

    env.process(proc(env))
    env.run()
    assert isinstance(box["error"], _KernelInterrupt)
    assert attempts["n"] == 1  # propagated on the first attempt


def test_with_retries_still_retries_plain_exceptions_with_such_policy():
    env = Environment()
    attempts = {"n": 0}

    def flaky():
        attempts["n"] += 1
        yield env.timeout(0.1)
        if attempts["n"] < 3:
            raise ValueError("transient")
        return "ok"

    result, err = _run(env, with_retries(env, flaky, _RetryEverything(), None))
    assert err is None and result == "ok"
    assert attempts["n"] == 3


def test_abandoned_operation_still_consumes_server_capacity():
    """The race_timeout orphan path: an abandoned request is not
    cancelled — it holds server capacity and completes server-side."""
    from repro.simcore import RandomStreams
    from repro.storage import TableService
    from repro.storage.table import make_entity

    env = Environment()
    svc = TableService(env, RandomStreams(0).stream("t"))
    svc.create_table("t")
    server = svc.server_for("t", "p")
    observed = {}

    def scenario(env):
        try:
            yield from race_timeout(
                env, svc.insert("t", make_entity("p", "r")), 0.001, "insert"
            )
        except ClientTimeoutError:
            observed["abandoned_at"] = env.now

    def watcher(env):
        # After the client walks away, the orphan still travels to the
        # server and occupies it; record the capacity it held.
        max_active = 0
        while svc.entity_count("t") == 0 and env.now < 5.0:
            if "abandoned_at" in observed:
                max_active = max(max_active, server.active_requests)
            yield env.timeout(0.0005)
        observed["max_active_while_orphaned"] = max_active

    env.process(scenario(env))
    env.process(watcher(env))
    env.run()  # drains the orphan: defuse() silences it, no crash
    assert observed["abandoned_at"] == pytest.approx(0.001)
    assert observed["max_active_while_orphaned"] >= 1
    assert server.active_requests == 0
    # The server finished the work nobody was waiting for.
    assert svc.entity_count("t") == 1


def test_abandoned_operation_failure_is_defused_not_raised():
    """If the orphan later fails, defuse() keeps the kernel quiet."""
    env = Environment()

    def fails_late(env):
        yield env.timeout(5.0)
        raise ServerBusyError("nobody is listening")

    _, err = _run(env, race_timeout(env, fails_late(env), 1.0))
    assert isinstance(err, ClientTimeoutError)
    env.run()  # the orphan fails at t=5.0; a crash here fails the test
    assert env.now == pytest.approx(5.0)
