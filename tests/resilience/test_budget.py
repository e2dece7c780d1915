"""Unit + integration tests for the retry budget (token bucket)."""

import pytest

from repro.client.base import with_retries
from repro.resilience.backoff import LinearBackoff, RetryPolicy
from repro.resilience import RetryBudget
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


def test_initial_tokens_and_deposits():
    budget = RetryBudget(ratio=0.5, initial_tokens=2.0, max_tokens=3.0)
    assert budget.tokens == 2.0
    budget.record_call()
    assert budget.tokens == 2.5
    for _ in range(10):
        budget.record_call()
    assert budget.tokens == 3.0  # capped at max_tokens
    assert budget.calls == 11


def test_spend_and_shed_accounting():
    budget = RetryBudget(ratio=0.0, initial_tokens=2.0)
    assert budget.try_spend()
    assert budget.try_spend()
    assert not budget.try_spend()  # bucket empty: shed
    assert budget.granted == 2
    assert budget.shed == 1


def test_fractional_balance_cannot_fund_a_retry():
    budget = RetryBudget(ratio=0.25, initial_tokens=0.0)
    for _ in range(3):
        budget.record_call()
    assert not budget.try_spend()  # 0.75 tokens < 1.0
    budget.record_call()
    assert budget.try_spend()


def test_validation():
    with pytest.raises(ValueError):
        RetryBudget(ratio=-0.1)
    with pytest.raises(ValueError):
        RetryBudget(max_tokens=0.0)


def test_with_retries_sheds_when_budget_empty():
    """An exhausted budget surfaces the original error immediately."""
    env = Environment()
    attempts = {"n": 0}

    def always_busy():
        attempts["n"] += 1
        yield env.timeout(0.1)
        raise ServerBusyError("busy")

    budget = RetryBudget(ratio=0.0, initial_tokens=1.0)
    policy = RetryPolicy(max_retries=10, strategy=LinearBackoff(1.0))
    _, err = _run(
        env, with_retries(env, always_busy, policy, None, budget=budget)
    )
    assert isinstance(err, ServerBusyError)
    # One initial attempt + the single budgeted retry; the second retry
    # the policy would have allowed was shed.
    assert attempts["n"] == 2
    assert budget.granted == 1
    assert budget.shed == 1


def test_budget_is_shared_across_calls():
    """The bucket is group state: call N's deposits fund call M's retry."""
    env = Environment()
    budget = RetryBudget(ratio=0.5, initial_tokens=0.0)
    policy = RetryPolicy(max_retries=1, strategy=LinearBackoff(0.01))

    def ok():
        yield env.timeout(0.01)
        return "ok"

    def flaky_once(state={"failed": False}):
        if not state["failed"]:
            state["failed"] = True
            yield env.timeout(0.01)
            raise ServerBusyError("busy")
        yield env.timeout(0.01)
        return "ok"

    # Two clean calls deposit 1.0 token between them...
    for _ in range(2):
        _, err = _run(env, with_retries(env, ok, policy, None, budget=budget))
        assert err is None
    # ...which funds the flaky call's single retry.
    result, err = _run(
        env, with_retries(env, flaky_once, policy, None, budget=budget)
    )
    assert err is None and result == "ok"
    assert budget.granted == 1 and budget.shed == 0
