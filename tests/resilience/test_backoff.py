"""Unit tests for the pluggable backoff strategies."""

import numpy as np
import pytest

from repro.resilience.backoff import RetryPolicy
from repro.resilience import (
    BackoffStrategy,
    CappedExponentialBackoff,
    FullJitterBackoff,
    LinearBackoff,
)
from repro.resilience.backoff import make_backoff


def test_linear_matches_seed_schedule():
    linear = LinearBackoff(base_s=1.0)
    assert [linear.delay(a) for a in range(3)] == [1.0, 2.0, 3.0]


def test_capped_exponential_grows_then_caps():
    exp = CappedExponentialBackoff(base_s=0.5, factor=2.0, cap_s=4.0)
    assert [exp.delay(a) for a in range(6)] == [0.5, 1.0, 2.0, 4.0, 4.0, 4.0]


def test_capped_exponential_validation():
    with pytest.raises(ValueError):
        CappedExponentialBackoff(base_s=0.0)
    with pytest.raises(ValueError):
        CappedExponentialBackoff(factor=0.5)
    with pytest.raises(ValueError):
        CappedExponentialBackoff(cap_s=-1.0)


def test_full_jitter_stays_under_ceiling_and_is_reproducible():
    delays = []
    for _ in range(2):
        jitter = FullJitterBackoff(
            np.random.default_rng(11), base_s=1.0, factor=2.0, cap_s=8.0
        )
        delays.append([jitter.delay(a) for a in range(40)])
    assert delays[0] == delays[1]  # same seed, same schedule
    ceiling = CappedExponentialBackoff(1.0, 2.0, 8.0)
    for attempt in range(4):
        sampled = [
            FullJitterBackoff(np.random.default_rng(s), 1.0, 2.0, 8.0)
            .delay(attempt)
            for s in range(50)
        ]
        assert all(0.0 <= d <= ceiling.delay(attempt) for d in sampled)
        # Full jitter actually uses the range, not a corner of it.
        assert max(sampled) > 0.5 * ceiling.delay(attempt)


def test_strategies_satisfy_the_protocol():
    rng = np.random.default_rng(0)
    for strategy in (
        LinearBackoff(),
        CappedExponentialBackoff(),
        FullJitterBackoff(rng),
    ):
        assert isinstance(strategy, BackoffStrategy)


def test_make_backoff_factory():
    assert isinstance(make_backoff("linear", 1.0), LinearBackoff)
    assert isinstance(
        make_backoff("exponential", 0.5), CappedExponentialBackoff
    )
    jitter = make_backoff("jitter", 0.5, rng=np.random.default_rng(1))
    assert isinstance(jitter, FullJitterBackoff)
    with pytest.raises(ValueError):
        make_backoff("jitter", 0.5)  # rng required
    with pytest.raises(ValueError):
        make_backoff("fibonacci", 0.5)


def test_retry_policy_uses_strategy_when_given():
    exp = CappedExponentialBackoff(base_s=0.25, factor=2.0, cap_s=10.0)
    policy = RetryPolicy(max_retries=3, strategy=exp)
    assert policy.backoff(0) == 0.25
    assert policy.backoff(3) == 2.0


def test_retry_policy_default_is_seed_linear():
    policy = RetryPolicy(max_retries=3)
    assert policy.strategy == LinearBackoff(1.0)
    assert [policy.backoff(a) for a in range(3)] == [1.0, 2.0, 3.0]


# -- the retired repro.client.retry shim (removed after a deprecation
# cycle): the canonical import path is the one and only.

def test_legacy_client_retry_module_is_gone():
    with pytest.raises(ImportError):
        import repro.client.retry  # noqa: F401


def test_no_retry_policy_behaves():
    from repro.resilience.backoff import NO_RETRY
    from repro.storage.errors import ServerBusyError

    assert not NO_RETRY.should_retry(ServerBusyError("busy"), attempt=0)
