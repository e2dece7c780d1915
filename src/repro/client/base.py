"""Shared client plumbing: timeout racing and the retry loop.

``with_retries`` is the retry loop inside the one call path every
typed client funnels through
(:meth:`repro.client.service_client.ServiceClient._call`).  Beyond the
seed's timeout race and bounded retry it consults the optional
resilience hooks from :mod:`repro.resilience`:

* a **retry budget** (token bucket) is charged before every backoff
  sleep — when the group's budget is exhausted the retry is *shed* and
  the original error surfaces immediately, so storms are not amplified;
* a **circuit breaker** gates every attempt — an open breaker fails
  fast with :class:`~repro.resilience.breaker.CircuitOpenError` before
  any server work happens, and every attempt's outcome feeds the
  breaker's rolling error window.

Both hooks are duck-typed here (no import of :mod:`repro.resilience`)
so the client package and the resilience package stay cycle-free.
"""

from __future__ import annotations

from typing import Any, Callable, Generator, Optional

from repro.resilience.backoff import RetryPolicy
from repro.simcore import Environment, Race
from repro.storage.errors import OperationTimeoutError


class ClientTimeoutError(OperationTimeoutError):
    """The client-side operation timeout elapsed before the response.

    Subclasses OperationTimeoutError so callers and the retry policy
    treat server- and client-side timeouts uniformly, as the real SDK
    surfaced them.
    """


def race_timeout(
    env: Environment,
    operation: Generator,
    timeout_s: Optional[float],
    description: str = "operation",
) -> Generator:
    """Run a service operation with a client-side timeout.

    If the timeout elapses first the operation is abandoned (it keeps
    consuming server resources, as an abandoned HTTP request would) and
    ClientTimeoutError is raised.

    The race uses the kernel's :class:`~repro.simcore.Race` primitive:
    when the operation wins (nearly every call), the deadline event is
    cancelled and the scheduler discards it unprocessed instead of
    popping a dead heap entry — one per client op, the single largest
    source of wasted kernel work in the profiled benches.
    """
    if timeout_s is None:
        result = yield from operation
        return result
    proc = env.process(operation)
    try:
        yield Race(env, proc, timeout_s)
    except BaseException:
        # The failure's traceback keeps this frame, and the failed
        # attempt holds the failure: drop it so no cycle outlives us.
        proc = None
        raise
    if proc._processed:
        if not proc._ok:
            raise proc._value
        return proc._value
    # Abandon: silence the eventual completion/failure of the orphan.
    proc.defuse()
    raise ClientTimeoutError(
        f"{description} exceeded client timeout of {timeout_s}s"
    )


def with_retries(
    env: Environment,
    make_operation: Callable[[], Generator],
    policy: RetryPolicy,
    timeout_s: Optional[float],
    description: str = "operation",
    on_retry: Optional[Callable[[BaseException, int], None]] = None,
    budget: Optional[Any] = None,
    breaker: Optional[Any] = None,
) -> Generator:
    """The standard client call path: timeout racing plus bounded retry.

    ``budget`` (a :class:`~repro.resilience.budget.RetryBudget`) and
    ``breaker`` (a :class:`~repro.resilience.breaker.CircuitBreaker`)
    are optional; when absent the behaviour is the seed's.

    Only ``Exception`` is caught for retry classification: kernel
    control-flow exceptions (``GeneratorExit``, ``KeyboardInterrupt``)
    must never be retried, whatever the policy says.
    """
    if budget is not None:
        budget.record_call()
    attempt = 0
    while True:
        if breaker is not None:
            breaker.guard(description)
        try:
            result = yield from race_timeout(
                env, make_operation(), timeout_s, description
            )
        except Exception as error:
            if breaker is not None:
                breaker.on_failure(error)
            if not policy.should_retry(error, attempt):
                raise
            if budget is not None and not budget.try_spend():
                raise  # retry shed: the group's budget is exhausted
            if on_retry is not None:
                on_retry(error, attempt)
            yield env.timeout(policy.backoff(attempt))
            attempt += 1
        else:
            if breaker is not None:
                breaker.on_success()
            return result
