"""A circuit breaker for storage clients.

When a service is down, every attempt costs a full client timeout and
adds load to whatever is left of the service.  The breaker watches a
rolling window of transport-level outcomes and, past an error-rate
threshold, *opens*: calls fail immediately with
:class:`CircuitOpenError` instead of being sent.  After ``open_for_s``
it admits a bounded number of half-open probes; enough probe successes
close it again, any probe failure re-opens it.

States: ``closed`` → (error rate ≥ threshold over ≥ min_volume
outcomes) → ``open`` → (open_for_s elapsed) → ``half_open`` →
(probe successes) → ``closed``, or (probe failure) → ``open``.

Only transport/server failures (retryable :class:`StorageError`) count
against the window; semantic failures such as not-found prove the
service *is* answering and count as successes.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, List, Tuple

from repro.simcore import Environment
from repro.storage.errors import StorageError, is_transport_failure

CLOSED = "closed"
OPEN = "open"
HALF_OPEN = "half_open"


class CircuitOpenError(StorageError):
    """Fail-fast: the circuit breaker is open, the call was not sent."""

    retryable = False


class CircuitBreaker:
    """Rolling-error-rate circuit breaker (see module docstring).

    Parameters
    ----------
    window:
        Number of recent outcomes the error rate is computed over.
    error_threshold:
        Open when ``failures / outcomes`` reaches this, provided at
        least ``min_volume`` outcomes are in the window.
    open_for_s:
        How long the breaker stays open before probing.
    probe_quota:
        Max concurrent half-open probe calls.
    probe_successes:
        Consecutive probe successes required to close.

    Every state change is recorded in :attr:`transitions`.
    """

    def __init__(
        self,
        env: Environment,
        window: int = 20,
        error_threshold: float = 0.5,
        min_volume: int = 10,
        open_for_s: float = 30.0,
        probe_quota: int = 2,
        probe_successes: int = 2,
        name: str = "breaker",
    ) -> None:
        if not 0 < error_threshold <= 1:
            raise ValueError("error_threshold must be in (0, 1]")
        if window < 1 or min_volume < 1:
            raise ValueError("window and min_volume must be >= 1")
        self.env = env
        self.name = name
        self.window = window
        self.error_threshold = error_threshold
        self.min_volume = min_volume
        self.open_for_s = open_for_s
        self.probe_quota = probe_quota
        self.probe_successes = probe_successes

        self.state = CLOSED
        self.opened_at = float("-inf")
        #: ``(time, old_state, new_state)`` in occurrence order.
        self.transitions: List[Tuple[float, str, str]] = []
        #: Calls rejected without being sent.
        self.fast_failures = 0
        #: Times the breaker tripped open (from closed or half-open).
        self.opens = 0
        self._outcomes: Deque[bool] = deque(maxlen=window)
        self._probes_inflight = 0
        self._probe_successes = 0

    # -- classification ----------------------------------------------------
    @staticmethod
    def counts_as_failure(error: BaseException) -> bool:
        """Transport/server failures only; semantic errors are answers.

        Shares :func:`repro.storage.errors.is_transport_failure` with the
        retry policy, so breaker and retry always classify identically.
        """
        return is_transport_failure(error)

    @property
    def error_rate(self) -> float:
        if not self._outcomes:
            return 0.0
        return sum(1 for ok in self._outcomes if not ok) / len(self._outcomes)

    # -- state machine -----------------------------------------------------
    def _transition(self, new_state: str) -> None:
        old, self.state = self.state, new_state
        self.transitions.append((self.env.now, old, new_state))

    def _trip(self) -> None:
        self.opens += 1
        self.opened_at = self.env.now
        self._outcomes.clear()
        self._probes_inflight = 0
        self._probe_successes = 0
        self._transition(OPEN)

    def guard(self, description: str = "call") -> None:
        """Gate one attempt; raises :class:`CircuitOpenError` if open."""
        if self.state == OPEN:
            if self.env.now - self.opened_at >= self.open_for_s:
                self._transition(HALF_OPEN)
            else:
                self.fast_failures += 1
                raise CircuitOpenError(
                    f"{self.name} open ({description} rejected; retry after "
                    f"{self.opened_at + self.open_for_s - self.env.now:.1f}s)"
                )
        if self.state == HALF_OPEN:
            if self._probes_inflight >= self.probe_quota:
                self.fast_failures += 1
                raise CircuitOpenError(
                    f"{self.name} half-open ({description} rejected: "
                    "probe quota exhausted)"
                )
            self._probes_inflight += 1

    def on_success(self) -> None:
        """Record a successful attempt (must follow a passing guard)."""
        if self.state == HALF_OPEN:
            self._probes_inflight = max(0, self._probes_inflight - 1)
            self._probe_successes += 1
            if self._probe_successes >= self.probe_successes:
                self._outcomes.clear()
                self._transition(CLOSED)
        else:
            self._outcomes.append(True)

    def on_failure(self, error: BaseException) -> None:
        """Record a failed attempt (must follow a passing guard)."""
        if not self.counts_as_failure(error):
            self.on_success()
            return
        if self.state == HALF_OPEN:
            self._probes_inflight = max(0, self._probes_inflight - 1)
            self._trip()
            return
        self._outcomes.append(False)
        if (
            self.state == CLOSED
            and len(self._outcomes) >= self.min_volume
            and self.error_rate >= self.error_threshold
        ):
            self._trip()

    def state_sequence(self) -> List[str]:
        """States visited, starting from closed (for drill assertions)."""
        return [CLOSED] + [new for (_t, _old, new) in self.transitions]

    def __repr__(self) -> str:
        return (
            f"<CircuitBreaker {self.name} {self.state}"
            f" err={self.error_rate:.2f} opens={self.opens}>"
        )
