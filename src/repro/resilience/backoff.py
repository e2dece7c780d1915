"""Retry policy and pluggable backoff strategies for the client loop.

:class:`RetryPolicy` (formerly ``repro.client.retry``, now fully
migrated here) decides *whether* to retry — bounded attempts, and
only for transport/server-side failures per
:func:`repro.storage.errors.is_transport_failure`.  The strategies below
decide *how long* to wait.

The 2009 StorageClient hardcoded linear backoff (1 s, 2 s, 3 s).  At
scale that synchronizes a client population: every client that failed at
the same instant retries at the same instant, so a transient storm
arrives back at the server as coherent waves.  The strategies here are
the standard fixes, in increasing order of decorrelation:

* :class:`LinearBackoff`            — the seed behaviour, kept as the
  default so existing calibration is unchanged;
* :class:`CappedExponentialBackoff` — spreads retries over an
  exponentially growing horizon so late retries land after the storm;
* :class:`FullJitterBackoff`        — AWS-style ``uniform(0, capped
  exponential)``, which additionally decorrelates clients from each
  other.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Protocol, runtime_checkable

import numpy as np

from repro import calibration as cal
from repro.storage.errors import is_transport_failure


@runtime_checkable
class BackoffStrategy(Protocol):
    """How long to sleep before retry number ``attempt + 1`` (0-based)."""

    def delay(self, attempt: int) -> float:
        """Seconds to wait after failed attempt number ``attempt``."""
        ...


@dataclass(frozen=True)
class LinearBackoff:
    """``base_s * (attempt + 1)`` — the 2009 StorageClient default."""

    base_s: float = 1.0

    def delay(self, attempt: int) -> float:
        return self.base_s * (attempt + 1)


@dataclass(frozen=True)
class CappedExponentialBackoff:
    """``min(cap_s, base_s * factor**attempt)``."""

    base_s: float = 0.5
    factor: float = 2.0
    cap_s: float = 30.0

    def __post_init__(self) -> None:
        if self.base_s <= 0 or self.factor < 1 or self.cap_s <= 0:
            raise ValueError("need base_s > 0, factor >= 1, cap_s > 0")

    def delay(self, attempt: int) -> float:
        return min(self.cap_s, self.base_s * self.factor ** attempt)


@dataclass(frozen=True, eq=False)
class FullJitterBackoff:
    """``uniform(0, min(cap_s, base_s * factor**attempt))``.

    Needs a random stream; pass a dedicated :class:`numpy` generator so
    the client population's jitter is reproducible but independent of
    service randomness.
    """

    rng: np.random.Generator
    base_s: float = 0.5
    factor: float = 2.0
    cap_s: float = 30.0
    _ceiling: CappedExponentialBackoff = field(init=False, repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(
            self,
            "_ceiling",
            CappedExponentialBackoff(self.base_s, self.factor, self.cap_s),
        )

    def ceiling(self, attempt: int) -> float:
        """The upper bound of retry ``attempt``'s uniform draw."""
        return self._ceiling.delay(attempt)

    def delay(self, attempt: int) -> float:
        return float(self.rng.uniform(0.0, self._ceiling.delay(attempt)))


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded retry with a pluggable backoff strategy.

    The 2009 StorageClient defaulted to 3 retries with ~1 s linear
    backoff, which remains the default strategy here.  Only
    transport/server-side failures are retryable -- semantic failures
    (not-found, already-exists, precondition) never are; the
    classification is shared with the circuit breaker via
    :func:`repro.storage.errors.is_transport_failure`.
    """

    max_retries: int = cal.STORAGE_RETRY_COUNT
    strategy: BackoffStrategy = LinearBackoff(cal.STORAGE_RETRY_BACKOFF_S)

    def should_retry(self, error: BaseException, attempt: int) -> bool:
        """Whether ``attempt`` (0-based) may be retried after ``error``."""
        if attempt >= self.max_retries:
            return False
        return is_transport_failure(error)

    def backoff(self, attempt: int) -> float:
        """Seconds to wait before retry number ``attempt + 1``."""
        return self.strategy.delay(attempt)


#: Policy that never retries (used to expose raw service behaviour).
NO_RETRY = RetryPolicy(max_retries=0)


def make_backoff(
    kind: str,
    base_s: float,
    factor: float = 2.0,
    cap_s: float = 30.0,
    rng: Optional[np.random.Generator] = None,
) -> BackoffStrategy:
    """Build a strategy from a declarative (drill-spec) description."""
    if kind == "linear":
        return LinearBackoff(base_s)
    if kind == "exponential":
        return CappedExponentialBackoff(base_s, factor, cap_s)
    if kind == "jitter":
        if rng is None:
            raise ValueError("jitter backoff needs an rng")
        return FullJitterBackoff(rng, base_s, factor, cap_s)
    raise ValueError(
        f"unknown backoff kind {kind!r}; expected linear/exponential/jitter"
    )
