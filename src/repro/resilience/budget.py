"""Per-client-group retry budgets (token bucket).

Unbounded retries amplify a storm: every rejected request is replayed,
so the server sees the base arrival rate times the retry multiplier
exactly when it can least afford it.  A retry budget caps the *group's*
aggregate retry rate: each first attempt deposits ``ratio`` tokens, each
retry spends one, and when the bucket is empty the retry is shed — the
original error surfaces immediately instead of adding load.

This is deliberately a plain object shared by every client in a group
(one per role instance, in Azure terms), not per-call state.
"""

from __future__ import annotations


class RetryBudget:
    """Token bucket limiting retries to a fraction of first attempts.

    Parameters
    ----------
    ratio:
        Tokens deposited per first attempt; the steady-state retry rate
        is at most ``ratio`` times the call rate (0.1 = "retries may add
        10% load").
    initial_tokens:
        Starting balance, so a small burst of retries is allowed before
        any history accrues.
    max_tokens:
        Bucket capacity; bounds how large a retry burst an idle period
        can bank.
    """

    def __init__(
        self,
        ratio: float = 0.1,
        initial_tokens: float = 5.0,
        max_tokens: float = 50.0,
    ) -> None:
        if ratio < 0:
            raise ValueError("ratio must be >= 0")
        if max_tokens <= 0:
            raise ValueError("max_tokens must be > 0")
        self.ratio = ratio
        self.max_tokens = max_tokens
        self.tokens = min(float(initial_tokens), max_tokens)
        #: First attempts observed (deposits).
        self.calls = 0
        #: Retries granted (tokens spent).
        self.granted = 0
        #: Retries shed because the bucket was empty.
        self.shed = 0

    def record_call(self) -> None:
        """Account one first attempt: deposits ``ratio`` tokens."""
        self.calls += 1
        self.tokens = min(self.max_tokens, self.tokens + self.ratio)

    def try_spend(self) -> bool:
        """Spend one token for a retry; False means the retry is shed."""
        if self.tokens >= 1.0:
            self.tokens -= 1.0
            self.granted += 1
            return True
        self.shed += 1
        return False

    def __repr__(self) -> str:
        return (
            f"<RetryBudget tokens={self.tokens:.1f} calls={self.calls}"
            f" granted={self.granted} shed={self.shed}>"
        )
