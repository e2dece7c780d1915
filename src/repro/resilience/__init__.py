"""Client-side resilience: backoff, retry budgets, breakers, hedging.

The paper's Section 6.3 lesson — "errors that did not occur at lower
scale will begin to become common as scale increases" — is a client-side
lesson as much as a server-side one: the 2009 StorageClient's fixed
3-retry linear backoff is exactly the policy that turns a transient
storm into a retry storm at scale.  This package makes the whole
retry/timeout path pluggable and measurable:

* :mod:`repro.resilience.backoff`  — pluggable backoff strategies;
* :mod:`repro.resilience.budget`   — per-client-group retry budgets;
* :mod:`repro.resilience.breaker`  — a circuit breaker that fails fast;
* :mod:`repro.resilience.hedging`  — hedged idempotent reads, and the
  hedged-vs-unhedged latency-spike drill;
* :mod:`repro.resilience.campaign` — the fault-experiment engine:
  server fault windows and correlated failure-domain outages replayed
  against a (client policy × geo-failover mode) grid, rendered as SLO
  verdicts.

Internal modules import the submodules directly (never this package) so
that :mod:`repro.client` and :mod:`repro.resilience.campaign` do not
form an import cycle.
"""

from repro.resilience.backoff import (
    NO_RETRY,
    BackoffStrategy,
    CappedExponentialBackoff,
    FullJitterBackoff,
    LinearBackoff,
    RetryPolicy,
)
from repro.resilience.breaker import CircuitBreaker, CircuitOpenError
from repro.resilience.budget import RetryBudget
from repro.resilience.campaign import (
    CampaignReport,
    CampaignSpec,
    PolicySpec,
    day_campaign_spec,
    default_policy_matrix,
    month_campaign_spec,
    run_campaign,
    storm_drill_spec,
)
from repro.resilience.hedging import (
    HedgeDrillReport,
    HedgePolicy,
    hedged_call,
    run_hedge_drill,
)

__all__ = [
    "NO_RETRY",
    "BackoffStrategy",
    "CampaignReport",
    "CampaignSpec",
    "CappedExponentialBackoff",
    "CircuitBreaker",
    "CircuitOpenError",
    "FullJitterBackoff",
    "HedgeDrillReport",
    "HedgePolicy",
    "LinearBackoff",
    "PolicySpec",
    "RetryBudget",
    "RetryPolicy",
    "day_campaign_spec",
    "default_policy_matrix",
    "hedged_call",
    "month_campaign_spec",
    "run_campaign",
    "run_hedge_drill",
    "storm_drill_spec",
]
