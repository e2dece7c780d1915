"""Piecewise-stationary campaign fast-forward.

Between fault/repair/failover transitions a campaign's platform is
statistically stationary: the fault state, the live replica topology
and the (tiny, open-loop) offered load are all constant, so every
client operation inside such a window has the same outcome
distribution.  Event-level replay spends millions of kernel events
re-deriving that constant; this driver instead *solves* each window —
per-(service, op) latency from the cohort fixed-point solver
(:mod:`repro.workloads.cohort`), outcomes from a deterministic
classification of the replica topology — and emits the results as
batched observations, dropping to event-level simulation only inside a
**guard band** around each transition.

The fast driver is the event driver plus an analytic fold.  Two
phases, both through :func:`~repro.resilience.campaign.\
build_campaign_world` (the exact world the event-level driver builds,
with the same domain wiring, fault records, retry policy and budget):

1. **Timeline realization** — the same world with *no client ops*, run
   to the horizon.  Domain faults draw repairs from the dedicated
   ``domain-faults`` stream and the failover monitor's probes read only
   injector health, so the realized fault log and the account's
   ``state_log`` are *exactly* the event-level timeline (client ops
   never touch either).
2. **Guard-band replay + analytic fold** — a fresh identical world in
   which the event driver's own op issuer
   (:meth:`~repro.resilience.campaign.CampaignWorld.start_issuer`, over
   :func:`~repro.resilience.campaign.issue_schedule`'s instants) runs
   over only the ops issued within ``guard_band_s`` of a transition
   (real client stack, real retries, real replication-lag ledger — so
   ``lost_writes`` and the geo counters are exact).  With a band that
   covers the horizon the fold is empty and the cell is bit for bit the
   event-level one.  Every other op is folded analytically:

   * **outcome** from ``classify``: mode, geo state and per-replica
     reachability decide direct success / cross-replica failover
     success / failure.  All inputs are deterministic, so analytic
     availability — and with it the per-minute bad/dark counts and the
     availability SLO burn — reproduces event-level replay exactly
     (failing ops resolve well inside the guard radius, so no analytic
     op's outcome straddles a transition);
   * **latency** from the stationary cohort solve, drawn through the
     cohort driver's own stage sampler; failing passes add backoff
     ladder sums drawn per granted retry, under the ceilings of the
     world's own :class:`~repro.resilience.backoff.FullJitterBackoff`;
   * **retries/sheds** from a chronological token-bucket ledger that
     mirrors the world's own retry budget (its ratio, cap and starting
     balance) over *all* ops (guard ops participate as virtual entries
     so the token trajectory tracks the event-level world's).

Known approximations (latency/retry tails only; availability, minute
counts and the availability burn are unaffected): hedge backup legs are
ignored (a blacked-out attempt fails orders of magnitude sooner than
the hedge delay, and healthy hedging only shaves the last percentile);
the phase-2 retry budget starts from the configured initial tokens
rather than the event path's mid-campaign level; analytic backoff draws
come from a dedicated RNG stream rather than the policy stream.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, List, Optional, Sequence, Tuple, cast

import numpy as np

from repro.faults import domain_down_intervals, fault_transition_times
from repro.resilience.backoff import FullJitterBackoff
from repro.resilience.campaign import (
    PRIMARY_DOMAIN,
    SECONDARY_DOMAINS,
    CampaignSpec,
    CampaignWorld,
    ModeResult,
    PolicySpec,
    build_campaign_world,
    collect_mode_result,
    issue_schedule,
)
from repro.service.tracing import RequestTracer
from repro.storage.account import GEO_FAILING_OVER, GEO_PRIMARY, GEO_SECONDARY
from repro.workloads.cohort import (
    draw_stationary_latencies,
    solve_stationary,
    stationary_op_model,
)

_STATE_CODES = {GEO_PRIMARY: 0, GEO_FAILING_OVER: 1, GEO_SECONDARY: 2}

#: Deterministic outcome classes for one client op.
CAT_OK_READ = 0            # direct read success on the routed replica
CAT_OK_WRITE = 1           # direct write success on the active replica
CAT_OK_FAILOVER_READ = 2   # first pass down, cross-replica pass succeeds
CAT_FAIL_READ = 3          # both replicas unreachable
CAT_FAIL_WRITE = 4         # active replica unreachable (server-reaching)
CAT_FAIL_READONLY = 5      # write during a promotion (guard-rejected)
CAT_FAIL_NONE = 6          # single-replica mode, primary unreachable

_OK_CATS = (CAT_OK_READ, CAT_OK_WRITE, CAT_OK_FAILOVER_READ)


def default_guard_band_s(spec: CampaignSpec) -> float:
    """The default event-level radius around each transition.

    ``>= lag_s`` makes the replication-lag ledger exact (every write
    that could be at risk at a promotion is really simulated);
    ``>= ~60 s`` covers the longest failing-op ladder (two full-jitter
    ladders cap at ~52 s), so no analytic op's outcome can straddle a
    transition; the client timeout pads in-flight ops at the edges.
    """
    return max(spec.replication_lag_s, 60.0) + spec.client_timeout_s


@dataclass
class TransitionTimeline:
    """The realized (phase-1) piecewise-stationary window structure."""

    #: Merged ``[start, end)`` unreachability of each replica, as the
    #: *clients* see it (domain + ancestors; the secondary includes the
    #: WAN).
    primary_down: List[Tuple[float, float]]
    secondary_down: List[Tuple[float, float]]
    #: Failover state machine trajectory ``(t, state)``.
    state_log: List[Tuple[float, str]]
    #: Every boundary between stationary windows, sorted.
    transitions: List[float]


def _with_ancestors(root: Any, names: Sequence[str]) -> set:
    out = set()
    for name in names:
        domain = root.find(name)
        out.add(domain.name)
        out.update(a.name for a in domain.ancestors())
    return out


def realize_timeline(spec: CampaignSpec, mode: str) -> TransitionTimeline:
    """Phase 1: run the ops-free world and read off the exact timeline."""
    world = build_campaign_world(spec, mode)
    horizon = spec.duration_s + spec.grace_s
    world.env.run(until=horizon)
    log = world.injector.log
    primary_down = domain_down_intervals(
        log, _with_ancestors(world.root, [PRIMARY_DOMAIN]), horizon
    )
    secondary_down = domain_down_intervals(
        log, _with_ancestors(world.root, SECONDARY_DOMAINS), horizon
    )
    state_log = (
        list(world.geo.state_log)
        if world.geo is not None
        else [(0.0, GEO_PRIMARY)]
    )
    transitions = sorted(
        set(fault_transition_times(log))
        | {t for t, _state in state_log[1:]}
    )
    return TransitionTimeline(
        primary_down=primary_down,
        secondary_down=secondary_down,
        state_log=state_log,
        transitions=transitions,
    )


def merge_guard_bands(
    transitions: List[float], guard_s: float
) -> List[Tuple[float, float]]:
    """``[t - g, t + g]`` around each transition, merged where they
    overlap."""
    bands: List[Tuple[float, float]] = []
    for t in sorted(transitions):
        lo, hi = max(0.0, t - guard_s), t + guard_s
        if bands and lo <= bands[-1][1]:
            bands[-1] = (bands[-1][0], max(bands[-1][1], hi))
        else:
            bands.append((lo, hi))
    return bands


def _membership(
    ts: np.ndarray, intervals: List[Tuple[float, float]]
) -> np.ndarray:
    """Boolean mask: which of the sorted ``ts`` fall inside any of the
    sorted, disjoint ``[start, end)`` intervals."""
    out = np.zeros(ts.size, dtype=bool)
    if not intervals:
        return out
    starts = np.array([a for a, _b in intervals])
    ends = np.array([b for _a, b in intervals])
    i = np.searchsorted(starts, ts, side="right") - 1
    valid = i >= 0
    out[valid] = ts[valid] < ends[i[valid]]
    return out


def classify_ops(
    mode: str,
    is_read: np.ndarray,
    p_down: np.ndarray,
    s_down: np.ndarray,
    state: np.ndarray,
) -> np.ndarray:
    """The deterministic outcome class of every op.

    Mirrors the client stack exactly: reads route by
    ``read_replica()`` (primary only while the state machine is in
    ``primary-active``) and get one full cross-replica pass on
    transport failure; writes are guarded onto the active replica
    (none mid-promotion) and their cross-replica pass is always
    guard-rejected, so a write succeeds iff the active replica is
    reachable.
    """
    if mode == "none":
        ok = ~p_down
        return np.where(
            ok,
            np.where(is_read, CAT_OK_READ, CAT_OK_WRITE),
            CAT_FAIL_NONE,
        ).astype(np.int8)
    primary_active = state == _STATE_CODES[GEO_PRIMARY]
    route_down = np.where(primary_active, p_down, s_down)
    other_down = np.where(primary_active, s_down, p_down)
    read_cat = np.where(
        ~route_down,
        CAT_OK_READ,
        np.where(~other_down, CAT_OK_FAILOVER_READ, CAT_FAIL_READ),
    )
    promoting = state == _STATE_CODES[GEO_FAILING_OVER]
    active_down = np.where(primary_active, p_down, s_down)
    write_cat = np.where(
        promoting,
        CAT_FAIL_READONLY,
        np.where(~active_down, CAT_OK_WRITE, CAT_FAIL_WRITE),
    )
    return np.where(is_read, read_cat, write_cat).astype(np.int8)


def _run_budget_ledger(
    world: CampaignWorld, cat: np.ndarray, analytic: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, int]:
    """Chronological token-bucket mirror of the client retry budget.

    Starts from the world's own budget and retry policy before any op
    runs.  Returns per-op granted retries for the first and second
    client passes, plus how many *analytic* retries were shed.
    Guard-band ops participate (deposits and spends) so the token
    trajectory tracks the event-level run's, but their realized retries
    come from the real simulation.  The token arithmetic is inline: a
    budget object per op costs more than the rest of the ledger.
    """
    budget = world.budget
    tokens, cap, ratio = budget.tokens, budget.max_tokens, budget.ratio
    max_r = world.client.retry.max_retries
    r1 = np.zeros(cat.size, dtype=np.int64)
    r2 = np.zeros(cat.size, dtype=np.int64)
    shed = 0

    def spend(analytic_op: bool) -> int:
        """One failing pass: up to max_r granted retries; one shed ends
        the pass (with_retries raises on the first failed spend)."""
        nonlocal tokens, shed
        granted = 0
        while granted < max_r:
            if tokens < 1.0:
                shed += analytic_op
                break
            tokens -= 1.0
            granted += 1
        return granted

    ana = analytic.tolist()
    for i, c in enumerate(cat.tolist()):
        # Every client pass deposits ratio tokens at entry.
        tokens = min(cap, tokens + ratio)
        if c <= CAT_OK_WRITE:
            continue
        r1[i] = spend(ana[i])
        if c == CAT_FAIL_NONE:
            continue
        # The cross-replica pass deposits too: failover reads succeed
        # on it first try; reads with both replicas down and (always
        # guard-rejected) writes fail it as well.
        tokens = min(cap, tokens + ratio)
        if c != CAT_OK_FAILOVER_READ:
            r2[i] = spend(ana[i])
    return r1, r2, shed


def fast_run_mode(
    spec: CampaignSpec,
    mode: str,
    guard_band_s: Optional[float] = None,
    policy: Optional[PolicySpec] = None,
) -> ModeResult:
    """One (policy, mode) cell via piecewise-stationary fast-forward;
    returns the same :class:`ModeResult` shape as the event-level
    driver.  ``policy`` defaults to the spec's first.

    Raises :class:`ValueError` for a cell outside the fast path's
    model, or a negative or non-finite ``guard_band_s``, rather than
    return plausible numbers for it.
    """
    pspec = spec.policies[0] if policy is None else policy
    # The analytic fold knows domain outages, a retry budget and
    # full-jitter ladders, and nothing else.
    unmodelled = [reason for reason, present in (
        ("server fault windows", bool(spec.windows)),
        ("a circuit breaker", pspec.breaker),
        ("a policy without a retry budget", pspec.budget_ratio is None),
        (f"{pspec.backoff!r} backoff", pspec.backoff != "jitter"),
    ) if present]
    if unmodelled:
        raise ValueError(
            f"campaign {spec.name!r} cell {pspec.name}/{mode}: fast-forward "
            f"cannot model {', '.join(unmodelled)}; run it at event level"
        )
    guard_s = (
        default_guard_band_s(spec) if guard_band_s is None
        else float(guard_band_s)
    )
    if not (math.isfinite(guard_s) and guard_s >= 0.0):
        # A negative radius merges into no bands at all: every op would
        # be solved analytically, transitions included.
        raise ValueError(
            f"guard band must be a finite number of seconds >= 0, "
            f"got {guard_band_s}"
        )
    timeline = realize_timeline(spec, mode)
    bands = merge_guard_bands(timeline.transitions, guard_s)

    # Fast mode can afford per-request tracing for the handful of real
    # ops, and the analytic fold feeds the same tracer in batches.
    world = build_campaign_world(
        spec, mode, tracer=RequestTracer(), policy=pspec
    )
    ts, idx_arr, k_arr = issue_schedule(spec)
    is_read = world.mix[idx_arr, k_arr]
    minutes = np.minimum(
        (ts // world.avail.window_s).astype(np.int64),
        world.avail.n_minutes - 1,
    )

    p_down = _membership(ts, timeline.primary_down)
    s_down = _membership(ts, timeline.secondary_down)
    state_times = np.array([t for t, _s in timeline.state_log])
    state_codes = np.array(
        [_STATE_CODES[s] for _t, s in timeline.state_log], dtype=np.int8
    )
    state = state_codes[
        np.searchsorted(state_times, ts, side="right") - 1
    ]
    guard = _membership(ts, bands)
    analytic = ~guard

    cat = classify_ops(mode, is_read, p_down, s_down, state)
    r1, r2, analytic_shed = _run_budget_ledger(world, cat, analytic)

    # Phase 2: the event driver's own issuer over the guard-band ops
    # only, through the real client/failover/fault stack.
    world.start_issuer(ts[guard], idx_arr[guard], k_arr[guard])
    world.env.run(until=spec.duration_s + spec.grace_s)

    extra = _fold_analytic(
        world, spec, minutes, is_read, cat, r1, r2, analytic
    )
    mode_result = collect_mode_result(world)
    mode_result.server_attempts += extra["server_attempts"]
    mode_result.shed_retries += analytic_shed
    mode_result.client_failovers += extra["client_failovers"]
    return mode_result


def _fold_analytic(
    world: CampaignWorld,
    spec: CampaignSpec,
    minutes: np.ndarray,
    is_read: np.ndarray,
    cat: np.ndarray,
    r1: np.ndarray,
    r2: np.ndarray,
    analytic: np.ndarray,
) -> dict:
    """Solve the stationary windows and batch-ingest every analytic op
    into the same sinks the event path feeds one op at a time."""
    rng = world.streams.batched("campaign.fast")
    retry = world.client.retry
    # fast_run_mode admits only full-jitter ladders.
    assert isinstance(retry.strategy, FullJitterBackoff)
    ceilings = [retry.strategy.ceiling(j) for j in range(retry.max_retries)]

    def backoff_sums(r: np.ndarray) -> np.ndarray:
        """Full-jitter ladder sums for ``r`` granted retries each."""
        out = np.zeros(r.size, dtype=float)
        for j, ceiling in enumerate(ceilings):
            m = r > j
            hits = int(m.sum())
            if hits:
                out[m] += rng.uniform_batch(0.0, ceiling, hits)
        return out

    # The stationary solve: the campaign's open-loop trickle behaves as
    # n_clients closed-loop members thinking ~one op interval, which
    # lands the solver on the platform's unloaded operating point.
    model_read = stationary_op_model(
        "table", "query", size_kb=spec.entity_kb
    )
    model_write = stationary_op_model(
        "table", "insert", size_kb=spec.entity_kb
    )
    st_read = solve_stationary(
        model_read, spec.n_clients, spec.op_interval_s
    )
    st_write = solve_stationary(
        model_write, spec.n_clients, spec.op_interval_s
    )

    ok_flags = np.isin(cat, _OK_CATS)
    success_lats: List[np.ndarray] = []

    def draw_direct(
        mask: np.ndarray, model: Any, st: Any
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Stationary-window latency draws for ``mask``'s ops; draws
        marked failed (timeout tail) are re-flagged as failures."""
        pos = np.flatnonzero(mask)
        lat, failed = draw_stationary_latencies(
            model, st, rng, pos.size, timeout_s=spec.client_timeout_s
        )
        if failed.any():
            ok_flags[pos[failed]] = False
        return lat, failed

    # Direct successes, reads then writes (fixed draw order).
    m_read = analytic & (cat == CAT_OK_READ)
    lat_read, f_read = draw_direct(m_read, model_read, st_read)
    success_lats.append(lat_read[~f_read])

    m_write = analytic & (cat == CAT_OK_WRITE)
    lat_write, f_write = draw_direct(m_write, model_write, st_write)
    success_lats.append(lat_write[~f_write])

    # Cross-replica failover reads: a full failed first pass (each
    # attempt pays the base-latency stage before the blacked-out
    # partition refuses it, then a jittered backoff) plus one direct
    # read on the surviving replica.
    m_fo = analytic & (cat == CAT_OK_FAILOVER_READ)
    lat_fo, f_fo = draw_direct(m_fo, model_read, st_read)
    lat_fo = lat_fo + backoff_sums(r1[m_fo]) + (
        (r1[m_fo] + 1) * model_read.base_s
    )
    success_lats.append(lat_fo[~f_fo])
    client_failovers = int((~f_fo).sum())

    # -- batched ingestion into the event path's sinks -----------------
    ana_ok = ok_flags[analytic]
    world.avail.observe_batch(minutes[analytic], ana_ok)

    ok_count = int(ana_ok.sum())
    world.ok += ok_count
    world.failed += int(analytic.sum()) - ok_count
    world.retries += int(r1[analytic].sum() + r2[analytic].sum())
    success = np.concatenate(success_lats)
    if success.size:
        world.latency.observe_batch(success)

    # Per-(service, op) windows for the tracer — the same keys the
    # client stack uses, so request_summary lines up.
    service = world.primary.tables.name
    read_ok = ok_flags & is_read & analytic
    write_ok = ok_flags & ~is_read & analytic
    read_lat = np.concatenate(
        [lat_read[~f_read], lat_fo[~f_fo]]
    )
    world.tracer.observe_batch(
        service, "table.query", cast(Sequence[float], read_lat),
        errors=int((analytic & is_read).sum()) - int(read_ok.sum()),
        client=True,
    )
    world.tracer.observe_batch(
        service, "table.insert",
        cast(Sequence[float], lat_write[~f_write]),
        errors=int((analytic & ~is_read).sum()) - int(write_ok.sum()),
        client=True,
    )

    # Server attempts: every server-reaching attempt increments the
    # partition's ``started`` counter, blacked-out or not;
    # guard-rejected write passes never reach a server.
    attempts = int((analytic & (cat == CAT_OK_READ)).sum())
    attempts += int((analytic & (cat == CAT_OK_WRITE)).sum())
    attempts += int((r1[m_fo] + 2).sum())
    m = analytic & (cat == CAT_FAIL_READ)
    attempts += int((r1[m] + r2[m] + 2).sum())
    m = analytic & (cat == CAT_FAIL_WRITE)
    attempts += int((r1[m] + 1).sum())
    m = analytic & (cat == CAT_FAIL_NONE)
    attempts += int((r1[m] + 1).sum())
    return {
        "server_attempts": attempts,
        "client_failovers": client_failovers,
    }


__all__ = [
    "CAT_FAIL_NONE",
    "CAT_FAIL_READ",
    "CAT_FAIL_READONLY",
    "CAT_FAIL_WRITE",
    "CAT_OK_FAILOVER_READ",
    "CAT_OK_READ",
    "CAT_OK_WRITE",
    "TransitionTimeline",
    "classify_ops",
    "default_guard_band_s",
    "fast_run_mode",
    "merge_guard_bands",
    "realize_timeline",
]
