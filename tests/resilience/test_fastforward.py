"""Equivalence tests: piecewise-stationary fast-forward vs event-level.

The contract the fast driver ships under: on the same spec + seed, its
availability verdicts, per-minute bad/dark counts and SLO burn match
the event-level replay within a pinned tolerance.  Outcomes are
deterministic (same realized fault/failover timeline, same
classification), so the only slack allowed is for guard-band ops whose
retry ladders straddle a repair — their success hinges on backoff draws
from a policy stream whose state differs between the two drivers.  The
pinned tolerance is ±2 operations end-to-end; every structural count
(verdicts, failover counters, lost writes, minutes) must agree
exactly or within that op slack.
"""

import numpy as np
import pytest

from repro.resilience.campaign import (
    CAMPAIGN_MODES,
    _run_mode,
    day_campaign_spec,
    month_campaign_spec,
    run_campaign,
)
from repro.resilience.fastforward import (
    classify_ops,
    default_guard_band_s,
    fast_run_mode,
    merge_guard_bands,
    realize_timeline,
)

#: Guard ops issued inside a backoff-ladder span of a repair can flip
#: outcome on RNG-stream history; everything else is deterministic.
OP_TOLERANCE = 2


@pytest.fixture(scope="module")
def spec():
    return day_campaign_spec(seed=3, scale=0.25)


@pytest.fixture(scope="module")
def pairs(spec):
    """(event, fast) ModeResult per failover mode — the expensive part,
    shared by every assertion below."""
    return {
        mode: (_run_mode(spec, mode), fast_run_mode(spec, mode))
        for mode in CAMPAIGN_MODES
    }


# -- the headline equivalence ------------------------------------------------

@pytest.mark.parametrize("mode", CAMPAIGN_MODES)
def test_availability_matches_within_op_tolerance(pairs, mode):
    ev, fa = pairs[mode]
    assert fa.ops == ev.ops
    assert abs(fa.ok - ev.ok) <= OP_TOLERANCE
    assert abs(fa.failed - ev.failed) <= OP_TOLERANCE
    assert fa.availability == pytest.approx(
        ev.availability, abs=OP_TOLERANCE / ev.ops
    )


@pytest.mark.parametrize("mode", CAMPAIGN_MODES)
def test_minute_counts_match_within_tolerance(pairs, mode):
    ev, fa = pairs[mode]
    assert fa.minutes == ev.minutes
    assert abs(fa.bad_minutes - ev.bad_minutes) <= 1
    assert abs(fa.zero_minutes - ev.zero_minutes) <= 1
    assert fa.mean_minute_availability == pytest.approx(
        ev.mean_minute_availability, abs=5e-3
    )


@pytest.mark.parametrize("mode", CAMPAIGN_MODES)
def test_slo_verdict_and_availability_burn_match(pairs, mode):
    ev, fa = pairs[mode]
    assert fa.slo_pass == ev.slo_pass
    ev_slo, fa_slo = ev.slo_dict(), fa.slo_dict()
    assert fa_slo["availability"]["passed"] == (
        ev_slo["availability"]["passed"]
    )
    # Availability burn is arithmetic over the op counts: inside the
    # same ±2-op slack.
    assert fa_slo["availability"]["burn_rate"] == pytest.approx(
        ev_slo["availability"]["burn_rate"],
        abs=100.0 * OP_TOLERANCE / ev.ops,
    )
    # The p99 objective is statistical (analytic latency draws), but
    # the pass/fail verdict must agree on this spec.
    for key in ev_slo:
        if key.startswith("p99"):
            assert fa_slo[key]["passed"] == ev_slo[key]["passed"]


def test_failover_machinery_counters_match(pairs):
    for mode, (ev, fa) in pairs.items():
        assert fa.account_failovers == ev.account_failovers, mode
        assert fa.account_failbacks == ev.account_failbacks, mode
        assert fa.lost_writes == ev.lost_writes, mode
        assert abs(fa.client_failovers - ev.client_failovers) <= (
            OP_TOLERANCE
        ), mode


def test_fast_mode_is_deterministic(spec):
    a = fast_run_mode(spec, "automatic").to_dict()
    b = fast_run_mode(spec, "automatic").to_dict()
    assert a == b


def test_run_campaign_fast_grid_parallel_bit_identical(spec):
    serial = run_campaign(spec, fast=True, jobs=1).to_dict()
    pooled = run_campaign(spec, fast=True, jobs=2).to_dict()
    assert serial == pooled


# -- timeline / guard-band structure -----------------------------------------

def test_realized_timeline_covers_the_fault_schedule(spec):
    tl = realize_timeline(spec, "automatic")
    # Every scheduled fault fires and repairs inside the horizon.
    assert len(tl.transitions) >= 2 * len(spec.faults)
    for fault in spec.faults:
        assert fault.start_s in tl.transitions
    # Automatic mode's state machine left primary and came back.
    states = [s for _t, s in tl.state_log]
    assert states[0] == "primary-active"
    assert "secondary-active" in states
    assert states[-1] == "primary-active"
    # Timeline realization is ops-free, so it is identical across runs.
    tl2 = realize_timeline(spec, "automatic")
    assert tl2.transitions == tl.transitions
    assert tl2.state_log == tl.state_log


def test_guard_bands_merge_overlaps():
    assert merge_guard_bands([100.0, 150.0, 1000.0], 50.0) == [
        (50.0, 200.0), (950.0, 1050.0),
    ]
    assert merge_guard_bands([10.0], 50.0) == [(0.0, 60.0)]
    assert merge_guard_bands([], 50.0) == []


def test_default_guard_band_covers_lag_and_timeout(spec):
    g = default_guard_band_s(spec)
    assert g >= spec.replication_lag_s
    assert g >= 60.0 + spec.client_timeout_s


def test_classification_mode_none_is_primary_reachability():
    is_read = np.array([True, False, True, False])
    p_down = np.array([False, False, True, True])
    state = np.zeros(4, dtype=np.int8)
    cat = classify_ops("none", is_read, p_down, p_down, state)
    assert cat.tolist() == [0, 1, 6, 6]


def test_classification_geo_reads_fail_over_and_writes_guard():
    is_read = np.array([True, True, True, False, False, False])
    p_down = np.array([True, True, False, True, False, False])
    s_down = np.array([False, True, False, False, False, False])
    #                 reads: fo-ok, both-down, ok; writes: down, promo, ok
    state = np.array([0, 0, 0, 0, 1, 2], dtype=np.int8)
    cat = classify_ops("manual", is_read, p_down, s_down, state)
    # During secondary-active (state 2) writes land on the secondary.
    assert cat.tolist() == [2, 3, 0, 4, 5, 1]


@pytest.mark.parametrize("mode", CAMPAIGN_MODES)
@pytest.mark.parametrize("name", ["day", "month"])
def test_a_guard_band_over_the_horizon_is_the_event_driver(name, mode):
    """Phase 2 is the event driver's own issuer over the guard ops: with
    every op inside the band, fast-forward folds nothing and reports bit
    for bit what the event-level driver does."""
    if name == "day":
        spec = day_campaign_spec(seed=3)
    else:
        spec = month_campaign_spec(3, scale=0.02)
    ev = _run_mode(spec, mode)
    fa = fast_run_mode(
        spec, mode, guard_band_s=spec.duration_s + spec.grace_s
    )
    assert fa.to_dict() == ev.to_dict()
    assert (fa.retries, fa.shed_retries, fa.server_attempts) == (
        ev.retries, ev.shed_retries, ev.server_attempts
    )


def test_narrower_guard_band_still_matches_availability(spec):
    """The guard band protects the lag ledger and ladder-straddling
    ops; the availability *classification* is band-independent."""
    ev = _run_mode(spec, "automatic")
    fa = fast_run_mode(spec, "automatic", guard_band_s=200.0)
    assert fa.ops == ev.ops
    assert abs(fa.ok - ev.ok) <= OP_TOLERANCE
    assert fa.slo_pass == ev.slo_pass


# -- the fast path refuses cells outside its model ---------------------------

@pytest.mark.parametrize("cell", ["windows", "breaker", "no-budget", "linear"])
def test_fast_forward_refuses_unmodelled_cells(spec, cell):
    from dataclasses import replace

    from repro.resilience.campaign import (
        GEO_POLICY,
        default_policy_matrix,
        storm_drill_spec,
    )

    matrix = {p.name: p for p in default_policy_matrix()}
    if cell == "windows":
        bad = storm_drill_spec(scale=0.1)
        policy = GEO_POLICY
    else:
        bad = spec
        policy = {
            "breaker": matrix["jitter-budget-breaker"],
            "no-budget": replace(GEO_POLICY, budget_ratio=None),
            "linear": matrix["seed-linear"],
        }[cell]
    with pytest.raises(ValueError, match="fast-forward cannot model"):
        fast_run_mode(bad, "none", policy=policy)
    with pytest.raises(ValueError, match="fast-forward cannot model"):
        run_campaign(replace(bad, policies=(policy,)), fast=True)


@pytest.mark.parametrize("guard", [-5.0, float("nan"), float("inf")])
def test_fast_forward_rejects_a_bad_guard_band(spec, guard):
    with pytest.raises(ValueError, match="guard band must be"):
        fast_run_mode(spec, "none", guard_band_s=guard)


def test_guard_band_without_fast_is_rejected(spec):
    with pytest.raises(ValueError, match="only to the fast-forward"):
        run_campaign(spec, guard_band_s=100.0)
