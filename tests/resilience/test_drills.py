"""The server-window drill presets, run through the campaign engine.

The headline assertion: under the server_busy_storm schedule, the
budgeted jittered-exponential policy achieves *strictly higher*
client-observed availability AND *strictly lower* retry amplification
than the seed's linear policy, and the circuit breaker walks
closed -> open -> half_open -> closed across the window.
"""

from dataclasses import replace

import pytest

from repro.resilience.campaign import (
    PolicySpec,
    crash_drill_spec,
    default_policy_matrix,
    error_burst_drill_spec,
    run_campaign,
    storm_drill_spec,
)
from repro.resilience.hedging import run_hedge_drill

DRILL_SPECS = {
    "storm": storm_drill_spec,
    "crash": crash_drill_spec,
    "burst": error_burst_drill_spec,
}


def _with_policy(spec, policy):
    return replace(spec, policies=(policy,))


@pytest.fixture(scope="module")
def storm_report():
    return run_campaign(storm_drill_spec())


def _contains_subsequence(sequence, wanted):
    it = iter(sequence)
    return all(state in it for state in wanted)


def test_storm_headline_budget_jitter_beats_seed_linear(storm_report):
    budgeted = storm_report.result("jitter-budget/none")
    seed_linear = storm_report.result("seed-linear/none")
    assert budgeted.availability > seed_linear.availability
    assert budgeted.amplification < seed_linear.amplification
    # The mechanism, not just the outcome: the budget actually shed
    # retries, and the seed policy piled far more load onto the server
    # while it was inside the fault window.
    assert budgeted.shed_retries > 0
    assert budgeted.window_amplification < seed_linear.window_amplification
    assert seed_linear.window_amplification > 2.0


def test_storm_breaker_cycles_through_states(storm_report):
    states = storm_report.result("jitter-budget-breaker/none").breaker_states
    assert states[0] == "closed"
    assert _contains_subsequence(
        states, ["closed", "open", "half_open", "closed"]
    )
    assert states[-1] == "closed"  # recovered after the window


def test_storm_slo_verdicts(storm_report):
    assert storm_report.result("jitter-budget/none").slo_pass
    assert not storm_report.result("no-retry/none").slo_pass
    assert not storm_report.result("seed-linear/none").slo_pass
    assert storm_report.passed


def test_storm_report_renders(storm_report):
    table = storm_report.render()
    for policy in default_policy_matrix():
        assert policy.name in table
    assert "verdict" in table and "PASS" in table and "FAIL" in table


def test_breaker_protects_the_server_hardest(storm_report):
    """Fast-failing while open = least in-window load of any policy."""
    with_breaker = storm_report.result("jitter-budget-breaker/none")
    assert with_breaker.fast_failures > 0
    others = [
        r for r in storm_report.results
        if r.policy != "jitter-budget-breaker"
    ]
    assert all(
        with_breaker.window_amplification < r.window_amplification
        for r in others
    )


def test_drill_metrics_flow_through_registry(storm_report):
    cell = storm_report.result("jitter-budget/none")
    assert cell.ok > 0 and cell.ok + cell.failed == cell.ops
    assert cell.latency.count == cell.ok
    assert cell.shed_retries > 0


def test_drill_is_deterministic():
    spec = storm_drill_spec(scale=0.25)
    policy = PolicySpec("seed-linear", max_retries=3)
    first = run_campaign(_with_policy(spec, policy)).results[0]
    second = run_campaign(_with_policy(spec, policy)).results[0]
    assert first.ok == second.ok
    assert first.server_attempts == second.server_attempts
    assert first.p99_ms == second.p99_ms


def test_all_cli_scenarios_run():
    for name, make_spec in DRILL_SPECS.items():
        report = run_campaign(_with_policy(
            make_spec(scale=0.2), PolicySpec("seed-linear", max_retries=3)
        ))
        assert report.results[0].ops > 0, name


def test_crash_drill_counts_crash_failures():
    spec = crash_drill_spec(scale=0.25)
    report = run_campaign(
        _with_policy(spec, PolicySpec("no-retry", max_retries=0))
    )
    result = report.results[0]
    assert result.failed > 0
    assert result.availability < 1.0


def test_hedge_drill_cuts_p99_at_bounded_cost():
    report = run_hedge_drill(seed=7)
    assert report.hedged_p99_ms < report.unhedged_p99_ms
    assert report.p99_speedup > 1.0
    # The cost is real and reported: some duplicate work, but far less
    # than doubling the read load.
    assert 0.0 < report.duplicate_fraction < 0.5
    assert report.hedge_wins > 0
    table = report.render()
    assert "unhedged" in table and "duplicate work" in table
