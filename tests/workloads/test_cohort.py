"""A closed-loop single-op population through the scenario driver's
``auto`` mode: exact up to :data:`EXACT_MAX_SCENARIO_CLIENTS` clients,
batched (the cohort fluid engine) beyond, per run and per sweep level.
"""

from repro.scenarios import (
    ArrivalSpec,
    OpSpec,
    PhaseSpec,
    ScenarioSpec,
    run_scenario,
    sweep_scenario,
)
from repro.scenarios.driver import EXACT_MAX_SCENARIO_CLIENTS
from repro.simcore import Distribution


def _spec(ops_per_client=4):
    """Closed-loop table inserts with Exp(0.05 s) think time."""
    return ScenarioSpec(
        name="cohort-table-insert",
        phases=(PhaseSpec("main", (OpSpec("table", "insert"),),
                          ops_per_client=ops_per_client),),
        arrival=ArrivalSpec(think=Distribution.exponential(0.05)),
    )


def test_auto_mode_is_exact_at_small_n():
    result = run_scenario(_spec(), n_clients=EXACT_MAX_SCENARIO_CLIENTS, seed=1)
    assert result.mode == "exact"
    assert result.n_clients == EXACT_MAX_SCENARIO_CLIENTS


def test_auto_mode_is_batched_beyond_threshold():
    result = run_scenario(
        _spec(ops_per_client=2), n_clients=EXACT_MAX_SCENARIO_CLIENTS + 1,
        seed=1,
    )
    assert result.mode == "batched"
    assert result.n_clients == EXACT_MAX_SCENARIO_CLIENTS + 1


def test_sweep_cohort_covers_every_level():
    big = EXACT_MAX_SCENARIO_CLIENTS + 44
    results = sweep_scenario(_spec(ops_per_client=2), levels=[2, 4, big], seed=1)
    assert sorted(results) == [2, 4, big]
    assert results[2].mode == "exact"
    assert results[4].mode == "exact"
    assert results[big].mode == "batched"
    for level, result in results.items():
        assert result.n_clients == level
