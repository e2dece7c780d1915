"""The cohort fluid model and the scenario driver's ``auto`` mode.

A closed-loop single-op population runs exact up to
:data:`EXACT_MAX_SCENARIO_CLIENTS` clients and batched (the cohort fluid
engine) beyond, per run and per sweep level.  The memoized, hoisted
fixed-point solver is pinned bit for bit against a frozen copy of the
textbook loop it replaced.
"""

import itertools
import json
import math
from dataclasses import astuple
from pathlib import Path

import pytest

from repro.experiments import golden
from repro.scenarios import (
    SCENARIO_OPS,
    ArrivalSpec,
    OpSpec,
    PhaseSpec,
    ScenarioSpec,
    run_scenario,
    sweep_scenario,
)
from repro.scenarios.driver import EXACT_MAX_SCENARIO_CLIENTS
from repro.simcore import Distribution
from repro.workloads.cohort import (
    _FluidState,
    solve_stationary,
    stationary_op_model,
)

_GOLDEN_FILE = (
    Path(__file__).parent.parent / "experiments" / "golden_digests.json"
)


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


# -- the fixed-point solver, bit for bit ------------------------------------


def _reference_solve(model, n, think_s):
    """The solver as first written, un-memoized and un-hoisted.

    Returns ``(state, iterations, clamped)`` so the grid can show it
    reached the rho clamp and the 200-round cap; the arithmetic is
    untouched.
    """
    n = float(n)
    base_mean = model.base_s
    response = base_mean + model.cpu_s + model.exclusive_s + 1e-9
    active = min(float(n), 1.0)
    frontend = cpu_wait = latch_wait = transfer = 0.0
    iterations = 0
    clamped = False
    for _ in range(200):
        iterations += 1
        throughput = n / (response + think_s)
        active_new = min(throughput * response, float(n))
        active = 0.5 * active + 0.5 * active_new

        frontend = 0.0
        if model.frontend_c_s > 0 and active > 1.0:
            frontend = model.frontend_c_s * active ** model.frontend_gamma

        cpu_wait = 0.0
        if model.cpu_s > 0:
            rho = min(throughput * model.cpu_s / model.cores, 0.999)
            clamped = clamped or rho == 0.999
            cpu_wait = (model.cpu_s / model.cores) * (
                rho ** math.sqrt(2.0 * (model.cores + 1))
            ) / (1.0 - rho)

        latch_wait = 0.0
        if model.exclusive_s > 0:
            rho_l = min(throughput * model.exclusive_s, 0.999)
            clamped = clamped or rho_l == 0.999
            latch_wait = model.exclusive_s * rho_l / (1.0 - rho_l)

        transfer = 0.0
        if model.transfer_mb > 0:
            share = model.transfer_a_mbps * max(active, 1.0) ** (
                -model.transfer_gamma
            )
            transfer = model.transfer_mb / share

        response_new = (
            base_mean
            + frontend
            + cpu_wait
            + model.cpu_s
            + latch_wait
            + model.exclusive_s
            + transfer
        )
        if abs(response_new - response) < 1e-9 * max(response, 1e-9):
            response = response_new
            break
        response = 0.5 * response + 0.5 * response_new

    shed = 0.0
    if model.payload_mb > 0 and model.overload_slope_per_mb > 0:
        excess = active * model.payload_mb - model.overload_knee_mb
        if excess > 0:
            shed = min(model.overload_slope_per_mb * excess, 0.5)
    state = _FluidState(
        response_s=response,
        active=active,
        frontend_mean_s=frontend,
        cpu_wait_s=cpu_wait,
        latch_wait_s=latch_wait,
        transfer_s=transfer,
        shed_probability=shed,
    )
    return state, iterations, clamped


def _bits(state):
    """Every field's exact bits (``float.hex`` also tells ``-0.0`` from
    ``0.0``, which ``==`` does not)."""
    return tuple(float(x).hex() for x in astuple(state))


def _grid():
    """Every scenario op at a small and a large payload, over client
    counts and think times."""
    for (service, op), (size_kb, size_mb) in itertools.product(
        SCENARIO_OPS, ((1.0, 1.0), (64.0, 100.0))
    ):
        model = stationary_op_model(service, op, size_kb, size_mb)
        for n, think_s in itertools.product(
            (1, 8, 192, 1e4, 5e4),
            (1e-9, 0.01, 1, 60),
        ):
            yield model, n, think_s


def test_solver_bit_identical_to_reference_over_grid():
    solve_stationary.cache_clear()
    clamps = capped = 0
    for model, n, think_s in _grid():
        expected, iterations, clamped = _reference_solve(model, n, think_s)
        got = solve_stationary(model, n, think_s)
        assert _bits(got) == _bits(expected), (model, n, think_s)
        clamps += clamped
        capped += iterations == 200
    assert clamps > 0, "grid never reached the rho clamp"
    assert capped > 0, "grid never ran all 200 iterations"


def test_solver_memo_hit_equals_cold_solve():
    model = stationary_op_model("table", "insert", 4.0)
    args = (model, 5e4, 0.01)
    solve_stationary.cache_clear()
    cold = solve_stationary(*args)
    warm = solve_stationary(*args)
    assert solve_stationary.cache_info().hits >= 1
    solve_stationary.cache_clear()
    assert _bits(solve_stationary(*args)) == _bits(cold)
    assert _bits(warm) == _bits(cold)
    assert _bits(cold) == _bits(_reference_solve(*args)[0])


@pytest.mark.parametrize(
    "order",
    [("streaming", "block-storage"), ("block-storage", "streaming")],
)
def test_solver_memo_carries_no_state_between_runs(order):
    committed = json.loads(_GOLDEN_FILE.read_text())["digests"]
    solve_stationary.cache_clear()
    for name in order:
        assert golden.run_digest(f"scenario:{name}") == (
            committed[f"scenario:{name}"]
        )
