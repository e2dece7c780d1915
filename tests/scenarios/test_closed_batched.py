"""Closed-loop scenarios in batched (fluid) mode, and their parity with
exact mode.

The closed batched path runs one vectorized driver per (phase, op) of a
closed-loop spec.  Its summaries are pinned bit for bit here: no golden
digest covers this path (both scenario packs are open-loop).  The
parity cases run one spec through both engines: op counts match
exactly, latency summaries within the fluid model's tolerance.
"""

import pytest

from repro.experiments import golden
from repro.scenarios import (
    SCENARIO_OPS,
    ArrivalSpec,
    OpSpec,
    PhaseSpec,
    ScenarioSpec,
    run_scenario,
)
from repro.scenarios.registry import fig1_scenario, fig2_scenario, fig3_scenario
from repro.simcore import Distribution


def _churn_spec():
    """The single-op closed table-insert population the kernel bench
    drives: 5 ops per client, Exp(0.1 s) think time."""
    return ScenarioSpec(
        name="churn",
        phases=(PhaseSpec("main", (OpSpec("table", "insert"),),
                          ops_per_client=5),),
        arrival=ArrivalSpec(think=Distribution.exponential(0.1)),
    )


@pytest.mark.parametrize(
    "build,n_clients,digest",
    [
        (
            lambda: fig2_scenario().scaled(0.05),
            10_000,
            "4c3d15633bb67ec5be1094360c12fbe8e7edad4e68ae76b163855c30ffb56969",
        ),
        (
            lambda: fig3_scenario("add").scaled(0.05),
            10_000,
            "1fee8abf79cb415144bc68aaa40d0d31ab7d4adda7a59aba37ce6f0d2e788ef1",
        ),
        (
            _churn_spec,
            20_000,
            "3bf4071f8a3769e765164f8a8ab4d61b98838f262bf24b2df031d71299058acd",
        ),
    ],
    ids=["fig2", "fig3-add", "churn"],
)
def test_closed_batched_summary_is_pinned(build, n_clients, digest):
    result = run_scenario(build(), n_clients=n_clients, seed=3, mode="batched")
    assert golden.digest(result.summary()) == digest


# -- exact vs batched: one spec, both engines -------------------------------

THINK = Distribution.exponential(0.05)


def _closed(service="table", op="insert", ops_per_client=4, think=THINK,
            size_kb=None, size_mb=None, **overrides):
    """A single-op closed-loop population."""
    return ScenarioSpec(
        name=f"closed-{service}-{op}",
        phases=(PhaseSpec("main", (OpSpec(service, op, size_kb=size_kb,
                                          size_mb=size_mb),),
                          ops_per_client=ops_per_client),),
        arrival=ArrivalSpec(think=think),
        **overrides,
    )


@pytest.mark.parametrize("service,op", SCENARIO_OPS)
def test_every_scenario_op_runs_clean_in_exact_mode(service, op):
    """Setup pre-creates whatever state each op needs (shared rows, rows
    to delete, queue backlog, download blob), so a small population
    completes without a single error, and batched mode issues the same
    number of ops."""
    spec = _closed(service, op, ops_per_client=3,
                   size_mb=Distribution.constant(0.25))
    exact = run_scenario(spec, n_clients=4, seed=2, mode="exact")
    assert exact.ops_completed == 4 * 3
    assert exact.errors == 0 and exact.failed_clients == 0
    assert exact.latency_mean_s > 0 and exact.makespan_s > 0
    batched = run_scenario(spec, n_clients=4, seed=2, mode="batched")
    assert batched.ops_completed == exact.ops_completed
    assert batched.errors == 0


def test_exact_blob_spec_honours_timeout():
    """A blob spec's ``timeout_s`` reaches the exact-mode blob client:
    a generous one changes nothing, a tiny one fails every client."""
    size = Distribution.constant(0.25)
    plain = run_scenario(_closed("blob", "upload", size_mb=size),
                         n_clients=3, seed=2, mode="exact")
    roomy = run_scenario(_closed("blob", "upload", size_mb=size,
                                 timeout_s=600.0),
                         n_clients=3, seed=2, mode="exact")
    assert roomy.ops_completed == plain.ops_completed == 3 * 4
    assert roomy.errors == 0
    tight = run_scenario(_closed("blob", "upload", size_mb=size,
                                 timeout_s=1e-3),
                         n_clients=3, seed=2, mode="exact")
    assert tight.ops_completed == 0
    assert tight.failed_clients == 3


def test_exact_mode_is_deterministic():
    spec = _closed(ops_per_client=4)
    a = run_scenario(spec, n_clients=12, seed=5, mode="exact")
    b = run_scenario(spec, n_clients=12, seed=5, mode="exact")
    assert a.summary() == b.summary()
    c = run_scenario(spec, n_clients=12, seed=6, mode="exact")
    assert a.makespan_s != c.makespan_s


def test_batched_matches_exact_op_counts_exactly():
    spec = _closed(ops_per_client=5)
    exact = run_scenario(spec, n_clients=16, seed=3, mode="exact")
    batched = run_scenario(spec, n_clients=16, seed=3, mode="batched")
    assert batched.ops_completed == exact.ops_completed == 16 * 5
    assert batched.errors == exact.errors == 0


@pytest.mark.parametrize(
    "service,op",
    [("table", "insert"), ("queue", "add"), ("blob", "download")],
)
def test_batched_latency_statistically_matches_exact(service, op):
    """The fluid model and the event-level path share one calibration,
    so mean and median latency agree within the fluid approximation's
    envelope (the front-end term uses fixed-point concurrency where the
    exact path sees instantaneous concurrency)."""
    spec = _closed(service, op, ops_per_client=5,
                   size_mb=Distribution.constant(0.5))
    exact = run_scenario(spec, n_clients=16, seed=3, mode="exact")
    batched = run_scenario(spec, n_clients=16, seed=3, mode="batched")
    for field in ("latency_mean_s", "latency_p50_s"):
        e, b = getattr(exact, field), getattr(batched, field)
        assert e > 0 and b > 0
        assert 0.5 < b / e < 2.0, f"{field}: exact={e:.4f} batched={b:.4f}"
    # Makespans are max-of-sums over the same think/latency means.  The
    # exact run's makespan_s also spans the drain of lazily cancelled
    # client-timeout deadlines (30 s on table and queue clients), so the
    # exact side is the last client's completion, from its client rows
    # (no ramp: every client starts at t=0).
    last_done = max(o.elapsed_s for o in exact.phase_outcomes["main"])
    assert 0.3 < batched.makespan_s / last_done < 3.0


# -- batched mode at scale ---------------------------------------------------


def test_batched_mode_is_deterministic():
    spec = _closed(ops_per_client=3)
    a = run_scenario(spec, n_clients=500, seed=9, mode="batched")
    b = run_scenario(spec, n_clients=500, seed=9, mode="batched")
    assert a.summary() == b.summary()


def test_batched_ingests_client_aggregates_only():
    """Every op of every (phase, op) driver lands in the run's one
    tracer as a client-side aggregate: exact counts, no service-side
    records."""
    result = run_scenario(_closed(ops_per_client=2), n_clients=100,
                          seed=1, mode="batched")
    snap = result.tracer_snapshot
    assert snap["client_total"] == 100 * 2
    assert snap["total"] == 0 and snap["per_op"] == {}


def test_batched_scales_to_tens_of_thousands():
    """10^4 clients through one kernel process: every op accounted for,
    aggregate throughput and latency populated."""
    result = run_scenario(_closed(ops_per_client=3), n_clients=10_000,
                          seed=4, mode="batched")
    # A failed client forfeits its remaining ops, so requests issued
    # never exceed the population's budget.
    assert 0 < result.ops_completed + result.errors <= 10_000 * 3
    assert result.aggregate_ops_per_s > 0
    assert result.latency_p99_s >= result.latency_p50_s > 0


def test_batched_sheds_under_overload():
    """Zero-think, large-payload inserts push the partition past the
    overload knee: the fluid model must shed (errors > 0), matching the
    event-level server's admission behavior."""
    spec = _closed(ops_per_client=3, think=None,
                   size_kb=Distribution.constant(64.0))
    result = run_scenario(spec, n_clients=50_000, seed=8, mode="batched")
    assert result.errors > 0
    assert result.failed_clients == result.errors
    assert result.ops_completed + result.errors <= 50_000 * 3


def test_batched_respects_client_timeout():
    """Latencies are capped at the spec's timeout and the affected
    clients abort, mirroring race_timeout's ceiling."""
    spec = _closed("blob", "upload", ops_per_client=2, think=None,
                   size_mb=Distribution.constant(50.0), timeout_s=5.0)
    result = run_scenario(spec, n_clients=20_000, seed=8, mode="batched")
    assert result.latency_p99_s <= 5.0 + 1e-9
    assert result.errors > 0


def test_batched_blob_without_timeout_never_clamps():
    """Blob clients have no default timeout, so a closed blob spec that
    sets none never clamps in batched mode either: Fig. 1's 1 GB
    downloads at 10^4 clients take far longer than the table/queue
    clients' 30 s and still all succeed."""
    result = run_scenario(fig1_scenario("download"), n_clients=10_000,
                          seed=3, mode="batched")
    assert result.errors == 0
    assert result.ops_completed == 10_000
    assert result.latency_p99_s > 30.0
