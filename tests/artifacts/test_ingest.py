"""Driver → catalog ingestion: exact + batched grids, determinism, and
the observation-only contract (cataloging never changes a result)."""

from dataclasses import replace

import pytest

from repro.artifacts import (
    CatalogStore,
    campaign_record,
    ingest_bench,
    ingest_campaign,
    ingest_scenario_run,
    payload_digest,
    run_qc,
    run_scenario_sweep,
    scenario_record,
)
from repro.experiments.golden import digest_scenario
from repro.scenarios import get_scenario, run_scenario, sweep_scenario


@pytest.fixture(scope="module")
def spec():
    return get_scenario("fig3-queue-add").scaled(0.2)


def test_exact_grid_record(spec):
    record = run_scenario_sweep(
        spec, levels=[2, 4], seeds=[3, 4], mode="exact"
    )
    assert record.kind == "scenario"
    assert record.name == spec.name
    assert record.seed_grid == [3, 4]
    assert record.level_grid == [2, 4]
    assert len(record.cells) == 4
    for cell in record.cells:
        assert cell.metrics["ops_completed"] > 0
        assert cell.digest == payload_digest(cell.metrics)
    # Tracer snapshots ride along per cell.
    assert set(record.snapshots) == {
        f"tracer:s{s}-n{n}" for s in (3, 4) for n in (2, 4)
    }
    # The record's own QC completeness gate sees the declared grid.
    report = run_qc(record)
    names = {c.name: c.passed for c in report.checks}
    assert names["completeness"]
    assert names["digest-consistency"]


def test_batched_grid_record():
    spec = get_scenario("block-storage").scaled(0.05)
    record = run_scenario_sweep(
        spec, levels=[2000], seeds=[3], mode="batched"
    )
    assert record.level_grid == [2000]
    assert len(record.cells) == 1
    cell = record.cells[0]
    assert cell.metrics["mode"] == "batched"
    assert cell.metrics["ops_completed"] > 0
    assert "tracer:s3-n2000" in record.snapshots


def test_grid_record_is_deterministic(spec):
    a = run_scenario_sweep(spec, levels=[2], seeds=[3], mode="exact")
    b = run_scenario_sweep(spec, levels=[2], seeds=[3], mode="exact")
    assert [c.digest for c in a.cells] == [c.digest for c in b.cells]
    assert a.config_hash == b.config_hash
    assert a.snapshots == b.snapshots


def test_scenario_record_matches_driver_results(spec):
    runs = sweep_scenario(spec, levels=[2, 4], seed=3, mode="exact")
    record = scenario_record(spec, {3: runs}, mode="exact")
    for cell in record.cells:
        assert cell.metrics == runs[cell.level].summary()


def test_ingest_single_run_and_read_back(tmp_path, spec):
    result = run_scenario(spec, n_clients=2, seed=3, mode="exact")
    store = CatalogStore(tmp_path / "cat")
    run_id = ingest_scenario_run(store, spec, result, mode="exact")
    got = store.get_record(run_id)
    assert got.cells[0].metrics == result.summary()
    assert got.seed_grid == [result.seed]
    assert got.level_grid == [result.n_clients]


def test_cataloging_is_observation_only(tmp_path, spec):
    """The tentpole invariant: a catalogued run is bit-identical to an
    uncatalogued one (catalog I/O runs on the store's own platform)."""
    plain = run_scenario(spec, n_clients=2, seed=3, mode="exact")
    store = CatalogStore(tmp_path / "cat")
    catalogued = run_scenario(spec, n_clients=2, seed=3, mode="exact")
    ingest_scenario_run(store, spec, catalogued, mode="exact")
    again = run_scenario(spec, n_clients=2, seed=3, mode="exact")
    assert plain.summary() == catalogued.summary() == again.summary()


def test_golden_scenario_digest_unchanged_by_cataloging(tmp_path):
    """Golden digests stay bit-identical with cataloging interleaved."""
    before = digest_scenario("streaming")
    store = CatalogStore(tmp_path / "cat")
    spec = get_scenario("streaming").scaled(0.05)
    result = run_scenario(spec, seed=3, mode="batched")
    ingest_scenario_run(store, spec, result, mode="batched")
    after = digest_scenario("streaming")
    assert before == after


def test_ingest_campaign(tmp_path):
    from repro.resilience.campaign import CAMPAIGN_SCENARIOS, run_campaign

    spec = replace(
        CAMPAIGN_SCENARIOS["day"](seed=3, scale=0.02), modes=("automatic",)
    )
    report = run_campaign(spec, fast=True, jobs=1)
    store = CatalogStore(tmp_path / "cat")
    run_id = ingest_campaign(store, spec, report)
    got = store.get_record(run_id)
    assert got.kind == "campaign"
    assert "automatic" in got.metrics["modes"]
    assert "slo:automatic" in got.snapshots
    assert run_qc(got).passed


def test_campaign_config_hash_tracks_driver_and_grid():
    """An event-level and a fast-forwarded run of one spec, and two mode
    subsets of it, are different configurations in the catalog."""
    from repro.resilience.campaign import day_campaign_spec, run_campaign

    spec = replace(day_campaign_spec(seed=3, scale=0.02), modes=("none",))
    event = campaign_record(spec, run_campaign(spec))
    fast = campaign_record(spec, run_campaign(spec, fast=True))
    assert event.spec["fast"] is False and fast.spec["fast"] is True
    assert event.config_hash != fast.config_hash
    other = replace(spec, modes=("automatic",))
    assert campaign_record(other, run_campaign(other)).config_hash != (
        event.config_hash
    )
    # Same spec, same driver: same identity.
    again = campaign_record(spec, run_campaign(spec))
    assert again.config_hash == event.config_hash


def test_ingest_bench_snapshot(tmp_path):
    snapshot = {
        "scale": 0.1,
        "seed": 3,
        "jobs": 1,
        "kernel": {"timeout_churn_events_per_s": 1.5e6},
    }
    store = CatalogStore(tmp_path / "cat")
    run_id = ingest_bench(store, snapshot)
    got = store.get_record(run_id)
    assert got.kind == "bench"
    assert got.metrics == snapshot
    assert got.spec == {"scale": 0.1, "seed": 3, "jobs": 1}
    assert run_qc(got).passed
