"""Driver → catalog ingestion: exact + batched grids, determinism, and
the observation-only contract (cataloging never changes a result)."""

from dataclasses import replace

import pytest

from repro.artifacts import (
    CatalogStore,
    ingest,
    payload_digest,
    run_qc,
    run_record,
)
from repro.experiments.golden import run_digest
from repro.experiments.registry import (
    campaign_result,
    scenario_result,
    scenario_runnable,
)
from repro.scenarios import get_scenario, run_scenario, sweep_scenario


def run_scenario_sweep(spec, levels, seeds, mode):
    """The seed x level grid record ``repro run scenario:… --seeds
    --catalog`` builds."""
    report = scenario_runnable(spec).run(levels=levels, seeds=seeds, mode=mode)
    return run_record(report.cells)


def campaign_record(spec, report):
    return run_record({spec.seed: {None: campaign_result("day", report)}})


def ingest_scenario_run(store, spec, result):
    return ingest(
        store, {result.seed: {result.n_clients: scenario_result(spec, result)}}
    )


#: Catalog identities of one exact scenario sweep and one campaign
#: record (event and fast-forwarded), recorded before the per-family
#: record builders were folded into one; the builder must keep them.
_SWEEP_CONFIG_HASH = (
    "401762079ca4202df9f50f0ccee801bc4d6910210fb67cd7911ffd149f2164a5"
)
_SWEEP_CELL_DIGESTS = {
    2: "c629eea16da97b2db8f9a1e11b99fb823d9b6c3d4ceec17daa5c7cfa5abd8ec8",
    4: "716d76176387e105d249fc9d78465aaca5032fb4b3d3d99ce6871b9eedbc9e54",
}
_CAMPAIGN_IDENTITY = {
    False: (
        "d5e3ac06f2f1820bd836961550096aa135ceb0cf1f7eda6148a69adcb4e05aa8",
        "5bf87e6fe533fa86b3c82c5ea3a10fa16251d2e084458d7437e6a238b570599f",
    ),
    True: (
        "1d75040a9640244d26c48a4f5a44dde55c69ce1176c9e75a1f4056111a64a90f",
        "d3134d83baa6d7a3e289e7a45970d61cf406f88601bc38543ea2ec3f3e6718d2",
    ),
}


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
    record = run_record(
        {3: {n: scenario_result(spec, run) for n, run in runs.items()}}
    )
    for cell in record.cells:
        assert cell.metrics == runs[cell.level].summary()


def test_ingest_single_run_and_read_back(tmp_path, spec):
    result = run_scenario(spec, n_clients=2, seed=3, mode="exact")
    store = CatalogStore(tmp_path / "cat")
    run_id = ingest_scenario_run(store, spec, result)
    got = store.get_record(run_id)
    assert got.cells[0].metrics == result.summary()
    assert got.seed_grid == [result.seed]
    assert got.level_grid == [result.n_clients]


def test_cataloging_is_observation_only(tmp_path, spec):
    """The tentpole invariant: a catalogued run is bit-identical to an
    uncatalogued one (catalog I/O only writes files)."""
    plain = run_scenario(spec, n_clients=2, seed=3, mode="exact")
    store = CatalogStore(tmp_path / "cat")
    catalogued = run_scenario(spec, n_clients=2, seed=3, mode="exact")
    ingest_scenario_run(store, spec, catalogued)
    again = run_scenario(spec, n_clients=2, seed=3, mode="exact")
    assert plain.summary() == catalogued.summary() == again.summary()


def test_golden_scenario_digest_unchanged_by_cataloging(tmp_path):
    """Golden digests stay bit-identical with cataloging interleaved."""
    before = run_digest("scenario:streaming")
    store = CatalogStore(tmp_path / "cat")
    spec = get_scenario("streaming").scaled(0.05)
    result = run_scenario(spec, seed=3, mode="batched")
    ingest_scenario_run(store, spec, result)
    after = run_digest("scenario:streaming")
    assert before == after


def test_ingest_campaign(tmp_path):
    from repro.resilience.campaign import CAMPAIGN_SCENARIOS, run_campaign

    spec = replace(
        CAMPAIGN_SCENARIOS["day"](seed=3, scale=0.02), modes=("automatic",)
    )
    report = run_campaign(spec, fast=True, jobs=1)
    store = CatalogStore(tmp_path / "cat")
    run_id = ingest(store, {3: {None: campaign_result("day", report)}})
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


def test_scenario_sweep_record_identity_is_pinned(spec):
    record = run_scenario_sweep(spec, levels=[2, 4], seeds=[3], mode="exact")
    assert record.config_hash == _SWEEP_CONFIG_HASH
    assert {c.level: c.digest for c in record.cells} == _SWEEP_CELL_DIGESTS


@pytest.mark.parametrize("fast", [False, True])
def test_campaign_record_identity_is_pinned(fast):
    from repro.resilience.campaign import day_campaign_spec, run_campaign

    spec = replace(
        day_campaign_spec(seed=3, scale=0.02), modes=("automatic",)
    )
    record = campaign_record(spec, run_campaign(spec, fast=fast))
    assert (record.config_hash, record.digests["report"]) == (
        _CAMPAIGN_IDENTITY[fast]
    )
