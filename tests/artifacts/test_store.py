"""Catalog store: round-trips, content addressing, durability, pins."""

import json

import pytest

from repro.artifacts import (
    CATALOG_CONTAINER,
    CatalogError,
    CatalogStore,
    CellResult,
    RunRecord,
    config_hash,
    payload_digest,
)


def _record(name="demo", kind="scenario", seeds=(3,), levels=(2,)):
    spec = {"name": name, "levels": list(levels)}
    cells = [
        CellResult(
            seed=s,
            level=n,
            digest=payload_digest({"ops_completed": 10 * n}),
            metrics={"ops_completed": 10 * n},
        )
        for s in seeds
        for n in levels
    ]
    return RunRecord(
        run_id="",
        kind=kind,
        name=name,
        config_hash=config_hash(spec),
        spec=spec,
        seed_grid=list(seeds),
        level_grid=list(levels),
        cells=cells,
        metrics={"cells": len(cells)},
    )


def test_put_get_round_trip(tmp_path):
    store = CatalogStore(tmp_path / "cat")
    record = _record()
    run_id = store.put_record(record)
    assert run_id.startswith("scenario-demo-")
    got = store.get_record(run_id)
    assert got.to_dict() == record.to_dict()
    assert got.cell(3, 2).metrics == {"ops_completed": 20}


def test_records_written_through_simulated_blob_service(tmp_path):
    store = CatalogStore(tmp_path / "cat")
    store.put_record(_record())
    # The object + manifest blobs exist in the simulated container and
    # the store's private tracer saw real pipeline requests.
    assert store.blobs.blob_count(CATALOG_CONTAINER) == 2
    assert store.platform.tracer.total >= 2
    stats = store.stats()
    assert stats["runs"] == 1.0
    assert stats["catalog_requests"] >= 2.0


def test_run_ids_are_sequential_and_unique(tmp_path):
    store = CatalogStore(tmp_path / "cat")
    first = store.put_record(_record())
    second = store.put_record(_record())
    assert first != second
    assert store.list_runs()[0]["run_id"] == first
    assert store.latest() == second
    with pytest.raises(CatalogError):
        store.put_record(
            RunRecord(
                run_id=first, kind="scenario", name="demo",
                config_hash="x",
            )
        )


def test_reopen_preserves_catalog(tmp_path):
    root = tmp_path / "cat"
    record = _record()
    run_id = CatalogStore(root).put_record(record)
    store = CatalogStore(root)
    got = store.get_record(run_id)
    assert got.to_dict() == record.to_dict()
    # Mounted objects are administratively seeded, then served through
    # the simulated download path.
    assert store.blobs.exists(
        CATALOG_CONTAINER, f"objects/{store.manifest['runs'][run_id]['object']}"
    )
    assert store.platform.tracer.total >= 1


def test_content_address_check_catches_tampering(tmp_path):
    root = tmp_path / "cat"
    store = CatalogStore(root)
    run_id = store.put_record(_record())
    digest = store.manifest["runs"][run_id]["object"]
    path = root / "objects" / f"{digest}.json"
    doc = json.loads(path.read_text())
    doc["metrics"]["cells"] = 999
    path.write_text(json.dumps(doc))
    with pytest.raises(CatalogError, match="content-address"):
        CatalogStore(root).get_record(run_id)


def test_missing_object_fails_loudly(tmp_path):
    root = tmp_path / "cat"
    store = CatalogStore(root)
    run_id = store.put_record(_record())
    digest = store.manifest["runs"][run_id]["object"]
    (root / "objects" / f"{digest}.json").unlink()
    with pytest.raises(CatalogError, match="missing"):
        CatalogStore(root)


def test_freeze_unfreeze_and_resolve(tmp_path):
    store = CatalogStore(tmp_path / "cat")
    first = store.put_record(_record())
    second = store.put_record(_record())
    store.freeze(first, "baseline")
    assert store.frozen_run_id("baseline") == first
    assert store.frozen_labels(first) == ["baseline"]
    # resolve: explicit id > frozen label > latest
    assert store.resolve(run_id=first) == first
    assert store.resolve(frozen="baseline") == first
    assert store.resolve() == second
    # pins survive reopen
    assert CatalogStore(store.root).frozen_run_id("baseline") == first
    with pytest.raises(CatalogError):
        store.resolve(frozen="no-such-label")
    with pytest.raises(CatalogError):
        store.freeze("no-such-run")


def test_resolve_empty_catalog_raises(tmp_path):
    store = CatalogStore(tmp_path / "cat")
    with pytest.raises(CatalogError, match="empty"):
        store.resolve()


def test_list_runs_filters_by_kind(tmp_path):
    store = CatalogStore(tmp_path / "cat")
    store.put_record(_record(kind="scenario"))
    store.put_record(_record(name="bench", kind="bench"))
    assert [r["kind"] for r in store.list_runs()] == ["scenario", "bench"]
    assert [r["kind"] for r in store.list_runs("bench")] == ["bench"]
    assert store.latest("scenario").startswith("scenario-")


def test_identical_payloads_share_one_object(tmp_path):
    store = CatalogStore(tmp_path / "cat")
    record_a = _record()
    record_b = _record()
    id_a = store.put_record(record_a)
    id_b = store.put_record(record_b)
    # run_id is assigned before hashing, so payloads differ; but a
    # bit-identical payload (same run_id forced) would dedupe.  Check
    # the cheaper invariant instead: object count equals distinct
    # payload digests + 1 manifest blob.
    objects = {
        store.manifest["runs"][rid]["object"] for rid in (id_a, id_b)
    }
    assert store.blobs.blob_count(CATALOG_CONTAINER) == len(objects) + 1
