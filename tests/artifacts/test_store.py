"""Catalog store: round-trips, content addressing, durability, pins,
and the on-disk format."""

import hashlib
import json
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro.artifacts import (
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


def _object_files(store):
    return sorted(p.name for p in store.objects_dir.iterdir())


def test_records_written_as_object_and_manifest_files(tmp_path):
    store = CatalogStore(tmp_path / "cat")
    run_id = store.put_record(_record())
    digest = store.manifest["runs"][run_id]["object"]
    assert _object_files(store) == [f"{digest}.json"]
    assert store.manifest_path.exists()
    stats = store.stats()
    assert stats["runs"] == 1.0
    assert stats["objects"] == 1.0
    size = (store.objects_dir / f"{digest}.json").stat().st_size
    assert stats["stored_mb"] == pytest.approx(size / 1e6)


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


def test_rejected_duplicate_uses_up_no_sequence_number(tmp_path):
    store = CatalogStore(tmp_path / "cat")
    first = store.put_record(_record())
    with pytest.raises(CatalogError):
        store.put_record(
            RunRecord(
                run_id=first, kind="scenario", name="demo",
                config_hash="x",
            )
        )
    second = store.put_record(_record())
    runs = store.manifest["runs"]
    assert [runs[first]["seq"], runs[second]["seq"]] == [1, 2]
    assert second.endswith("-0002")
    assert store.manifest["sequence"] == 2


def test_reopen_preserves_catalog(tmp_path):
    root = tmp_path / "cat"
    record = _record()
    run_id = CatalogStore(root).put_record(record)
    store = CatalogStore(root)
    got = store.get_record(run_id)
    assert got.to_dict() == record.to_dict()
    assert _object_files(store) == [
        f"{store.manifest['runs'][run_id]['object']}.json"
    ]


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
    # the cheaper invariant instead: one object file per distinct
    # payload digest.
    objects = {
        store.manifest["runs"][rid]["object"] for rid in (id_a, id_b)
    }
    assert _object_files(store) == sorted(f"{d}.json" for d in objects)


def test_on_disk_format_is_pinned(tmp_path):
    """A fixed record writes the same object and manifest bytes as
    catalogs written before the store became a plain directory, so old
    and new catalogs are interchangeable."""
    record = _record()
    record.run_id = "scenario-demo-pinned"
    record.created_at = "2026-01-01T00:00:00Z"
    store = CatalogStore(tmp_path / "cat")
    store.put_record(record)
    (obj,) = store.objects_dir.iterdir()
    assert hashlib.sha256(obj.read_bytes()).hexdigest() == (
        "52e4593f18fcef379b279223c73298918d516fddd8d4318f37b53e863360eda4"
    )
    manifest = store.manifest_path.read_bytes()
    assert hashlib.sha256(manifest).hexdigest() == (
        "9fd90008a9b0d2572fbe1a42e0154a056542e4e198baedfe6822b62b515e4c3e"
    )
    assert sorted(json.loads(manifest)) == [
        "container", "frozen", "runs", "sequence", "version",
    ]


def test_catalog_imports_no_simulator(tmp_path):
    """Opening, writing, reading, listing and summarizing a catalog
    loads none of the simulator's packages."""
    script = textwrap.dedent("""
        import sys
        src, root = sys.argv[1:]
        sys.path.insert(0, src)
        from repro.artifacts import CatalogStore, RunRecord
        store = CatalogStore(root)
        run_id = store.put_record(
            RunRecord(run_id="", kind="ops", name="demo", config_hash="x")
        )
        store.get_record(run_id)
        store.list_runs()
        store.stats()
        simulator = ("simcore", "storage", "client", "workloads")
        print(sorted(
            name for name in sys.modules
            if name.startswith("repro.")
            and name.split(".")[1] in simulator
        ))
    """)
    src = str(Path(__file__).parents[2] / "src")
    out = subprocess.run(
        [sys.executable, "-c", script, src, str(tmp_path / "cat")],
        capture_output=True, text=True, check=True,
    ).stdout
    assert out.strip() == "[]"
