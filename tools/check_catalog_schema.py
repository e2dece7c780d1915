#!/usr/bin/env python
"""Validate a run catalog directory's structural integrity.

CI catalogs a scenario sweep (``repro run scenario:… --catalog``) and a
bench snapshot, then runs this checker over the catalog directory,
which asserts:

1. **Manifest schema** — ``manifest.json`` carries the version,
   container name, monotone sequence counter, a ``runs`` index and a
   ``frozen`` label map, and every run entry has the seq / kind / name /
   object / config_hash / created_at fields.
2. **Content addressing** — every indexed object file exists under
   ``objects/`` and its canonical-JSON SHA-256 equals the digest that
   names it (a byte flipped anywhere in the mirror fails here).
3. **Typed records** — every payload parses back into a ``RunRecord``
   whose run id matches its index entry, whose ``config_hash`` is the
   recomputed hash of its spec document, and whose cells carry the
   digests of their own metrics documents.
4. **Frozen labels** — every pin points at an indexed run.

Usage:
    PYTHONPATH=src python tools/check_catalog_schema.py CATALOG_DIR
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import NoReturn

RUN_ENTRY_FIELDS = (
    "seq", "kind", "name", "object", "config_hash", "created_at",
)


def fail(message: str) -> NoReturn:
    print(f"catalog schema check FAILED: {message}", file=sys.stderr)
    sys.exit(1)


def check_catalog(root: Path) -> int:
    from repro.artifacts import (
        MANIFEST_VERSION,
        RunRecord,
        config_hash,
        payload_digest,
    )

    manifest_path = root / "manifest.json"
    if not manifest_path.exists():
        fail(f"no manifest.json under {root}")
    manifest = json.loads(manifest_path.read_text())
    if manifest.get("version") != MANIFEST_VERSION:
        fail(
            f"manifest version {manifest.get('version')!r} != "
            f"{MANIFEST_VERSION}"
        )
    for key in ("container", "sequence", "runs", "frozen"):
        if key not in manifest:
            fail(f"manifest missing {key!r}")
    runs = manifest["runs"]
    if not isinstance(runs, dict):
        fail("'runs' must be an object")
    seqs = []
    for run_id, entry in runs.items():
        where = f"runs[{run_id!r}]"
        if not isinstance(entry, dict):
            fail(f"{where}: not an object")
        for key in RUN_ENTRY_FIELDS:
            if key not in entry:
                fail(f"{where}: missing {key!r}")
        seqs.append(int(entry["seq"]))
        path = root / "objects" / f"{entry['object']}.json"
        if not path.exists():
            fail(f"{where}: object file {path.name} missing on disk")
        payload = json.loads(path.read_bytes())
        actual = payload_digest(payload)
        if actual != entry["object"]:
            fail(
                f"{where}: object {entry['object'][:12]}… fails its "
                f"content-address check (payload hashes to {actual[:12]}…)"
            )
        try:
            record = RunRecord.from_dict(payload)
        except (KeyError, TypeError, ValueError) as exc:
            fail(f"{where}: payload does not parse as a RunRecord: {exc}")
        if record.run_id != run_id:
            fail(
                f"{where}: record claims run id {record.run_id!r}"
            )
        if record.kind != entry["kind"] or record.name != entry["name"]:
            fail(f"{where}: kind/name disagree with the index entry")
        if config_hash(record.spec) != record.config_hash:
            fail(f"{where}: config_hash does not match the spec document")
        if record.config_hash != entry["config_hash"]:
            fail(f"{where}: index config_hash disagrees with the record")
        for cell in record.cells:
            if payload_digest(cell.metrics) != cell.digest:
                fail(
                    f"{where}: cell seed={cell.seed} level={cell.level} "
                    f"digest does not match its metrics document"
                )
    if len(set(seqs)) != len(seqs):
        fail("duplicate sequence numbers in the run index")
    if seqs and max(seqs) > int(manifest["sequence"]):
        fail("run seq exceeds the manifest sequence counter")
    frozen = manifest["frozen"]
    if not isinstance(frozen, dict):
        fail("'frozen' must be an object")
    for label, run_id in frozen.items():
        if run_id not in runs:
            fail(f"frozen label {label!r} points at unknown run {run_id!r}")
    print(
        f"catalog schema OK: {len(runs)} run(s), "
        f"{len(frozen)} frozen label(s) at {root}"
    )
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("catalog", help="catalog directory to validate")
    args = parser.parse_args(argv)
    return check_catalog(Path(args.catalog))


if __name__ == "__main__":
    sys.exit(main())
