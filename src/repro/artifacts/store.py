"""The run catalog: a content-addressed directory for the simulation's
own science.

Every :class:`~repro.artifacts.records.RunRecord` is serialized to
canonical JSON, content-addressed by its SHA-256 and written to
``root/objects/<digest>.json``; ``root/manifest.json`` indexes the runs
by id.  Plain files make the catalog durable across CLI invocations
(``repro run scenario:… --catalog`` then ``repro qc`` then ``repro dash``
are separate processes), and every read re-hashes its payload against
its address.  The store touches no simulated platform, so cataloguing a
run cannot perturb its RNG draws or event schedule (the goldens stay
bit-identical with cataloguing on).  Opening a catalog creates nothing:
the first write creates ``root/`` and ``root/objects/``.
"""

from __future__ import annotations

import datetime
import json
import re
from pathlib import Path
from typing import Any, Dict, List, Optional, Union

from repro.artifacts.records import (
    RunRecord,
    canonical_json,
    payload_digest,
)

#: The manifest's ``container`` format field (a fixed value every
#: catalog carries).
CATALOG_CONTAINER = "catalog"

#: Manifest schema version (bumped on incompatible layout changes).
MANIFEST_VERSION = 1

_ID_SANITIZE = re.compile(r"[^A-Za-z0-9_.-]+")


class CatalogError(Exception):
    """A catalog operation failed (missing run, corrupt payload, ...)."""


class CatalogStore:
    """A durable run catalog kept as a content-addressed directory.

    Parameters
    ----------
    root:
        The catalog directory (created by the first write, not here).
    """

    def __init__(self, root: Union[str, Path]) -> None:
        self.root = Path(root)
        self.objects_dir = self.root / "objects"
        self.manifest_path = self.root / "manifest.json"
        self.manifest: Dict[str, Any] = self._load_manifest()

    # -- manifest ----------------------------------------------------------
    def _load_manifest(self) -> Dict[str, Any]:
        if not self.manifest_path.exists():
            return {
                "version": MANIFEST_VERSION,
                "container": CATALOG_CONTAINER,
                "sequence": 0,
                "runs": {},
                "frozen": {},
            }
        manifest = json.loads(self.manifest_path.read_text())
        if manifest.get("version") != MANIFEST_VERSION:
            raise CatalogError(
                f"manifest version {manifest.get('version')!r} != "
                f"{MANIFEST_VERSION} (incompatible catalog at {self.root})"
            )
        for entry in manifest["runs"].values():
            path = self._object_path(entry["object"])
            if not path.exists():
                raise CatalogError(
                    f"catalog object {entry['object']} missing on disk "
                    f"({path})"
                )
        return manifest

    def _object_path(self, digest: str) -> Path:
        return self.objects_dir / f"{digest}.json"

    def _write_manifest(self) -> None:
        self.manifest_path.write_text(
            json.dumps(self.manifest, indent=2, sort_keys=True)
        )

    # -- writes ------------------------------------------------------------
    def put_record(self, record: RunRecord) -> str:
        """Catalog one run; returns its (possibly newly assigned) id.

        The record payload is content-addressed: its canonical JSON's
        SHA-256 names the object file (``objects/<digest>.json``).  The
        manifest gains one entry and is rewritten.
        """
        seq = self.manifest["sequence"] + 1
        if not record.run_id:
            base = _ID_SANITIZE.sub("-", f"{record.kind}-{record.name}")
            record.run_id = f"{base}-{seq:04d}"
        if record.run_id in self.manifest["runs"]:
            raise CatalogError(f"run id {record.run_id!r} already catalogued")
        if not record.created_at:
            record.created_at = (
                datetime.datetime.now(datetime.timezone.utc)
                .strftime("%Y-%m-%dT%H:%M:%SZ")
            )
        payload = canonical_json(record.to_dict()).encode("utf-8")
        digest = payload_digest(record.to_dict())
        self.objects_dir.mkdir(parents=True, exist_ok=True)
        self._object_path(digest).write_bytes(payload)
        self.manifest["sequence"] = seq
        self.manifest["runs"][record.run_id] = {
            "seq": seq,
            "kind": record.kind,
            "name": record.name,
            "object": digest,
            "config_hash": record.config_hash,
            "created_at": record.created_at,
        }
        self._write_manifest()
        return record.run_id

    def freeze(self, run_id: str, label: str = "frozen") -> None:
        """Pin ``run_id`` under ``label`` (the "thesis run" mechanism:
        dashboards and baselines read the pin, not "latest")."""
        if run_id not in self.manifest["runs"]:
            raise CatalogError(f"no catalogued run {run_id!r}")
        self.manifest["frozen"][label] = run_id
        self._write_manifest()

    # -- reads -------------------------------------------------------------
    def get_record(self, run_id: str) -> RunRecord:
        """Reconstruct one typed record from its object file.

        The payload's bytes are re-hashed and checked against the
        content address before parsing, so a corrupted object fails
        loudly rather than returning silently wrong science.
        """
        entry = self.manifest["runs"].get(run_id)
        if entry is None:
            raise CatalogError(f"no catalogued run {run_id!r}")
        digest = entry["object"]
        path = self._object_path(digest)
        if not path.exists():
            raise CatalogError(f"catalog object {digest} missing ({path})")
        payload = json.loads(path.read_bytes())
        actual = payload_digest(payload)
        if actual != digest:
            raise CatalogError(
                f"catalog object {digest} failed its content-address "
                f"check (payload hashes to {actual})"
            )
        return RunRecord.from_dict(payload)

    def list_runs(self, kind: Optional[str] = None) -> List[Dict[str, Any]]:
        """Manifest entries (with ``run_id`` folded in), oldest first."""
        rows = [
            dict(entry, run_id=run_id)
            for run_id, entry in self.manifest["runs"].items()
            if kind is None or entry["kind"] == kind
        ]
        return sorted(rows, key=lambda r: r["seq"])

    def latest(self, kind: Optional[str] = None) -> Optional[str]:
        runs = self.list_runs(kind)
        return runs[-1]["run_id"] if runs else None

    def frozen_run_id(self, label: str = "frozen") -> Optional[str]:
        return self.manifest["frozen"].get(label)

    def frozen_labels(self, run_id: str) -> List[str]:
        return sorted(
            label
            for label, pinned in self.manifest["frozen"].items()
            if pinned == run_id
        )

    def resolve(
        self,
        run_id: Optional[str] = None,
        frozen: Optional[str] = None,
        kind: Optional[str] = None,
    ) -> str:
        """Resolve a CLI-style selector to a run id: explicit id wins,
        then a frozen label, then the latest catalogued run."""
        if run_id:
            if run_id not in self.manifest["runs"]:
                raise CatalogError(f"no catalogued run {run_id!r}")
            return run_id
        if frozen:
            pinned = self.frozen_run_id(frozen)
            if pinned is None:
                raise CatalogError(f"no frozen label {frozen!r}")
            return pinned
        last = self.latest(kind)
        if last is None:
            raise CatalogError(f"catalog at {self.root} is empty")
        return last

    def stats(self) -> Dict[str, float]:
        """Operator rollup: run count, pins, and the object files'
        count and size."""
        objects = (
            list(self.objects_dir.glob("*.json"))
            if self.objects_dir.is_dir() else []
        )
        return {
            "runs": float(len(self.manifest["runs"])),
            "frozen_labels": float(len(self.manifest["frozen"])),
            "objects": float(len(objects)),
            "stored_mb": sum(p.stat().st_size for p in objects) / 1e6,
        }


__all__ = [
    "CATALOG_CONTAINER",
    "MANIFEST_VERSION",
    "CatalogError",
    "CatalogStore",
]
