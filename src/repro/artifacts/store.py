"""The run catalog: a blob-backed artifact store for the simulation's
own science.

Every :class:`~repro.artifacts.records.RunRecord` is serialized to
canonical JSON, content-addressed by its SHA-256, and written *through
the simulated blob service* into the well-known ``catalog`` container —
one ``objects/<digest>`` blob per payload plus a ``manifest`` index
blob, exactly the shape a real sweep pipeline uploads to cloud storage.
The store owns its **own** platform (environment, streams, network,
blob service): catalog I/O runs real pipeline events there, never on
the platform being measured, which is why cataloging a run can never
perturb its RNG draws or event schedule (the goldens stay bit-identical
with cataloging on).

A disk mirror under ``root/`` makes the catalog durable across CLI
invocations (``repro scenario run --catalog`` then ``repro qc`` then
``repro dash`` are separate processes): payload bytes live in
``root/objects/<digest>.json`` and the index in ``root/manifest.json``.
Reopening a catalog *mounts* the existing objects into the simulated
service administratively (no events); every new write goes through the
simulated upload path, every read through the simulated download path,
and payload bytes are digest-verified on the way back out.
"""

from __future__ import annotations

import datetime
import json
import re
from pathlib import Path
from typing import Any, Dict, Generator, List, Optional, Union

from repro.artifacts.records import (
    RunRecord,
    canonical_json,
    payload_digest,
)

#: The well-known container catalog state lives in.
CATALOG_CONTAINER = "catalog"

#: Blob name of the manifest/index object.
MANIFEST_BLOB = "manifest"

#: Manifest schema version (bumped on incompatible layout changes).
MANIFEST_VERSION = 1

_ID_SANITIZE = re.compile(r"[^A-Za-z0-9_.-]+")


class CatalogError(Exception):
    """A catalog operation failed (missing run, corrupt payload, ...)."""


class CatalogStore:
    """A durable run catalog backed by the simulated blob service.

    Parameters
    ----------
    root:
        Directory holding the disk mirror (created if absent).
    seed:
        Seed of the store's private platform streams.  It only shapes
        the catalog's own simulated-request latencies, never a measured
        run.
    """

    def __init__(self, root: Union[str, Path], seed: int = 0) -> None:
        from repro.client import BlobClient
        from repro.workloads.harness import build_platform

        self.root = Path(root)
        self.objects_dir = self.root / "objects"
        self.manifest_path = self.root / "manifest.json"
        self.root.mkdir(parents=True, exist_ok=True)
        self.objects_dir.mkdir(parents=True, exist_ok=True)
        # The store's own tiny simulated platform: one client host, one
        # blob service, its own kernel.  Catalog traffic is real
        # pipeline traffic *here* — admission, base latency, transfer,
        # commit — and shows up in this platform's request tracer.
        self.platform = build_platform(
            seed=seed, n_clients=1, racks=1, hosts_per_rack=1
        )
        self.blobs = self.platform.account.blobs
        self.client = BlobClient(self.blobs, self.platform.clients[0])
        self.blobs.create_container(CATALOG_CONTAINER)
        self.manifest: Dict[str, Any] = self._load_manifest()
        self._mount_existing()

    # -- the simulated data path ------------------------------------------
    def _drive(self, gen: Generator) -> Any:
        """Run one client call on the store's private kernel."""
        out: Dict[str, Any] = {}

        def proc() -> Generator:
            out["result"] = yield from gen

        self.platform.env.process(proc())
        self.platform.env.run()
        if "result" not in out:
            raise CatalogError("catalog blob operation did not complete")
        return out["result"]

    def _upload(self, name: str, payload: bytes, overwrite: bool) -> None:
        """Write one catalog object through the simulated blob service."""
        size_mb = max(len(payload) / 1e6, 1e-6)
        self._drive(
            self.client.upload(
                CATALOG_CONTAINER, name, size_mb, overwrite=overwrite
            )
        )

    def _download(self, name: str) -> Any:
        """Fetch one catalog object's metadata through the service."""
        return self._drive(self.client.download(CATALOG_CONTAINER, name))

    # -- manifest ----------------------------------------------------------
    def _load_manifest(self) -> Dict[str, Any]:
        if self.manifest_path.exists():
            manifest = json.loads(self.manifest_path.read_text())
            if manifest.get("version") != MANIFEST_VERSION:
                raise CatalogError(
                    f"manifest version {manifest.get('version')!r} != "
                    f"{MANIFEST_VERSION} (incompatible catalog at "
                    f"{self.root})"
                )
            return manifest
        return {
            "version": MANIFEST_VERSION,
            "container": CATALOG_CONTAINER,
            "sequence": 0,
            "runs": {},
            "frozen": {},
        }

    def _mount_existing(self) -> None:
        """Administratively seed already-persisted objects into the
        simulated service (mounting durable storage, not re-uploading:
        zero events, zero RNG draws)."""
        for entry in self.manifest["runs"].values():
            name = f"objects/{entry['object']}"
            path = self.objects_dir / f"{entry['object']}.json"
            if not path.exists():
                raise CatalogError(
                    f"catalog object {entry['object']} missing on disk "
                    f"({path})"
                )
            if not self.blobs.exists(CATALOG_CONTAINER, name):
                self.blobs.seed_blob(
                    CATALOG_CONTAINER,
                    name,
                    max(path.stat().st_size / 1e6, 1e-6),
                )
        if self.manifest["runs"] and not self.blobs.exists(
            CATALOG_CONTAINER, MANIFEST_BLOB
        ):
            self.blobs.seed_blob(
                CATALOG_CONTAINER,
                MANIFEST_BLOB,
                max(self.manifest_path.stat().st_size / 1e6, 1e-6),
            )

    def _write_manifest(self) -> None:
        payload = canonical_json(self.manifest).encode("utf-8")
        self._upload(
            MANIFEST_BLOB,
            payload,
            overwrite=self.blobs.exists(CATALOG_CONTAINER, MANIFEST_BLOB),
        )
        self.manifest_path.write_text(
            json.dumps(self.manifest, indent=2, sort_keys=True)
        )

    # -- writes ------------------------------------------------------------
    def put_record(self, record: RunRecord) -> str:
        """Catalog one run; returns its (possibly newly assigned) id.

        The record payload is content-addressed: its canonical JSON's
        SHA-256 names both the blob (``objects/<digest>``) and the disk
        mirror file.  The manifest gains one entry and is rewritten
        through the service, so the blob container always holds a
        consistent index of itself.
        """
        self.manifest["sequence"] += 1
        seq = self.manifest["sequence"]
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
        blob_name = f"objects/{digest}"
        if not self.blobs.exists(CATALOG_CONTAINER, blob_name):
            self._upload(blob_name, payload, overwrite=False)
        (self.objects_dir / f"{digest}.json").write_bytes(payload)
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
        """Reconstruct one typed record, via the simulated read path.

        The payload's bytes are re-hashed and checked against the
        content address before parsing, so a corrupted mirror fails
        loudly rather than returning silently wrong science.
        """
        entry = self.manifest["runs"].get(run_id)
        if entry is None:
            raise CatalogError(f"no catalogued run {run_id!r}")
        digest = entry["object"]
        self._download(f"objects/{digest}")
        path = self.objects_dir / f"{digest}.json"
        if not path.exists():
            raise CatalogError(f"catalog object {digest} missing ({path})")
        payload = path.read_bytes()
        actual = payload_digest(json.loads(payload))
        if actual != digest:
            raise CatalogError(
                f"catalog object {digest} failed its content-address "
                f"check (payload hashes to {actual})"
            )
        return RunRecord.from_dict(json.loads(payload))

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
        """Operator rollup: run count, stored volume, catalog traffic."""
        tracer = self.platform.tracer
        return {
            "runs": float(len(self.manifest["runs"])),
            "frozen_labels": float(len(self.manifest["frozen"])),
            "objects": float(
                self.blobs.blob_count(CATALOG_CONTAINER)
            ),
            "stored_mb": self.blobs.total_stored_mb(),
            "catalog_requests": float(tracer.total if tracer else 0),
        }


__all__ = [
    "CATALOG_CONTAINER",
    "MANIFEST_BLOB",
    "MANIFEST_VERSION",
    "CatalogError",
    "CatalogStore",
]
