"""Typed run-catalog records.

Section 6.3's lesson ("extensive monitoring and logging facilities are
necessary to not only diagnose problems but also to determine how the
application is behaving") applied to the simulation itself: every
registry run (experiment, scenario sweep, campaign, drill) and ops
snapshot becomes one :class:`RunRecord` — run id, kind, config hash,
the full spec document, the declared seed × level grid, per-cell
summary metrics and digests, and serialized histogram/tracer
snapshots — durable enough that a QC gate (:mod:`repro.artifacts.qc`)
can judge the sweep and a dashboard (:mod:`repro.artifacts.dash`) can
render it long after the run.

Records are plain dataclasses over JSON-able dicts; the catalog store
(:mod:`repro.artifacts.store`) persists them as content-addressed
payloads through the simulated blob service.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

#: Record kinds the catalog understands (free-form kinds are allowed;
#: these are the run registry's families plus the ops records, and
#: ``bench`` so catalogs holding the kernel snapshots earlier versions
#: recorded still load).
RUN_KINDS = ("experiment", "scenario", "campaign", "drill", "bench", "ops")


def canonical_data(value: Any) -> Any:
    """Coerce a result document (enum keys, tuples, numpy scalars) to
    plain JSON-able types without losing float precision."""
    if isinstance(value, dict):
        return {str(k): canonical_data(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [canonical_data(v) for v in value]
    if hasattr(value, "item"):  # numpy scalar
        return value.item()
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return str(value)


def canonical_json(value: Any) -> str:
    """Canonical JSON used for every catalog digest: sorted keys, no
    whitespace, repr-precision floats (the golden-digest convention, so
    two payloads hash equal only when bit-identical)."""
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def payload_digest(value: Any) -> str:
    """SHA-256 over :func:`canonical_json` of ``value``."""
    return hashlib.sha256(canonical_json(value).encode("utf-8")).hexdigest()


def config_hash(spec: Dict[str, Any]) -> str:
    """The config identity of a run: SHA-256 over the canonical spec
    document (what ties a result to the exact configuration that
    produced it)."""
    return payload_digest(spec)


@dataclass
class CellResult:
    """One (seed, level) cell of a sweep grid.

    ``digest`` is :func:`payload_digest` over the cell's summary
    document, so re-running the same cell must reproduce it
    bit-identically — the QC digest-consistency rule checks exactly
    this across repeats.
    """

    seed: int
    level: int
    digest: str
    metrics: Dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "seed": self.seed,
            "level": self.level,
            "digest": self.digest,
            "metrics": self.metrics,
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "CellResult":
        return cls(
            seed=int(payload["seed"]),
            level=int(payload["level"]),
            digest=str(payload["digest"]),
            metrics=dict(payload.get("metrics", {})),
        )


@dataclass
class RunRecord:
    """One catalogued run: the simulation storing its own science.

    ``run_id`` is assigned by the store at put time (pass ``""`` to let
    the store number it).  ``spec`` is the full configuration document
    (the run's ``config``, e.g. a ``scenario_to_dict`` payload) and
    ``config_hash`` its canonical SHA-256.  ``seed_grid`` ×
    ``level_grid`` declare the sweep the QC completeness rule checks
    ``cells`` against; records without population levels (experiment,
    campaign, drill, bench) have no cells and no level grid.
    ``snapshots`` holds serialized observability state
    (tracer/histogram/registry snapshot dicts); ``digests`` holds named
    auxiliary digests (``report``: the digest of a cell-less record's
    metrics document).  ``created_at`` is wall-clock metadata only — it
    never enters any digest-checked payload.
    """

    run_id: str
    kind: str
    name: str
    config_hash: str
    spec: Dict[str, Any] = field(default_factory=dict)
    seed_grid: List[int] = field(default_factory=list)
    level_grid: List[int] = field(default_factory=list)
    cells: List[CellResult] = field(default_factory=list)
    metrics: Dict[str, Any] = field(default_factory=dict)
    snapshots: Dict[str, Any] = field(default_factory=dict)
    digests: Dict[str, str] = field(default_factory=dict)
    created_at: str = ""

    def cell(self, seed: int, level: int) -> Optional[CellResult]:
        for cell in self.cells:
            if cell.seed == seed and cell.level == level:
                return cell
        return None

    def levels_present(self) -> List[int]:
        return sorted({c.level for c in self.cells})

    def to_dict(self) -> Dict[str, Any]:
        return {
            "run_id": self.run_id,
            "kind": self.kind,
            "name": self.name,
            "config_hash": self.config_hash,
            "spec": self.spec,
            "seed_grid": list(self.seed_grid),
            "level_grid": list(self.level_grid),
            "cells": [c.to_dict() for c in self.cells],
            "metrics": self.metrics,
            "snapshots": self.snapshots,
            "digests": dict(self.digests),
            "created_at": self.created_at,
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "RunRecord":
        return cls(
            run_id=str(payload["run_id"]),
            kind=str(payload["kind"]),
            name=str(payload["name"]),
            config_hash=str(payload["config_hash"]),
            spec=dict(payload.get("spec", {})),
            seed_grid=[int(s) for s in payload.get("seed_grid", [])],
            level_grid=[int(n) for n in payload.get("level_grid", [])],
            cells=[
                CellResult.from_dict(c) for c in payload.get("cells", [])
            ],
            metrics=dict(payload.get("metrics", {})),
            snapshots=dict(payload.get("snapshots", {})),
            digests={
                str(k): str(v)
                for k, v in payload.get("digests", {}).items()
            },
            created_at=str(payload.get("created_at", "")),
        )


__all__ = [
    "RUN_KINDS",
    "CellResult",
    "RunRecord",
    "canonical_data",
    "canonical_json",
    "config_hash",
    "payload_digest",
]
