"""Adapters from the run drivers into catalog records.

Every ``--catalog`` path lands here: the results of one registry run
(an experiment, a scenario run or seed × level sweep, a campaign, the
drill) or a live monitoring snapshot are folded into one
:class:`~repro.artifacts.records.RunRecord` — spec document, config
hash, per-cell summaries with bit-precision digests, and the serialized
tracer/histogram snapshots the dashboard reads — then written to the
catalog directory.

Cataloging is strictly post-hoc observation: every adapter consumes
finished results and writes only files, so a catalogued run is
bit-identical to an uncatalogued one.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from repro.artifacts.records import (
    CellResult,
    RunRecord,
    canonical_data,
    config_hash,
    payload_digest,
)
from repro.artifacts.store import CatalogStore


def run_record(results_by_seed: Dict[int, Dict[Optional[int], Any]]) -> RunRecord:
    """Fold one runnable's results, ``{seed: {level: result}}`` of
    :class:`~repro.experiments.report.ExperimentReport`, into a record.

    The record's kind is the runnable's family and its name the rest of
    the runnable's name (``campaign:day`` -> ``campaign``, ``day``); its
    config hash covers the results' ``config`` document.  Results with a
    population level (scenario runs) become the seed × level cells,
    each digested over its ``data``, with their snapshots keyed
    ``<name>:s<seed>-n<level>``.  A single result without one (an
    experiment, campaign or drill) becomes a cell-less record whose
    metrics are its ``data`` and whose ``report`` digest covers them.
    """
    grid = [
        (seed, level, result)
        for seed in sorted(results_by_seed)
        for level, result in sorted(results_by_seed[seed].items())
    ]
    first = grid[0][2]
    record = RunRecord(
        run_id="",
        kind=first.family,
        name=first.experiment_id.split(":", 1)[-1],
        config_hash=config_hash(first.config),
        spec=first.config,
        seed_grid=sorted(results_by_seed),
    )
    if first.level is None:
        if len(grid) != 1:
            raise ValueError(
                "a record holds one result or a seed x level grid of them"
            )
        record.metrics = canonical_data(first.data)
        record.digests = {"report": payload_digest(record.metrics)}
        record.snapshots = dict(first.snapshots)
        return record
    for seed, level, result in grid:
        record.cells.append(CellResult(
            seed=seed,
            level=level,
            digest=payload_digest(result.data),
            metrics=result.data,
        ))
        for key, snapshot in result.snapshots.items():
            record.snapshots[f"{key}:s{seed}-n{level}"] = snapshot
    record.level_grid = record.levels_present()
    record.metrics = {
        "cells": len(record.cells),
        "ops_completed": sum(
            float(c.metrics["ops_completed"]) for c in record.cells
        ),
        "errors": sum(float(c.metrics["errors"]) for c in record.cells),
    }
    return record


def ingest(
    store: CatalogStore, results_by_seed: Dict[int, Dict[Optional[int], Any]]
) -> str:
    """Catalog :func:`run_record` of ``results_by_seed``; returns the
    run id."""
    return store.put_record(run_record(results_by_seed))


def ops_record(
    name: str,
    registry_snapshot: Dict[str, Any],
    tracer_snapshot: Optional[Dict[str, Any]] = None,
    spec: Optional[Dict[str, Any]] = None,
) -> RunRecord:
    """Build a record from a live monitoring registry snapshot (the
    ops-dashboard example path: gauges/counters/tallies become a
    durable artifact instead of a one-shot print)."""
    spec_doc = spec or {"source": name}
    snapshots: Dict[str, Any] = {"registry": registry_snapshot}
    if tracer_snapshot is not None:
        snapshots["tracer"] = tracer_snapshot
    return RunRecord(
        run_id="",
        kind="ops",
        name=name,
        config_hash=config_hash(spec_doc),
        spec=spec_doc,
        metrics=dict(registry_snapshot.get("values", {})),
        snapshots=snapshots,
    )


__all__ = [
    "ingest",
    "ops_record",
    "run_record",
]
