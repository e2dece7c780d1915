"""Adapters from the run drivers into catalog records.

Each driver's ``--catalog`` path lands here: a scenario run or seed ×
level sweep, a campaign report or a bench snapshot is folded into one
:class:`~repro.artifacts.records.RunRecord` — spec document, config
hash, per-cell summaries with bit-precision digests, and the serialized
tracer/histogram snapshots the dashboard reads — then written through
the store's simulated blob service.

Cataloging is strictly post-hoc observation: every adapter consumes
finished results (or runs the stock drivers unmodified) and touches
only the store's private platform, so a catalogued run is bit-identical
to an uncatalogued one.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence

from repro.artifacts.records import (
    CellResult,
    RunRecord,
    config_hash,
    payload_digest,
)
from repro.artifacts.store import CatalogStore


def scenario_record(
    spec: Any,
    results_by_seed: Dict[int, Dict[int, Any]],
    mode: str = "auto",
) -> RunRecord:
    """Build a sweep record from ``{seed: {level: ScenarioRunResult}}``."""
    from repro.scenarios import scenario_to_dict

    spec_doc = scenario_to_dict(spec)
    seeds = sorted(results_by_seed)
    levels = sorted({
        level for runs in results_by_seed.values() for level in runs
    })
    cells: List[CellResult] = []
    snapshots: Dict[str, Any] = {}
    for seed in seeds:
        for level, result in sorted(results_by_seed[seed].items()):
            summary = result.summary()
            cells.append(
                CellResult(
                    seed=seed,
                    level=level,
                    digest=payload_digest(summary),
                    metrics=summary,
                )
            )
            tracer_snapshot = getattr(result, "tracer_snapshot", None)
            if tracer_snapshot is not None:
                snapshots[f"tracer:s{seed}-n{level}"] = tracer_snapshot
    total_ops = sum(float(c.metrics["ops_completed"]) for c in cells)
    total_errors = sum(float(c.metrics["errors"]) for c in cells)
    return RunRecord(
        run_id="",
        kind="scenario",
        name=spec.name,
        config_hash=config_hash(spec_doc),
        spec=spec_doc,
        seed_grid=seeds,
        level_grid=levels,
        cells=cells,
        metrics={
            "mode": mode,
            "cells": len(cells),
            "ops_completed": total_ops,
            "errors": total_errors,
        },
        snapshots=snapshots,
    )


def run_scenario_sweep(
    spec: Any,
    levels: Optional[Sequence[int]] = None,
    seeds: Optional[Sequence[int]] = None,
    mode: str = "auto",
    jobs: Optional[int] = 1,
) -> RunRecord:
    """Run the declared seed × level grid through the stock driver and
    fold it into one record (the ``repro scenario run --seeds --catalog``
    path)."""
    from repro.scenarios import sweep_scenario

    seed_grid = list(seeds) if seeds else [spec.default_seed]
    results_by_seed = {
        seed: sweep_scenario(
            spec, levels=levels, seed=seed, mode=mode, jobs=jobs
        )
        for seed in seed_grid
    }
    return scenario_record(spec, results_by_seed, mode=mode)


def ingest_scenario_run(
    store: CatalogStore,
    spec: Any,
    result: Any,
    mode: str = "auto",
) -> str:
    """Catalog one single-level scenario run."""
    record = scenario_record(
        spec, {result.seed: {result.n_clients: result}}, mode=mode
    )
    return store.put_record(record)


def campaign_record(spec: Any, report: Any) -> RunRecord:
    """Build a record from a campaign spec + report (cells become the
    metrics document; the SLO blocks ride along as snapshots).  The
    driver settings join the spec document, so an event-level and a
    fast-forwarded run of one spec get different config hashes."""
    spec_doc = {
        **spec.to_dict(),
        "fast": report.fast,
        "guard_band_s": report.guard_band_s,
    }
    report_doc = report.to_dict()
    return RunRecord(
        run_id="",
        kind="campaign",
        name=spec.name,
        config_hash=config_hash(spec_doc),
        spec=spec_doc,
        seed_grid=[spec.seed],
        metrics=report_doc,
        snapshots={
            f"slo:{mode}": doc.get("slo", {})
            for mode, doc in report_doc.get("modes", {}).items()
        },
        digests={"report": payload_digest(report_doc)},
    )


def ingest_campaign(store: CatalogStore, spec: Any, report: Any) -> str:
    return store.put_record(campaign_record(spec, report))


def bench_record(snapshot: Dict[str, Any]) -> RunRecord:
    """Build a record from a ``repro bench`` perf snapshot — making
    BENCH_KERNEL.json one view of the general artifact mechanism."""
    spec_doc = {
        "scale": snapshot.get("scale"),
        "seed": snapshot.get("seed"),
        "jobs": snapshot.get("jobs"),
    }
    return RunRecord(
        run_id="",
        kind="bench",
        name="kernel",
        config_hash=config_hash(spec_doc),
        spec=spec_doc,
        metrics=snapshot,
        digests={"snapshot": payload_digest(snapshot)},
    )


def ingest_bench(store: CatalogStore, snapshot: Dict[str, Any]) -> str:
    return store.put_record(bench_record(snapshot))


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
    "bench_record",
    "campaign_record",
    "ingest_bench",
    "ingest_campaign",
    "ingest_scenario_run",
    "ops_record",
    "run_scenario_sweep",
    "scenario_record",
]
