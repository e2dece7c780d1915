"""Experiment registry: id -> runner + metadata."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple

from repro.experiments import (
    fig1_blob,
    fig2_table,
    fig3_queue,
    fig4_tcp_latency,
    fig5_tcp_bandwidth,
    fig7_timeouts,
    table1_vm,
    table2_tasks,
)
from repro.experiments.report import ExperimentReport


@dataclass(frozen=True)
class ExperimentSpec:
    experiment_id: str
    title: str
    paper_artifact: str
    runner: Callable[..., ExperimentReport]


EXPERIMENTS: Dict[str, ExperimentSpec] = {
    spec.experiment_id: spec
    for spec in (
        ExperimentSpec("fig1", fig1_blob.TITLE, "Figure 1", fig1_blob.run),
        ExperimentSpec("fig2", fig2_table.TITLE, "Figure 2", fig2_table.run),
        ExperimentSpec("fig3", fig3_queue.TITLE, "Figure 3", fig3_queue.run),
        ExperimentSpec("table1", table1_vm.TITLE, "Table 1", table1_vm.run),
        ExperimentSpec(
            "fig4", fig4_tcp_latency.TITLE, "Figure 4", fig4_tcp_latency.run
        ),
        ExperimentSpec(
            "fig5", fig5_tcp_bandwidth.TITLE, "Figure 5", fig5_tcp_bandwidth.run
        ),
        ExperimentSpec("table2", table2_tasks.TITLE, "Table 2", table2_tasks.run),
        ExperimentSpec("fig7", fig7_timeouts.TITLE, "Figure 7", fig7_timeouts.run),
    )
}


def get_experiment(experiment_id: str) -> ExperimentSpec:
    try:
        return EXPERIMENTS[experiment_id]
    except KeyError:
        raise ValueError(
            f"unknown experiment {experiment_id!r}; "
            f"choose from {sorted(EXPERIMENTS)}"
        ) from None


def run_experiment(
    experiment_id: str,
    scale: float = 1.0,
    seed: int = 0,
    jobs: Optional[int] = 1,
) -> ExperimentReport:
    """Run one experiment.

    ``jobs`` fans the experiment's independent trials across worker
    processes: ``1`` = the in-process serial path, ``None``/``0`` =
    auto (usable cores, capped at 8).  Results are bit-identical for
    any jobs value.
    """
    if scale <= 0:
        raise ValueError("scale must be > 0")
    return get_experiment(experiment_id).runner(
        scale=scale, seed=seed, jobs=jobs
    )


def run_all(
    scale: float = 1.0, seed: int = 0, jobs: Optional[int] = 1
) -> Tuple[ExperimentReport, ...]:
    return tuple(
        run_experiment(eid, scale=scale, seed=seed, jobs=jobs)
        for eid in EXPERIMENTS
    )
