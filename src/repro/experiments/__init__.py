"""Experiment modules: one per table/figure of the paper.

Each module exposes ``run(scale, seed, jobs) -> ExperimentReport``;
``scale`` shrinks sample counts for quick runs (1.0 = the paper's
protocol).  The run registry (:mod:`repro.experiments.registry`) maps
experiment ids to their runners, beside the scenarios, campaigns and
the hedging drill; the CLI (``python -m repro``) drives them.
"""

from repro.experiments.report import ExperimentReport
from repro.experiments.registry import EXPERIMENTS, get_experiment, run_experiment

__all__ = [
    "EXPERIMENTS",
    "ExperimentReport",
    "get_experiment",
    "run_experiment",
]
