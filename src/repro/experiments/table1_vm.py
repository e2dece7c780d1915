"""Table 1: VM deployment phase times by role and size, plus the
Section 4.1 observations (1)-(6)."""

from __future__ import annotations

from typing import Optional

from repro import calibration as cal
from repro.analysis import ShapeCheck, ascii_table
from repro.experiments.report import ExperimentReport
from repro.workloads.vm_bench import run_vm_campaign

TITLE = "Worker/web role VM request time per lifecycle phase"

PHASES = ("create", "run", "add", "suspend", "delete")


def run(scale: float, seed: int, jobs: Optional[int]) -> ExperimentReport:
    """Reproduce Table 1; ``scale`` multiplies the 431-run campaign;
    ``jobs`` fans lifecycle attempts across worker processes."""
    runs = max(int(cal.VM_CAMPAIGN_RUNS * scale), 48)
    campaign = run_vm_campaign(runs=runs, seed=seed, jobs=jobs)

    rows = []
    for role in ("worker", "web"):
        for size in ("small", "medium", "large", "extralarge"):
            means, stds = [], []
            for phase in PHASES:
                mean, std, n = campaign.cell(role, size, phase)
                means.append(None if n == 0 else mean)
                stds.append(None if n == 0 else std)
            rows.append([role, size, "AVG"] + means)
            rows.append(["", "", "STD"] + stds)
    body = ascii_table(
        ["role", "size", "stat"] + list(PHASES),
        rows,
        title=f"({len(campaign.records)} successful runs, "
              f"{campaign.failed_runs} startup failures)",
    )

    checks = ShapeCheck()
    # Every AVG cell within tolerance of the paper's anchor.
    for (role, size), anchors in cal.VM_PHASE_ANCHORS.items():
        for phase in ("create", "run", "suspend"):
            paper_mean, _ = anchors[phase]
            measured, _, n = campaign.cell(role, size, phase)
            if n >= 5:
                # Sampling error of a cell mean shrinks with its run
                # count; reduced --scale campaigns get wider bands.
                rel_tol = 0.25 if paper_mean < 60 else 0.15
                if n < 15:
                    rel_tol += 0.15
                checks.check_within(
                    f"{role}/{size} {phase} mean ~{paper_mean}s",
                    measured, paper_mean, rel_tol=rel_tol,
                )
    # Observation (1): web roles start 20-60 s slower; larger sizes slower.
    web_small, _, _ = campaign.cell("web", "small", "run")
    worker_small, _, _ = campaign.cell("worker", "small", "run")
    checks.check(
        "web roles start 20-60 s slower than worker roles (obs. 1)",
        15 <= web_small - worker_small <= 110,
        f"delta {web_small - worker_small:.0f}s",
    )
    worker_xl, _, _ = campaign.cell("worker", "extralarge", "run")
    checks.check(
        "larger VMs take longer to start (obs. 1)",
        worker_xl > worker_small + 150,
        f"xl {worker_xl:.0f}s vs small {worker_small:.0f}s",
    )
    # Observation (2): ~9/10 min startup percentiles.
    p85 = campaign.percentile_first_ready("worker", "small", 85)
    p95 = campaign.percentile_first_ready("worker", "small", 95)
    checks.check(
        "85% of small worker roles ready within ~9 min (obs. 2)",
        p85 <= 9.6 * 60, f"p85 = {p85 / 60:.1f} min",
    )
    checks.check(
        "95% of small worker roles ready within ~10 min (obs. 2)",
        p95 <= 10.7 * 60, f"p95 = {p95 / 60:.1f} min",
    )
    # Observation (3): ~4 min lag from 1st to 4th small instance.
    lag = campaign.mean_first_to_last_lag("worker", "small")
    checks.check_within(
        "~4 min lag from 1st to 4th small instance (obs. 3)",
        lag, 240.0, rel_tol=0.30,
    )
    # Observation (4): adding instances is slower than the initial run.
    add_mean, _, add_n = campaign.cell("worker", "small", "add")
    run_mean, _, _ = campaign.cell("worker", "small", "run")
    if add_n >= 5:
        checks.check(
            "adding instances slower than initial run (obs. 4)",
            add_mean > run_mean * 1.3,
            f"add {add_mean:.0f}s vs run {run_mean:.0f}s",
        )
    # Observation (6): deletion ~6 s across the board.
    delete_means = [
        campaign.cell(role, size, "delete")[0]
        for role in ("worker", "web")
        for size in ("small", "medium", "large", "extralarge")
        if campaign.cell(role, size, "delete")[2] >= 3
    ]
    checks.check(
        "deployment deletion consistently ~6 s (obs. 6)",
        all(2.0 <= m <= 12.0 for m in delete_means),
        f"delete means: {[f'{m:.1f}' for m in delete_means]}",
    )
    # Startup failure rate ~2.6% (Sec. 4.1).
    checks.check(
        "startup failure rate ~2.6% (Sec. 4.1)",
        0.005 <= campaign.failure_rate <= 0.06,
        f"measured {campaign.failure_rate:.1%} over "
        f"{campaign.total_attempts} attempts",
    )
    # XL deployments cannot double under the 20-core cap -> N/A.
    _, _, xl_add_n = campaign.cell("worker", "extralarge", "add")
    checks.check(
        "extra-large Add is N/A (20-core limit, Table 1)",
        xl_add_n == 0, f"{xl_add_n} XL add samples",
    )

    return ExperimentReport(
        experiment_id="table1",
        title=TITLE,
        body=body,
        checks=checks,
        data={
            "cells": {
                f"{role}/{size}/{phase}": campaign.cell(role, size, phase)
                for role in ("worker", "web")
                for size in ("small", "medium", "large", "extralarge")
                for phase in PHASES
            },
            "failure_rate": campaign.failure_rate,
        },
    )
