"""Table 2: ModisAzure task breakdown and selected failure types."""

from __future__ import annotations

from typing import Optional

from repro.analysis import ShapeCheck, ascii_table
from repro.experiments.report import ExperimentReport
from repro.modis import ModisAzureApp, ModisConfig
from repro.modis.analysis import failure_breakdown, task_breakdown
from repro.modis.tasks import TaskKind, TaskOutcome

TITLE = "ModisAzure task breakdown and selected failure types"

#: Paper Table 2 percentages for the per-row comparison.
PAPER_TASK_MIX = {
    TaskKind.SOURCE_DOWNLOAD: 4.57,
    TaskKind.AGGREGATION: 0.29,
    TaskKind.REPROJECTION: 55.79,
    TaskKind.REDUCTION: 39.36,
}
PAPER_FAILURES = {
    TaskOutcome.SUCCESS: 65.50,
    TaskOutcome.UNKNOWN_FAILURE: 11.30,
    TaskOutcome.BLOB_ALREADY_EXISTS: 5.98,
    TaskOutcome.UNKNOWN_NULL_LOG: 4.57,
    TaskOutcome.DOWNLOAD_SOURCE_FAILED: 4.10,
    TaskOutcome.CONNECTION_FAILURE: 0.29,
    TaskOutcome.VM_EXECUTION_TIMEOUT: 0.17,
    TaskOutcome.OPERATION_TIMEOUT: 0.14,
    TaskOutcome.CORRUPT_BLOB_READ: 0.10,
    TaskOutcome.SERVER_BUSY: 0.04,
}


def run(scale: float, seed: int, jobs: Optional[int]) -> ExperimentReport:
    """Reproduce Table 2.  ``scale=1`` runs ~150k executions (the paper
    logged 3.05M; Table 2 compares percentages, which are scale-free).

    ``jobs`` is accepted for registry uniformity but unused: the
    campaign is one continuous simulation, not independent trials.
    """
    del jobs
    target = max(int(150_000 * scale), 8_000)
    app = ModisAzureApp(
        ModisConfig(seed=seed, target_executions=target)
    )
    result = app.run()
    tasks = task_breakdown(result)
    failures = failure_breakdown(result)

    rows = [
        [kind.value, n, f"{pct:.2f}", f"{PAPER_TASK_MIX[kind]:.2f}"]
        for kind, (n, pct) in tasks.items()
    ]
    rows.append(["total", result.total_executions, "100.00", "100.00"])
    body = ascii_table(
        ["task classification", "executions", "measured %", "paper %"],
        rows,
        title=f"({result.total_executions} simulated task executions)",
    )
    fail_rows = []
    for outcome, (n, pct) in failures.items():
        paper = PAPER_FAILURES.get(outcome)
        fail_rows.append(
            [outcome.value, n, f"{pct:.3f}",
             f"{paper:.2f}" if paper is not None else "(omitted)"]
        )
    body += "\n\n" + ascii_table(
        ["outcome", "executions", "measured %", "paper %"], fail_rows,
    )

    checks = ShapeCheck()
    for kind, paper_pct in PAPER_TASK_MIX.items():
        _, measured_pct = tasks[kind]
        tolerance = 1.5 if paper_pct > 2 else 0.4
        checks.check(
            f"task mix: {kind.value} ~{paper_pct:.2f}%",
            abs(measured_pct - paper_pct) <= tolerance,
            f"measured {measured_pct:.2f}%",
        )
    failure_pct = {o: pct for o, (_n, pct) in failures.items()}
    for outcome, paper_pct in PAPER_FAILURES.items():
        measured_pct = failure_pct.get(outcome, 0.0)
        if outcome is TaskOutcome.VM_EXECUTION_TIMEOUT:
            ok = 0.04 <= measured_pct <= 0.45
        elif paper_pct >= 1.0:
            ok = abs(measured_pct - paper_pct) <= max(0.2 * paper_pct, 1.0)
        else:
            ok = measured_pct <= paper_pct * 3.5 + 0.05
        checks.check(
            f"failure mix: {outcome.value} ~{paper_pct:.2f}%",
            ok, f"measured {measured_pct:.3f}%",
        )
    checks.check(
        "retries make executions exceed distinct tasks (Sec. 5.2)",
        result.total_executions > len(result.tasks) * 1.05,
        f"{result.total_executions} executions / {len(result.tasks)} tasks",
    )
    checks.check(
        "nearly all tasks eventually complete",
        result.tasks_completed + result.tasks_abandoned
        >= 0.95 * len(result.tasks),
        f"{result.tasks_completed} completed, "
        f"{result.tasks_abandoned} abandoned (user-code bugs)",
    )

    return ExperimentReport(
        experiment_id="table2",
        title=TITLE,
        body=body,
        checks=checks,
        data={
            "task_mix": {k.value: pct for k, (_n, pct) in tasks.items()},
            "failure_mix": {
                o.value: pct for o, (_n, pct) in failures.items()
            },
            "total_executions": result.total_executions,
        },
    )
