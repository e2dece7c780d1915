"""Log analysis: Table 2 and Fig. 7 from the execution records."""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.modis.app import ModisRunResult
from repro.modis.tasks import TaskKind, TaskOutcome
from repro.simcore import TimeSeries


def task_breakdown(result: ModisRunResult) -> Dict[TaskKind, Tuple[int, float]]:
    """Execution count and percentage by task kind (Table 2, top half)."""
    counts = {kind: 0 for kind in TaskKind}
    for record in result.records:
        counts[record.kind] += 1
    total = max(result.total_executions, 1)
    return {kind: (n, 100.0 * n / total) for kind, n in counts.items()}


def failure_breakdown(
    result: ModisRunResult,
) -> Dict[TaskOutcome, Tuple[int, float]]:
    """Execution count and percentage by outcome (Table 2, bottom half)."""
    counts: Dict[TaskOutcome, int] = {}
    for record in result.records:
        counts[record.outcome] = counts.get(record.outcome, 0) + 1
    total = max(result.total_executions, 1)
    return {
        outcome: (n, 100.0 * n / total)
        for outcome, n in sorted(
            counts.items(), key=lambda item: -item[1]
        )
    }


def outcome_rate(result: ModisRunResult, outcome: TaskOutcome) -> float:
    """Fraction of all executions with the given outcome."""
    n = sum(1 for r in result.records if r.outcome is outcome)
    return n / max(result.total_executions, 1)


def daily_timeout_series(result: ModisRunResult) -> TimeSeries:
    """Percent of each day's executions killed as VM timeouts (Fig. 7)."""
    per_day_total: Dict[int, int] = {}
    per_day_timeout: Dict[int, int] = {}
    for record in result.records:
        day = record.day
        per_day_total[day] = per_day_total.get(day, 0) + 1
        if record.outcome is TaskOutcome.VM_EXECUTION_TIMEOUT:
            per_day_timeout[day] = per_day_timeout.get(day, 0) + 1
    series = TimeSeries("daily_vm_timeout_pct")
    for day in range(result.campaign_days):
        total = per_day_total.get(day, 0)
        if total == 0:
            series.record(day, 0.0)
        else:
            series.record(
                day, 100.0 * per_day_timeout.get(day, 0) / total
            )
    return series


def retry_statistics(result: ModisRunResult) -> Dict[str, float]:
    """Distinct-task retry profile (executions per task, by kind)."""
    attempts: Dict[TaskKind, List[int]] = {kind: [] for kind in TaskKind}
    for task in result.tasks:
        if task.attempts > 0:
            attempts[task.kind].append(task.attempts)
    out: Dict[str, float] = {}
    for kind, values in attempts.items():
        if values:
            out[kind.value] = sum(values) / len(values)
    return out


def slowdown_cost_estimate(result: ModisRunResult) -> float:
    """Wasted compute seconds spent in executions that were killed."""
    return sum(
        record.duration_s
        for record in result.records
        if record.outcome is TaskOutcome.VM_EXECUTION_TIMEOUT
    )
