"""Fig. 7: daily percentage of task executions killed as VM timeouts."""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.analysis import ShapeCheck, format_series
from repro.experiments.report import ExperimentReport
from repro.modis import ModisAzureApp, ModisConfig
from repro.modis.analysis import daily_timeout_series, outcome_rate
from repro.modis.tasks import TaskOutcome

TITLE = "Percent of task executions with VM timeout over time"


def run(scale: float, seed: int, jobs: Optional[int]) -> ExperimentReport:
    """Reproduce Fig. 7 over the Feb-Sep 2010 campaign window.

    ``jobs`` is accepted for registry uniformity but unused: the
    campaign is one continuous simulation, not independent trials.
    """
    del jobs
    target = max(int(150_000 * scale), 8_000)
    app = ModisAzureApp(ModisConfig(seed=seed, target_executions=target))
    result = app.run()
    series = daily_timeout_series(result)
    values = series.values

    # Render a weekly-downsampled view (212 daily rows is unwieldy).
    weeks = np.arange(0, len(values), 7)
    weekly_max = [float(values[w:w + 7].max()) for w in weeks]
    body = format_series(
        [f"wk{1 + w // 7}" for w in weeks],
        weekly_max,
        x_label="week",
        y_label="max daily VM-timeout %",
        title=f"({result.total_executions} executions over "
              f"{result.campaign_days} days)",
    )

    checks = ShapeCheck()
    checks.check(
        "daily timeout share ranges up to ~16% (Fig. 7)",
        4.0 <= values.max() <= 25.0,
        f"max day {values.max():.1f}%",
    )
    checks.check(
        "most days are quiet (<1% timeouts)",
        float((values < 1.0).mean()) >= 0.7,
        f"{(values < 1.0).mean():.0%} of days below 1%",
    )
    checks.check(
        "spikes are episodic, not a plateau",
        float((values > 4.0).mean()) <= 0.15,
        f"{(values > 4.0).mean():.0%} of days above 4%",
    )
    overall = outcome_rate(result, TaskOutcome.VM_EXECUTION_TIMEOUT)
    checks.check(
        "campaign aggregate ~0.17% of executions (Table 2)",
        0.0004 <= overall <= 0.0045,
        f"measured {overall:.2%}",
    )
    # Section 5.2's amplification arithmetic: a 16% day costs up to
    # ~48% extra wall-clock (16% x 4 - 16% wasted then redone).
    worst = values.max() / 100.0
    checks.check(
        "worst-day slowdown arithmetic matches Sec. 5.2",
        worst * 4 + (1 - worst) <= 2.0,
        f"worst day implies {(worst * 4 + (1 - worst) - 1):.0%} extra time",
    )

    return ExperimentReport(
        experiment_id="fig7",
        title=TITLE,
        body=body,
        checks=checks,
        data={
            "daily_pct": values.tolist(),
            "max_daily_pct": float(values.max()),
            "overall_rate": overall,
        },
    )
