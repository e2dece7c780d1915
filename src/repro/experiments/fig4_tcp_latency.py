"""Fig. 4: cumulative histogram of VM-to-VM TCP round-trip latency."""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.analysis import ShapeCheck, format_series
from repro.experiments.report import ExperimentReport
from repro.parallel import run_trials
from repro.workloads.tcp_bench import run_tcp_test

TITLE = "TCP internal-endpoint latency between paired small VMs"


def run(scale: float, seed: int, jobs: Optional[int]) -> ExperimentReport:
    """Reproduce Fig. 4; ``scale`` multiplies the 5,000-ping budget;
    ``jobs`` fans the deployments across worker processes.

    Samples pool over several deployments: which pairs land cross-rack
    is placement luck, and the paper's measurements accumulated over
    many runs.
    """
    deployments = 4
    samples = max(int(5000 * scale) // deployments, 200)
    grids = []
    raw = []
    trials = run_trials(
        run_tcp_test,
        [{"latency_samples": samples, "bandwidth_samples": 10,
          "seed": seed + 31 * i} for i in range(deployments)],
        jobs=jobs,
    )
    for result in trials:
        grids.append(result.latency_ms_grid())
        raw.extend(result.latency_s)
    import numpy as _np

    grid = _np.concatenate(grids)
    result.latency_s = raw  # pooled samples for the fraction helpers
    bins = np.arange(1, 12)
    cumulative = [(grid <= b).mean() for b in bins]
    body = format_series(
        [f"<={b:.0f}ms" for b in bins],
        [100 * c for c in cumulative],
        x_label="latency",
        y_label="cumulative %",
        title=f"({len(grid)} one-byte round trips)",
    )

    checks = ShapeCheck()
    at1 = float((grid <= 1.0).mean())
    at2 = float((grid <= 2.0).mean())
    checks.check(
        "~half of RTTs at 1 ms (Fig. 4)",
        0.35 <= at1 <= 0.62, f"measured {at1:.0%}",
    )
    checks.check(
        "~75% of RTTs at <=2 ms (Fig. 4)",
        0.63 <= at2 <= 0.85, f"measured {at2:.0%}",
    )
    checks.check(
        "latency tail stays within ~10 ms (LAN-like, Sec. 4.2)",
        grid.max() <= 12.0, f"max {grid.max():.0f} ms",
    )
    checks.check(
        "all samples positive and sub-second",
        bool((np.asarray(raw) > 0).all() and max(raw) < 0.5),
    )

    return ExperimentReport(
        experiment_id="fig4",
        title=TITLE,
        body=body,
        checks=checks,
        data={
            "cumulative_by_ms": dict(zip(bins.tolist(), cumulative)),
            "samples": len(grid),
        },
    )
