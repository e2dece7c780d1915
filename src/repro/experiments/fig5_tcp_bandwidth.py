"""Fig. 5: cumulative histogram of VM-to-VM TCP bandwidth (2 GB sends).

Samples pool over several deployments (seeds): which pairs land
cross-rack is placement luck, and the paper's 10,000 measurements were
likewise collected across many runs and days.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.analysis import ShapeCheck, format_series
from repro.experiments.report import ExperimentReport
from repro.parallel import run_trials
from repro.workloads.tcp_bench import run_tcp_test

TITLE = "TCP internal-endpoint bandwidth between paired small VMs"


def run(scale: float, seed: int, jobs: Optional[int]) -> ExperimentReport:
    """Reproduce Fig. 5; ``scale`` multiplies the per-deployment sample
    budget (each sample is a full simulated 2 GB transfer); ``jobs``
    fans the deployments across worker processes."""
    per_deployment = max(int(120 * scale), 30)
    deployments = 6
    bandwidth = []
    cross = total = 0
    trials = run_trials(
        run_tcp_test,
        [{"latency_samples": 10, "bandwidth_samples": per_deployment,
          "seed": seed + 101 * i} for i in range(deployments)],
        jobs=jobs,
    )
    for result in trials:
        bandwidth.extend(result.bandwidth_mbps)
        cross += result.cross_rack_pairs
        total += result.total_pairs
    arr = np.asarray(bandwidth)

    bins = [10, 20, 30, 45, 60, 75, 90, 105, 115, 125]
    cumulative = [float((arr <= b).mean()) for b in bins]
    body = format_series(
        [f"<={b}" for b in bins],
        [100 * c for c in cumulative],
        x_label="MB/s",
        y_label="cumulative %",
        title=(
            f"({arr.size} transfers of 2 GB across {deployments} "
            f"deployments; {cross}/{total} pairs cross-rack)"
        ),
    )

    checks = ShapeCheck()
    median = float(np.median(arr))
    checks.check(
        "50% of transfers reach >=90 MB/s (Fig. 5)",
        median >= 80.0, f"median {median:.0f} MB/s",
    )
    low_tail = float((arr <= 30.0).mean())
    checks.check(
        "~15% of transfers at <=30 MB/s (Fig. 5)",
        0.04 <= low_tail <= 0.30, f"measured {low_tail:.0%}",
    )
    checks.check(
        "bandwidth bounded by GigE (125 MB/s, Sec. 4.2)",
        float(arr.max()) <= 125.5, f"max {arr.max():.1f} MB/s",
    )
    checks.check(
        "bimodal: mass near GigE and a slow minority, little between",
        float(((arr > 30) & (arr < 55)).mean()) <= 0.25,
        f"{((arr > 30) & (arr < 55)).mean():.0%} between 30-55 MB/s",
    )
    checks.check_within(
        "~15% of pairs land cross-rack (placement spillover)",
        cross / max(total, 1), 0.15, rel_tol=0.8,
    )

    return ExperimentReport(
        experiment_id="fig5",
        title=TITLE,
        body=body,
        checks=checks,
        data={
            "median_mbps": median,
            "fraction_le_30": low_tail,
            "cumulative": dict(zip(bins, cumulative)),
            "cross_rack_pairs": cross,
            "total_pairs": total,
        },
    )
