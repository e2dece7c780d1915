"""Fig. 1: average per-client blob bandwidth vs concurrent clients."""

from __future__ import annotations

from typing import Optional

from repro import calibration as cal
from repro.analysis import ShapeCheck, ascii_table
from repro.experiments.report import ExperimentReport
from repro.parallel import run_trials
from repro.workloads.blob_bench import run_blob_test, sweep_blob

TITLE = "Blob download/upload bandwidth vs concurrency"


def run(scale: float, seed: int, jobs: Optional[int]) -> ExperimentReport:
    """Reproduce Fig. 1.  ``scale`` multiplies the 1 GB test blob size;
    ``jobs`` fans independent trials across worker processes."""
    size_mb = max(cal.BLOB_TEST_SIZE_MB * scale, 10.0)
    levels = cal.CONCURRENCY_LEVELS
    downloads = sweep_blob("download", levels=levels, size_mb=size_mb,
                           seed=seed, jobs=jobs)
    uploads = sweep_blob("upload", levels=levels, size_mb=size_mb,
                         seed=seed + 1000, jobs=jobs)

    rows = []
    for n in levels:
        d, u = downloads[n], uploads[n]
        rows.append(
            [n, d.mean_client_mbps, d.aggregate_mbps,
             u.mean_client_mbps, u.aggregate_mbps]
        )
    body = ascii_table(
        ["clients", "dl MB/s/client", "dl aggregate", "up MB/s/client",
         "up aggregate"],
        rows,
        title=f"(test blob: {size_mb:.0f} MB)",
    )

    checks = ShapeCheck()
    checks.check_within(
        "single client download ~13 MB/s (Sec. 6.1 100 Mbit cap)",
        downloads[1].mean_client_mbps, 13.0, rel_tol=0.15,
    )
    checks.check_ratio(
        "32 clients see ~half of 1 client's bandwidth (Sec. 3.1)",
        downloads[32].mean_client_mbps, downloads[1].mean_client_mbps,
        expected_ratio=0.5, rel_tol=0.25,
    )
    peak_agg = max(d.aggregate_mbps for d in downloads.values())
    checks.check_within(
        "peak download aggregate ~393 MB/s (Sec. 3.1)",
        peak_agg, 393.4, rel_tol=0.12,
    )
    peak_at = max(downloads, key=lambda n: downloads[n].aggregate_mbps)
    checks.check(
        "download aggregate peaks at >=128 clients",
        peak_at >= 128, f"peak at {peak_at} clients",
    )
    up_peak = max(u.aggregate_mbps for u in uploads.values())
    checks.check_within(
        "peak upload aggregate ~124 MB/s (Sec. 3.1)",
        up_peak, 124.25, rel_tol=0.10,
    )
    checks.check_within(
        "upload at 64 clients ~1.25 MB/s/client (Sec. 3.1)",
        uploads[64].mean_client_mbps, 1.25, rel_tol=0.30,
    )
    checks.check_within(
        "upload at 192 clients ~0.65 MB/s/client (Sec. 3.1)",
        uploads[192].mean_client_mbps, 0.65, rel_tol=0.30,
    )
    checks.check_ratio(
        "upload is about half of download per client (Fig. 1)",
        uploads[1].mean_client_mbps, downloads[1].mean_client_mbps,
        expected_ratio=0.5, rel_tol=0.35,
    )
    checks.check(
        "1-8 clients are NIC-limited (flat per-client bandwidth)",
        downloads[8].mean_client_mbps >= downloads[1].mean_client_mbps * 0.9,
        f"{downloads[8].mean_client_mbps:.2f} vs {downloads[1].mean_client_mbps:.2f}",
    )
    checks.check_monotone(
        "per-client download declines with concurrency",
        [downloads[n].mean_client_mbps for n in levels],
        decreasing=True, slack=0.05,
    )
    checks.check_monotone(
        "aggregate bandwidth grows with clients up to 128 (Sec. 3.1)",
        [downloads[n].aggregate_mbps for n in levels if n <= 128],
        decreasing=False, slack=0.02,
    )

    # Stability across repeated runs (Sec. 3.1: "the variation in
    # performance is small and the average bandwidth is quite stable
    # across different times during the day, or across different days").
    repeats = [
        r.mean_client_mbps
        for r in run_trials(
            run_blob_test,
            [("download", 32, size_mb, seed + 7000 + i) for i in range(3)],
            jobs=jobs,
        )
    ]
    spread = (max(repeats) - min(repeats)) / (sum(repeats) / len(repeats))
    checks.check(
        "repeated runs are stable (small day-to-day variation, Sec. 3.1)",
        spread <= 0.10,
        f"3-run relative spread {spread:.1%} at 32 clients",
    )

    return ExperimentReport(
        experiment_id="fig1",
        title=TITLE,
        body=body,
        checks=checks,
        data={
            "download": {
                n: (d.mean_client_mbps, d.aggregate_mbps)
                for n, d in downloads.items()
            },
            "upload": {
                n: (u.mean_client_mbps, u.aggregate_mbps)
                for n, u in uploads.items()
            },
        },
    )
