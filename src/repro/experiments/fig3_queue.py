"""Fig. 3: per-client queue throughput vs concurrency (plus the
queue-depth insensitivity claim of Section 3.3)."""

from __future__ import annotations

from typing import Optional

from repro import calibration as cal
from repro.analysis import ShapeCheck, ascii_table
from repro.experiments.report import ExperimentReport
from repro.parallel import run_trials
from repro.workloads.queue_bench import OPERATIONS, run_queue_test, sweep_queue

TITLE = "Queue Add/Peek/Receive throughput vs concurrency"


def run(scale: float, seed: int, jobs: Optional[int]) -> ExperimentReport:
    """Reproduce Fig. 3 at 512-byte messages; ``scale`` multiplies the
    per-client operation count; ``jobs`` fans independent trials across
    worker processes."""
    ops_per_client = max(int(100 * scale), 15)
    levels = cal.CONCURRENCY_LEVELS
    results = {
        op: sweep_queue(op, levels=levels, message_kb=0.5,
                        ops_per_client=ops_per_client, seed=seed, jobs=jobs)
        for op in OPERATIONS
    }

    rows = []
    for n in levels:
        rows.append(
            [n]
            + [results[op][n].mean_client_ops for op in OPERATIONS]
            + [results[op][n].aggregate_ops for op in OPERATIONS]
        )
    body = ascii_table(
        ["clients", "add/cl", "peek/cl", "recv/cl",
         "add agg", "peek agg", "recv agg"],
        rows,
        title=f"(512-byte messages, {ops_per_client} ops/client)",
    )

    checks = ShapeCheck()
    add_peak = max(r.aggregate_ops for r in results["add"].values())
    recv_peak = max(r.aggregate_ops for r in results["receive"].values())
    checks.check_within(
        "Add service-side peak ~569 ops/s (Sec. 3.3)",
        add_peak, 569.0, rel_tol=0.15,
    )
    checks.check_within(
        "Receive service-side peak ~424 ops/s (Sec. 3.3)",
        recv_peak, 424.0, rel_tol=0.15,
    )
    checks.check(
        "Add/Receive peak by 64 clients (Sec. 3.3)",
        results["add"][64].aggregate_ops >= add_peak * 0.9
        and results["receive"][64].aggregate_ops >= recv_peak * 0.9,
        f"add(64)={results['add'][64].aggregate_ops:.0f}, "
        f"recv(64)={results['receive'][64].aggregate_ops:.0f}",
    )
    checks.check(
        "Peek still rising from 128 to 192 clients (Sec. 3.3)",
        results["peek"][192].aggregate_ops
        > results["peek"][128].aggregate_ops * 1.05,
        f"peek agg 128->{results['peek'][128].aggregate_ops:.0f}, "
        f"192->{results['peek'][192].aggregate_ops:.0f}",
    )
    checks.check_within(
        "Peek at 192 clients ~3878 ops/s (Sec. 3.3)",
        results["peek"][192].aggregate_ops, 3878.0, rel_tol=0.25,
    )
    checks.check(
        "Peek is the fastest operation at every level (Sec. 3.3)",
        all(
            results["peek"][n].mean_client_ops
            >= max(results["add"][n].mean_client_ops,
                   results["receive"][n].mean_client_ops)
            for n in levels
        ),
    )
    checks.check(
        "clients keep >10 ops/s through 32 writers (Sec. 6.1)",
        all(results["add"][n].mean_client_ops > 10 for n in (1, 16, 32)),
        f"add(32)={results['add'][32].mean_client_ops:.1f}",
    )
    checks.check(
        "15-20 ops/s per client with <=16 writers (Sec. 6.1)",
        15.0 <= results["add"][16].mean_client_ops <= 21.0,
        f"add(16)={results['add'][16].mean_client_ops:.1f}",
    )
    checks.check(
        "Receive is more affected by concurrency than Add (Sec. 6.1)",
        results["receive"][64].mean_client_ops
        < results["add"][64].mean_client_ops,
        f"recv(64)={results['receive'][64].mean_client_ops:.1f} vs "
        f"add(64)={results['add'][64].mean_client_ops:.1f}",
    )

    # Message-size insensitivity (Sec. 3.3: "the shape of the
    # performance curve for each message size is very similar").
    small_msg, large_msg = run_trials(
        run_queue_test,
        [("add", 32, 0.5, ops_per_client, None, seed + 601),
         ("add", 32, 8.0, ops_per_client, None, seed + 602)],
        jobs=jobs,
    )
    size_ratio = large_msg.mean_client_ops / small_msg.mean_client_ops
    checks.check(
        "512 B and 8 kB messages behave alike (Sec. 3.3)",
        0.8 <= size_ratio <= 1.1,
        f"8kB/512B throughput ratio {size_ratio:.3f} at 32 clients",
    )

    # Queue-depth insensitivity: 200k-message backlog vs 2M (scaled
    # down 10x; the model is O(log n) so depth only stresses the index).
    shallow, deep = run_trials(
        run_queue_test,
        [("receive", 16, 0.5, ops_per_client, 20_000, seed + 501),
         ("receive", 16, 0.5, ops_per_client, 200_000, seed + 502)],
        jobs=jobs,
    )
    ratio = deep.mean_client_ops / shallow.mean_client_ops
    checks.check(
        "queue depth does not affect throughput (Sec. 3.3)",
        0.85 <= ratio <= 1.15,
        f"deep/shallow throughput ratio {ratio:.3f}",
    )
    body += (
        f"\n\nDepth insensitivity: receive at 20k backlog "
        f"{shallow.mean_client_ops:.1f} ops/s/client vs 200k backlog "
        f"{deep.mean_client_ops:.1f}"
    )

    return ExperimentReport(
        experiment_id="fig3",
        title=TITLE,
        body=body,
        checks=checks,
        data={
            op: {
                n: (results[op][n].mean_client_ops,
                    results[op][n].aggregate_ops)
                for n in levels
            }
            for op in OPERATIONS
        },
    )
