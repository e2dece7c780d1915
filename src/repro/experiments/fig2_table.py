"""Fig. 2: per-client table throughput vs concurrency (plus the 64 kB
timeout and Section 6.1 property-filter sub-experiments)."""

from __future__ import annotations

from typing import Dict, Optional

from repro import calibration as cal
from repro.analysis import ShapeCheck, ascii_table
from repro.experiments.report import ExperimentReport
from repro.parallel import run_trials
from repro.workloads.table_bench import (
    PHASES,
    run_property_filter_test,
    run_table_test,
    sweep_table,
)

TITLE = "Table Insert/Query/Update/Delete throughput vs concurrency"


def _scaled_ops(scale: float) -> Dict[str, int]:
    # The floor of 20 keeps per-client rate estimates stable enough for
    # the monotonicity checks even at tiny --scale values.
    return {
        phase: max(int(count * scale), 20)
        for phase, count in cal.TABLE_OPS_PER_CLIENT.items()
    }


def run(scale: float, seed: int, jobs: Optional[int]) -> ExperimentReport:
    """Reproduce Fig. 2 at 4 kB entities; ``scale`` multiplies the
    per-client op counts (1.0 = the paper's 500/500/100/500); ``jobs``
    fans independent trials across worker processes."""
    ops = _scaled_ops(scale)
    levels = cal.CONCURRENCY_LEVELS
    results = sweep_table(levels=levels, entity_kb=4.0,
                          ops_per_client=ops, seed=seed, jobs=jobs)

    rows = []
    for n in levels:
        r = results[n]
        rows.append(
            [n] + [r.mean_client_ops(ph) for ph in PHASES]
            + [r.aggregate_ops(ph) for ph in PHASES]
        )
    body = ascii_table(
        ["clients",
         "ins ops/s/cl", "qry ops/s/cl", "upd ops/s/cl", "del ops/s/cl",
         "ins agg", "qry agg", "upd agg", "del agg"],
        rows,
        title=f"(4 kB entities, ops/client: {ops})",
    )

    checks = ShapeCheck()
    for phase in PHASES:
        checks.check_monotone(
            f"{phase}: per-client throughput declines with concurrency",
            [results[n].mean_client_ops(phase) for n in levels],
            # Slack absorbs sampling noise between adjacent levels at
            # reduced --scale; the end-to-end decline is checked below.
            decreasing=True, slack=0.25,
        )
    for phase, ceiling in (
        ("insert", 0.45), ("query", 0.45), ("update", 0.10), ("delete", 0.45),
    ):
        checks.check(
            f"{phase}: 192 clients see <{ceiling:.0%} of a single "
            "client's rate",
            results[192].mean_client_ops(phase)
            < ceiling * results[1].mean_client_ops(phase),
            f"{results[192].mean_client_ops(phase):.1f} vs "
            f"{results[1].mean_client_ops(phase):.1f} ops/s",
        )
    # Update saturates by ~8 clients (Sec. 3.2): 24x more clients buy
    # essentially no extra server throughput (tolerance covers warm-up
    # noise at reduced --scale; at scale=1 the ratio is ~1.0).
    checks.check(
        "update server throughput saturates by 8 clients",
        results[192].aggregate_ops("update")
        <= results[8].aggregate_ops("update") * 1.35,
        f"agg(8)={results[8].aggregate_ops('update'):.0f}, "
        f"agg(192)={results[192].aggregate_ops('update'):.0f}",
    )
    # Delete reaches its max at ~128 (Sec. 3.2).
    checks.check(
        "delete server throughput saturates at ~128 clients",
        results[192].aggregate_ops("delete")
        <= results[128].aggregate_ops("delete") * 1.08
        and results[128].aggregate_ops("delete")
        > results[64].aggregate_ops("delete") * 1.1,
        f"agg(64/128/192)="
        f"{results[64].aggregate_ops('delete'):.0f}/"
        f"{results[128].aggregate_ops('delete'):.0f}/"
        f"{results[192].aggregate_ops('delete'):.0f}",
    )
    # Insert and Query do not hit their server max by 192 (Sec. 3.2).
    for phase in ("insert", "query"):
        checks.check(
            f"{phase} server throughput still rising at 192 clients",
            results[192].aggregate_ops(phase)
            > results[128].aggregate_ops(phase) * 1.05,
            f"agg(128)={results[128].aggregate_ops(phase):.0f}, "
            f"agg(192)={results[192].aggregate_ops(phase):.0f}",
        )
    checks.check(
        "update collapses hardest under concurrency",
        results[192].mean_client_ops("update")
        < 0.25 * min(
            results[192].mean_client_ops(p)
            for p in ("insert", "query", "delete")
        ),
        f"update {results[192].mean_client_ops('update'):.2f} ops/s/client",
    )

    # Entity-size similarity (Sec. 3.2: "the shape of the performance
    # curves for different entity sizes are similar", bar the 64 kB
    # timeout exceptions checked below).
    ent_ops = {"insert": ops["insert"], "query": 1, "update": 1, "delete": 1}
    small_ent, mid_ent = run_trials(
        run_table_test,
        [(32, 1.0, ent_ops, seed + 501), (32, 16.0, ent_ops, seed + 502)],
        jobs=jobs,
    )
    ent_ratio = (
        mid_ent.mean_client_ops("insert") / small_ent.mean_client_ops("insert")
    )
    checks.check(
        "1 kB and 16 kB inserts behave alike (Sec. 3.2)",
        0.75 <= ent_ratio <= 1.1,
        f"16kB/1kB insert throughput ratio {ent_ratio:.3f} at 32 clients",
    )

    # -- 64 kB sub-experiment: server-side timeouts at high concurrency.
    big_ops = {"insert": max(int(500 * scale), 25), "query": 1,
               "update": 1, "delete": 1}
    big_levels = (64, 128, 192)
    big: Dict[int, int] = {
        n: r.failed_clients("insert")
        for n, r in zip(big_levels, run_trials(
            run_table_test,
            [(n, 64.0, big_ops, seed + n) for n in big_levels],
            jobs=jobs,
        ))
    }
    checks.check(
        "64 kB inserts: no timeouts at 64 clients (Sec. 3.2)",
        big[64] == 0, f"{big[64]} failed clients",
    )
    checks.check(
        "64 kB inserts: timeouts appear at 128 clients (paper: 34 of 128)",
        big[128] > 0, f"{big[128]} failed clients",
    )
    checks.check(
        "64 kB inserts: more timeouts at 192 (paper: 103 of 192)",
        big[192] > big[128], f"{big[192]} vs {big[128]} failed clients",
    )

    # -- Section 6.1 property-filter experiment.
    pf = run_property_filter_test(n_clients=32, seed=seed + 7)
    checks.check(
        "property filter: over half of 32 clients time out (Sec. 6.1)",
        pf.timed_out_clients > 16,
        f"{pf.timed_out_clients} of 32 timed out",
    )

    body += (
        f"\n\n64 kB insert failed clients: 64->{big[64]}, 128->{big[128]},"
        f" 192->{big[192]}"
        f"\nProperty-filter (220k entities, 32 clients):"
        f" {pf.timed_out_clients} timeouts / {pf.succeeded_clients} ok"
    )

    return ExperimentReport(
        experiment_id="fig2",
        title=TITLE,
        body=body,
        checks=checks,
        data={
            "per_client": {
                n: {ph: results[n].mean_client_ops(ph) for ph in PHASES}
                for n in levels
            },
            "aggregate": {
                n: {ph: results[n].aggregate_ops(ph) for ph in PHASES}
                for n in levels
            },
            "big_entity_failures": big,
            "property_filter_timeouts": pf.timed_out_clients,
        },
    )
