#!/usr/bin/env python
"""CI ratio gate: fail on relative kernel-throughput regressions.

Compares a fresh ``repro bench --quick --json`` snapshot against the
committed ``current`` block of ``BENCH_KERNEL.json``.  Absolute rates on
shared CI runners are meaningless (machines differ several-fold), so the
gate normalizes: it takes the per-metric ratio measured/committed, uses
the **median** ratio across all kernel metrics as the machine-speed
estimate, and fails only when a *gated* metric falls more than the
allowed margin below that median — i.e. when it regressed relative to
the other hot paths measured in the same run.

A second, *ratchet* gate compares against a named historical baseline
block: the measured rates are first divided by the machine-speed
estimate (putting them on the committed machine's basis) and then
required to stay at least ``--baseline-floor`` of the baseline's
recorded rates.  That pins the reclaimed kernel throughput — the churn
paths must never again drop below the pre-fair-share baseline, on any
machine.

Multiple snapshots may be given; the gate folds them per-metric with
``max`` (the max-of-rounds comparator used throughout BENCH_KERNEL.json:
the best round approximates the unloaded machine, so two short rounds
de-flake a single noisy one).

Usage::

    python tools/check_bench_ratio.py bench-smoke.json [more.json ...] \
        [--bench BENCH_KERNEL.json] [--margin 0.2] [--gate METRIC ...] \
        [--baseline baseline_pre_incremental_fairshare] \
        [--baseline-floor 0.95] [--baseline-gate METRIC ...]
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

DEFAULT_BENCH = Path(__file__).resolve().parent.parent / "BENCH_KERNEL.json"

#: Metrics gated against the committed ``current`` block (relative to
#: the same-run median): the fair-share churn path, the raw event loop,
#: the scenario driver's closed batched mode and the fast-forwarded
#: month campaign.
DEFAULT_GATES = (
    "flow_churn_flows_per_s",
    "timeout_churn_events_per_s",
    "cohort_churn_clients_per_s",
    "campaign_horizon_cells_per_s",
)

#: The historical block the ratchet gate holds the kernel to.
DEFAULT_BASELINE = "baseline_pre_incremental_fairshare"

#: Metrics the ratchet gates on: the three churn paths the cohort
#: kernel work reclaimed must stay at (or above) the rates recorded
#: before the incremental fair-share allocator landed.
DEFAULT_BASELINE_GATES = (
    "timeout_churn_events_per_s",
    "resource_churn_ops_per_s",
    "race_churn_ops_per_s",
    # Ratcheted from the first baseline_* block that records it (0.95
    # floor); warn-and-skipped against older blocks, which predate the
    # fast-forward driver.
    "campaign_horizon_cells_per_s",
)


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("snapshots", type=Path, nargs="+")
    parser.add_argument("--bench", type=Path, default=DEFAULT_BENCH)
    parser.add_argument(
        "--margin", type=float, default=0.2,
        help="allowed shortfall below the median ratio (0.2 = 20%%)",
    )
    parser.add_argument(
        "--gate", nargs="*", default=list(DEFAULT_GATES), metavar="METRIC",
    )
    parser.add_argument(
        "--baseline", default=DEFAULT_BASELINE, metavar="BLOCK",
        help="historical block for the ratchet gate ('' disables it)",
    )
    parser.add_argument(
        "--baseline-floor", type=float, default=0.95,
        help="required machine-normalized fraction of the baseline rates",
    )
    parser.add_argument(
        "--baseline-gate", nargs="*", default=list(DEFAULT_BASELINE_GATES),
        metavar="METRIC",
    )
    args = parser.parse_args()

    measured: dict = {}
    for snapshot in args.snapshots:
        for key, rate in json.loads(snapshot.read_text())["kernel"].items():
            measured[key] = max(measured.get(key, 0.0), rate)
    trajectory = json.loads(args.bench.read_text())
    committed = trajectory["current"]["kernel"]

    shared = sorted(set(measured) & set(committed))
    if not shared:
        print("no kernel metrics shared with the committed block; skipping")
        return 0
    ratios = {key: measured[key] / committed[key] for key in shared}
    median = statistics.median(ratios.values())
    floor = (1.0 - args.margin) * median

    print(f"machine-speed estimate (median ratio): {median:.3f}")
    print(f"gate floor ({args.margin:.0%} below median): {floor:.3f}\n")
    failed = []
    for key in shared:
        gated = key in args.gate
        verdict = ""
        if gated:
            verdict = "ok" if ratios[key] >= floor else "REGRESSED"
            if verdict == "REGRESSED":
                failed.append(key)
        print(
            f"  {key:32s} {ratios[key]:>7.3f}"
            f"{'  [gate] ' + verdict if gated else ''}"
        )
    missing = [key for key in args.gate if key not in ratios]
    for key in missing:
        print(f"  {key:32s} missing from snapshot or committed block")
    if missing:
        failed.extend(missing)

    baseline_block = trajectory.get(args.baseline) if args.baseline else None
    if baseline_block:
        baseline = baseline_block.get("kernel") or {}
        print(f"\nratchet vs {args.baseline} "
              f"(machine-normalized, floor {args.baseline_floor:.2f}):")
        for key in args.baseline_gate:
            if not baseline.get(key):
                # A metric added after the baseline block was recorded
                # (e.g. campaign_horizon_cells_per_s) has no historical
                # rate to ratchet against: warn and skip, don't fail.
                print(f"  {key:32s} absent from baseline; skipped")
                continue
            if key not in measured:
                print(f"  {key:32s} missing from snapshot")
                failed.append(key)
                continue
            # measured/median ~ the rate this run would have scored on
            # the machine the committed blocks were recorded on.
            ratchet = (measured[key] / median) / baseline[key]
            verdict = "ok" if ratchet >= args.baseline_floor else "REGRESSED"
            print(f"  {key:32s} {ratchet:>7.3f}  [ratchet] {verdict}")
            if verdict == "REGRESSED":
                failed.append(key)
    elif args.baseline:
        print(f"\nbaseline block {args.baseline!r} not found; "
              "skipping ratchet gate")

    if failed:
        print(f"\nFAIL: {', '.join(failed)}")
        return 1
    print("\nratio gate passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
