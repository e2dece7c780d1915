#!/usr/bin/env python
"""Regenerate EXPERIMENTS.md from actual experiment runs.

Runs every experiment at the requested scale, captures the rendered
tables/series and the paper-shape check verdicts, and writes the
paper-vs-measured record the repository ships.

Usage:  python tools/record_experiments.py [--scale 0.25] [--seed 3]
"""

from __future__ import annotations

import argparse
import time
from pathlib import Path

from repro.experiments.registry import EXPERIMENTS, run_experiment

HEADER = """\
# EXPERIMENTS — paper vs measured

Generated by ``python tools/record_experiments.py --scale {scale} --seed {seed}``.
Absolute numbers come from the calibrated simulator (see DESIGN.md for
the substitution rationale); the **shape checks** under each experiment
are the reproduction criteria: saturation points, orderings, ratios and
ranges stated in the paper's text.

Interpretation note for Table 1: the paper's Run/Add columns are read as
time-to-first-instance-ready (matching observation (2)'s "average time
to start a ... instance is around 9 min"), with observation (3)'s ~4-min
stagger to the last instance tracked separately; both are checked.

Scale note: ``--scale`` shrinks sample counts (ops per client, campaign
size, pings).  Percent-based results (Table 2, Fig. 7) are
scale-invariant; throughput curves keep their shape at reduced scale
with slightly more sampling noise.

Jobs note: ``repro run --jobs N`` fans each experiment's independent
trials across N worker processes.  Every trial seeds its own
environment, so the numbers below are **identical for any jobs value**;
only wall-clock changes.  The runtime column here is the serial
(``--jobs 1``) time on one core; simulator throughput itself is tracked
in ``BENCH_KERNEL.json`` (kernel churn, ``python -m repro bench``) and
end to end by ``perfbench/run.py``.

Seed note: every entry point (``repro run``, ``repro campaign``,
``repro scenario run``, ``run_experiment``) defaults to seed 3, the seed
of every golden digest and of the verdicts below.  The verdicts are not
all seed-independent.  At seed 0 and full scale, fig5 fails "~15% of
transfers at <=30 MB/s" (33% measured, 4/5 checks; the cross-rack pair
share is 0.25 against seed 3's 0.18), and it fails at seed 5 too.
table1 fails "85% of small worker roles ready within ~9 min" at seed 2
and "startup failure rate ~2.6%" at seed 8.  Seed 0 used to be the
default of ``repro run``, so ``python -m repro run fig5`` showed the fig5
failure; reproduce it now with ``python -m repro run fig5 --seed 0``.
These failures stand until the model is fixed (ROADMAP: "Paper verdicts
that hold across seeds").

Allocator note: the flow network's max-min fair rates are computed
**incrementally** — per-link membership persists and a flow
arrival/completion/abort re-solves only the connected component it
touches (``repro.network.fairshare.FairShareState``).  This cut fig5,
the former wall-clock bottleneck, ~12x (each rack's background
elephants form an independent component, so churn there no longer
re-rates the whole datacenter).  The change is exactly output-neutral:
``tests/experiments/test_golden_outputs.py`` pins every experiment's
result digest byte-for-byte against the pre-swap batch engine, and
``tests/network/test_incremental_fairshare.py`` asserts incremental ==
batch bitwise after every mutation of randomized topologies.

"""

FOOTER = """\

## storm / crash / burst — server-window campaign presets (resilience gate, not a paper figure)

Section 6.3 of the paper is advice, not a figure; the campaign engine
turns it into a reproducible experiment. Recipe:

```bash
python -m repro campaign storm         # 503 storm vs the policy matrix
python -m repro campaign crash         # partition-server crash + restart
python -m repro campaign burst --json out.json   # HTTP-500 burst
python -m repro run drill:hedge        # hedged vs unhedged blob reads
```

The storm preset replays a 30 s, 95% ServerBusy window (t=60 s of a
300 s run) against 24 open-loop table writers, once per policy, same
seed and schedule:

| policy | what it shows |
|---|---|
| no-retry | the raw client-observed fault rate |
| seed-linear | 2009 SDK behaviour: retries land back inside the storm (~3.4x in-window amplification for ~3 pts of availability) |
| jitter-budget | full-jitter exponential + retry budget: retries spread past the window, budget sheds the excess — higher availability *and* lower amplification |
| jitter-budget-breaker | adds the circuit breaker: least server load (fast-fails while open), at an availability cost |

Expected verdicts at seed 3: `jitter-budget` PASSes the SLO
(availability ≥ 0.93, p99 ≤ 60 s, amplification ≤ 1.2); the seed
policy fails on amplification, no-retry on availability. The hedging
drill (`drill:hedge`) cuts p99 1.6x for 23% duplicate work at seed 7,
the seed `tests/resilience/test_drills.py` asserts and
`examples/failure_drill.py` prints; at the default seed 3 the cut is
1.1x for 26%. The storm verdicts are asserted there as
well.
"""


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--scale", type=float, default=0.25)
    parser.add_argument("--seed", type=int, default=3)
    parser.add_argument(
        "--jobs", type=int, default=1,
        help="worker processes per experiment (results are identical; "
             "the runtime column reflects the chosen value)",
    )
    parser.add_argument(
        "--output", type=Path,
        default=Path(__file__).resolve().parent.parent / "EXPERIMENTS.md",
    )
    args = parser.parse_args()

    sections = [HEADER.format(scale=args.scale, seed=args.seed)]
    summary_rows = []
    for eid, spec in EXPERIMENTS.items():
        start = time.time()
        report = run_experiment(
            eid, scale=args.scale, seed=args.seed, jobs=args.jobs
        )
        elapsed = time.time() - start
        n_pass = sum(1 for c in report.checks.results if c.passed)
        n_total = len(report.checks.results)
        summary_rows.append(
            f"| {eid} | {spec.paper_artifact} | {n_pass}/{n_total} "
            f"| {elapsed:.0f}s |"
        )
        sections.append(f"## {eid} — {spec.paper_artifact}: {report.title}\n")
        sections.append("```")
        sections.append(report.body)
        sections.append("```\n")
        sections.append("Checks:\n")
        for check in report.checks.results:
            mark = "x" if check.passed else " "
            sections.append(f"- [{mark}] {check.name} — {check.detail}")
        sections.append("")
        print(f"{eid}: {n_pass}/{n_total} checks passed ({elapsed:.0f}s)")

    summary = (
        "## Summary\n\n"
        "| experiment | paper artifact | shape checks | runtime |\n"
        "|---|---|---|---|\n" + "\n".join(summary_rows) + "\n\n"
        "fig6 (the ModisAzure architecture diagram) is realized as the\n"
        "structure of the `repro.modis` package and exercised by\n"
        "`examples/modis_pipeline.py`.\n"
    )
    sections.insert(1, summary)
    sections.append(FOOTER)
    args.output.write_text("\n".join(sections))
    print(f"wrote {args.output}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
