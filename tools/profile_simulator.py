#!/usr/bin/env python
"""Profile the simulator's hot paths (the optimization-workflow loop).

Runs a workload under cProfile and prints the top functions by
cumulative time.  Use this before attempting any kernel optimization:
the bottleneck is usually not where you think.

By default the workload is a representative slice of the heaviest
experiment (the table benchmark at high concurrency).  Pass
``--experiment`` to profile a registered experiment instead -- always
run in-process (jobs=1) so the profile sees the simulation, not the
process pool.

Usage:
    python tools/profile_simulator.py [--top 20]
    python tools/profile_simulator.py --experiment fig2 --scale 0.25
    python tools/profile_simulator.py --experiment fig1 --dump fig1.pstats

The optimization loop this belongs to:
    1. profile here, find the hot frames,
    2. optimize,
    3. re-check determinism (pytest tests/test_parallel.py) and
       throughput (``python3 perfbench/run.py`` end to end and by
       layer, ``python tools/perf_ab.py BASE`` against the base).
"""

from __future__ import annotations

import argparse
import cProfile
import pstats


def table_slice_workload() -> None:
    """The default: the table bench at high concurrency (hottest path)."""
    from repro.workloads.table_bench import run_table_test

    run_table_test(
        64,
        entity_kb=4.0,
        ops_per_client={"insert": 50, "query": 50, "update": 20,
                        "delete": 50},
        seed=1,
    )


def experiment_workload(experiment_id: str, scale: float, seed: int):
    from repro.experiments.registry import run_experiment

    def run() -> None:
        # jobs=1: cProfile cannot see into worker processes.
        run_experiment(experiment_id, scale=scale, seed=seed, jobs=1)

    return run


def main() -> int:
    from repro.experiments.registry import EXPERIMENTS

    parser = argparse.ArgumentParser(
        description="cProfile the simulator's hot paths"
    )
    parser.add_argument("--top", type=int, default=20,
                        help="rows of the profile to print")
    parser.add_argument(
        "--experiment", choices=sorted(EXPERIMENTS), default=None,
        help="profile a registered experiment instead of the default "
             "table-bench slice",
    )
    parser.add_argument("--scale", type=float, default=0.1,
                        help="experiment scale (with --experiment)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument(
        "--dump", metavar="FILE", default=None,
        help="also write raw pstats data for snakeviz/pstats browsing",
    )
    args = parser.parse_args()

    if args.experiment:
        workload = experiment_workload(args.experiment, args.scale,
                                       args.seed)
    else:
        workload = table_slice_workload

    profiler = cProfile.Profile()
    profiler.enable()
    workload()
    profiler.disable()

    stats = pstats.Stats(profiler)
    stats.sort_stats("cumulative")
    stats.print_stats(args.top)
    if args.dump:
        stats.dump_stats(args.dump)
        print(f"raw pstats written to {args.dump}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
