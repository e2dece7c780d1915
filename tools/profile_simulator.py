#!/usr/bin/env python
"""Profile the simulator's hot paths (the optimization-workflow loop).

Runs a workload under cProfile and prints the top functions by
cumulative time, or, with ``--sampled``, under a statistical profiler
that prints shares of CPU time by function and by line.  Use this before
attempting any kernel optimization: the bottleneck is usually not where
you think.

Prefer ``--sampled`` for the flow network and the kernel.  cProfile pays
its hook on every Python call and return, so code made of many small
calls reads heavier than it is: it inflates the call-heavy network code
2.7x (the network benchmark's pooled TCP deployments took 16.1 s under
cProfile against 6.1 s plain, on a 2-vCPU VM), and its per-function
splits shift with that overhead.  The sampled mode instead arms a
``SIGPROF`` timer on CPU time and charges each tick to the innermost
frame of a ``repro`` module on the interrupted stack, so numpy and the
standard library count towards the ``repro`` line that called them.
Its cost is one handler call per tick.

By default the workload is one of the benchmark's (``--workload``,
``fig2-table`` unless named): the tool loads ``perfbench/workloads.py``
read-only, runs the workload's set-up outside the profile and profiles
only its timed call, so a profile covers exactly what ``run_s``
measures.  With ``--sampled`` it also prints each ``repro`` package's
share of the ticks (``storage``, ``simcore``, ``service``, ...), the
sampled counterpart of the benchmark's traced layer split, without the
wrappers' overhead.  Pass ``--experiment`` to profile a registered
experiment instead -- always run in-process (jobs=1) so the profile
sees the simulation, not the process pool.

Usage:
    python tools/profile_simulator.py [--top 20]
    python tools/profile_simulator.py --workload campaign-month --sampled
    python tools/profile_simulator.py --experiment fig2 --scale 0.25
    python tools/profile_simulator.py --experiment fig1 --dump fig1.pstats
    python tools/profile_simulator.py --experiment fig5 --sampled

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
import importlib.util
import pstats
import signal
from collections import Counter
from pathlib import Path
from typing import Callable, Dict, Tuple

#: CPU seconds between SIGPROF ticks (the kernel may round it up to its
#: own tick).
SAMPLE_INTERVAL_S = 0.001
#: The benchmark's workload table, loaded from its file (not imported
#: as a package, and never written).
WORKLOADS_PY = (
    Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
)
DEFAULT_WORKLOAD = "fig2-table"


def benchmark_workloads() -> Dict[str, Callable]:
    """``perfbench/workloads.py``'s ``WORKLOADS``: name -> ``prepare(seed,
    scale)`` returning the timed call."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", WORKLOADS_PY
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.WORKLOADS


def experiment_workload(experiment_id: str, scale: float, seed: int):
    from repro.experiments.registry import run_experiment

    def run() -> None:
        # jobs=1: cProfile cannot see into worker processes.
        run_experiment(experiment_id, scale=scale, seed=seed, jobs=1)

    return run


def sampled_profile(
    workload: Callable[[], None], interval: float = SAMPLE_INTERVAL_S
) -> Tuple[int, Counter, Counter]:
    """Run ``workload`` under a SIGPROF sampler.

    Returns the tick count and two counters of ticks: by ``(module,
    function)`` and by ``(module, function, line)``, each tick charged
    to the innermost ``repro`` frame (``("-", "outside repro")`` when
    no such frame is on the stack).
    """
    by_func: Counter = Counter()
    by_line: Counter = Counter()

    def on_tick(_signum, frame) -> None:
        while frame is not None:
            module = frame.f_globals.get("__name__", "")
            if module.startswith("repro.") or module == "repro":
                code = frame.f_code
                # co_qualname is new in Python 3.11.
                name = getattr(code, "co_qualname", code.co_name)
                by_func[module, name] += 1
                by_line[module, name, frame.f_lineno] += 1
                return
            frame = frame.f_back
        by_func["-", "outside repro"] += 1
        by_line["-", "outside repro", 0] += 1

    previous = signal.signal(signal.SIGPROF, on_tick)
    signal.setitimer(signal.ITIMER_PROF, interval, interval)
    try:
        workload()
    finally:
        signal.setitimer(signal.ITIMER_PROF, 0.0, 0.0)
        signal.signal(signal.SIGPROF, previous)
    return sum(by_func.values()), by_func, by_line


def package_shares(by_func: Counter) -> Counter:
    """Ticks by ``repro`` package (``repro.storage.table`` counts as
    ``storage``; ticks outside ``repro`` as ``-``)."""
    by_package: Counter = Counter()
    for (module, _name), n in by_func.items():
        parts = module.split(".")
        by_package[parts[1] if len(parts) > 1 else parts[0]] += n
    return by_package


def print_sampled(ticks: int, by_func: Counter, by_line: Counter,
                  top: int) -> None:
    print(f"{ticks} ticks")
    if not ticks:
        return
    print(f"\n{'share':>7}  {'ticks':>6}  package")
    for package, n in package_shares(by_func).most_common():
        print(f"{n / ticks:7.1%}  {n:6d}  {package}")
    print(f"\n{'share':>7}  {'ticks':>6}  function")
    for (module, name), n in by_func.most_common(top):
        print(f"{n / ticks:7.1%}  {n:6d}  {module}.{name}")
    print(f"\n{'share':>7}  {'ticks':>6}  line")
    for (module, name, line), n in by_line.most_common(top):
        # A frame between lines (entering a call) has no line number.
        where = "?" if line is None else line
        print(f"{n / ticks:7.1%}  {n:6d}  {module}:{where} ({name})")


def main() -> int:
    from repro.experiments.registry import EXPERIMENTS

    parser = argparse.ArgumentParser(
        description="profile the simulator's hot paths"
    )
    parser.add_argument("--top", type=int, default=20,
                        help="rows of the profile to print")
    workloads = benchmark_workloads()
    target = parser.add_mutually_exclusive_group()
    target.add_argument(
        "--workload", choices=sorted(workloads), default=DEFAULT_WORKLOAD,
        help="profile this benchmark workload's timed call, after its "
             "set-up (default: %(default)s)",
    )
    target.add_argument(
        "--experiment", choices=sorted(EXPERIMENTS), default=None,
        help="profile a registered experiment instead of a benchmark "
             "workload",
    )
    parser.add_argument(
        "--scale", type=float, default=None,
        help="experiment scale (default 0.1), or the workload's size "
             "factor (default 1.0, the benchmark's own size)",
    )
    parser.add_argument("--seed", type=int, default=3)
    parser.add_argument(
        "--dump", metavar="FILE", default=None,
        help="also write raw pstats data for snakeviz/pstats browsing",
    )
    parser.add_argument(
        "--sampled", action="store_true",
        help="SIGPROF sampling instead of cProfile: shares of CPU ticks "
             "by innermost repro function and line",
    )
    args = parser.parse_args()
    if args.sampled and args.dump:
        parser.error("--dump writes cProfile data; drop --sampled")

    if args.experiment:
        scale = 0.1 if args.scale is None else args.scale
        workload = experiment_workload(args.experiment, scale, args.seed)
    else:
        scale = 1.0 if args.scale is None else args.scale
        workload = workloads[args.workload](args.seed, scale)

    if args.sampled:
        print_sampled(*sampled_profile(workload), args.top)
        return 0

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
