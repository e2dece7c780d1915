"""One benchmark sample in a fresh process: set up, make the timed call,
digest the outputs and print one JSON line.

    python3 perfbench/worker.py --workload fig2-table --seed 3 [--trace]
    python3 perfbench/worker.py --workload fig2-table --seed 3 --setup-only

``setup_raw_s`` is the process's CPU time when the timed call starts: the
interpreter, importing ``repro`` and numpy, the scenario registry loading
its packs, and building the workload's specs.  ``run_raw_s`` is the CPU
time of the call.  ``setup_s`` and ``run_s`` are the same times at the
reference host speed (see :class:`SpeedProbe`).  ``run.py`` starts this
script with ``repro`` on the path and the BLAS/OpenMP pools pinned to one
thread.  A set-up failure exits non-zero; a failure of the timed call is
reported as ``error``.
"""

from __future__ import annotations

import argparse
import heapq
import json
import resource
import signal
import sys
import time

#: The probe's micro-job runs once per this many seconds of process CPU.
PROBE_INTERVAL_S = 0.01
#: Wall seconds of one micro-job at the reference host speed (its median
#: on the 2-vCPU Xeon VM the benchmark was defined on, at a quiet time).
PROBE_REF_S = 1.2e-4
#: A phase with fewer probe ticks is topped up with explicit ones.
MIN_TICKS = 8


class _Item:
    __slots__ = ("a", "b")

    def __init__(self, a: int) -> None:
        self.a, self.b = a, a + 1

    def step(self, x: int) -> int:
        return self.a + x


class SpeedProbe:
    """Measures the host's speed while this process runs.

    The VM's vCPUs share physical cores with other tenants, and the same
    interpreted code takes up to 1.6x more CPU time while a neighbour is
    busy; the state changes within a second.  Every
    :data:`PROBE_INTERVAL_S` of this process's CPU time (``SIGPROF``) the
    probe runs a fixed micro-job that shares no code or data with
    ``repro`` (small-list arithmetic, dict stores, object allocation and
    a 4k-entry heap: the interpreter-bound mix whose slow-down tracks the
    workloads') and records its wall duration.

    Ticks are spread evenly over the process's CPU time, so the harmonic
    mean of the durations divided by :data:`PROBE_REF_S` is the factor by
    which the host slowed the phase down; dividing a phase's CPU time by
    it gives the time at the reference speed.  The probe's own CPU time is
    subtracted from the phase.  The handler touches nothing of the
    program's state, so outputs are unchanged (the digests check it).
    """

    def __init__(self) -> None:
        self.durations: list = []
        self.cpu_s = 0.0
        self._small = list(range(256))
        self._heap = [(i * 0.618 % 1.0, i) for i in range(4096)]
        heapq.heapify(self._heap)
        self._mark = (0, 0.0)

    def tick(self, *_signal) -> None:
        # The process clock lags inside a SIGPROF handler; the thread
        # clock does not, and the process has one thread.
        cpu, wall = time.thread_time(), time.perf_counter()
        acc, table = 0, {}
        for i in range(500):
            acc += self._small[i & 255]
            table[i & 63] = acc
        heap = self._heap
        for i in range(100):
            key, n = heapq.heappop(heap)
            heapq.heappush(heap, (key + _Item(i).step(1) * 1e-9, n))
        self.durations.append(time.perf_counter() - wall)
        self.cpu_s += time.thread_time() - cpu

    def start(self) -> None:
        signal.signal(signal.SIGPROF, self.tick)
        signal.setitimer(signal.ITIMER_PROF, PROBE_INTERVAL_S,
                         PROBE_INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        signal.signal(signal.SIGPROF, signal.SIG_DFL)

    def phase(self) -> "tuple[float, float, int]":
        """``(probe CPU seconds, slow-down factor, ticks)`` since the
        previous call.  Ticks that top a short phase up to
        :data:`MIN_TICKS` count for the factor, not the CPU seconds."""
        first, cpu_before = self._mark
        cpu = self.cpu_s - cpu_before
        while len(self.durations) - first < MIN_TICKS:
            self.tick()
        ticks = self.durations[first:]
        self._mark = (len(self.durations), self.cpu_s)
        harmonic = len(ticks) / sum(1.0 / d for d in ticks)
        return cpu, harmonic / PROBE_REF_S, len(ticks)


def main(argv=None) -> int:
    probe = SpeedProbe()
    probe.start()
    try:
        return one_sample(probe, argv)
    finally:
        probe.stop()


def one_sample(probe: SpeedProbe, argv) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    from workloads import WORKLOADS, digest

    call = WORKLOADS[args.workload](args.seed, 1.0)
    setup_cpu = time.process_time()
    probe_cpu, slowdown, ticks = probe.phase()
    setup_raw = setup_cpu - probe_cpu
    out = {"setup_raw_s": setup_raw, "setup_s": setup_raw / slowdown,
           "setup_slowdown": slowdown, "setup_ticks": ticks}
    if not args.setup_only:
        started = time.process_time()
        try:
            if args.trace:
                from layers import traced_call

                # The tracer's clock skips the probe's ticks, so they are
                # charged to no layer.
                docs, run_raw, tracer = traced_call(
                    call, clock=lambda: time.process_time() - probe.cpu_s
                )
                _, slowdown, ticks = probe.phase()
                out["layers"] = {
                    name: value / slowdown if name.endswith("_s") else value
                    for name, value in tracer.metrics().items()
                }
            else:
                docs = call()
                run_cpu = time.process_time() - started
                probe_cpu, slowdown, ticks = probe.phase()
                run_raw = run_cpu - probe_cpu
            out.update(run_raw_s=run_raw, run_s=run_raw / slowdown,
                       run_slowdown=slowdown, run_ticks=ticks)
            out["digests"] = {k: digest(v) for k, v in docs.items()}
        except Exception as exc:  # noqa: BLE001 - reported as a failed op
            out["error"] = f"{type(exc).__name__}: {exc}"
        out["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        )
        import numpy

        out["versions"] = {
            "python": sys.version.split()[0], "numpy": numpy.__version__,
        }
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
