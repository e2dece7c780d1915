"""Machine-readable performance snapshots of the simulator itself.

The churn workloads here are the canonical kernel micro-benchmarks —
:mod:`benchmarks.test_bench_kernel` imports them so pytest-benchmark and
the ``repro bench`` CLI measure exactly the same code.  ``repro bench
--json OUT`` emits a snapshot (kernel events/sec plus per-experiment
wall-clock at a fixed scale) so perf trajectories can be tracked across
PRs in committed ``BENCH_*.json`` files.
"""

from __future__ import annotations

import json
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence

#: Scale/seed every snapshot uses for experiment wall-clocks, so numbers
#: are comparable across snapshots.
SNAPSHOT_SCALE = 0.1
SNAPSHOT_SEED = 3

#: The committed perf-trajectory file at the repo root (absent when the
#: package is installed outside the repo).
BENCH_FILE = Path(__file__).resolve().parents[2] / "BENCH_KERNEL.json"


# -- kernel churn workloads (shared with benchmarks/test_bench_kernel.py)
def timeout_churn(n_processes: int = 100, ticks: int = 100) -> int:
    """Ping-pong timeout scheduling: the pure event-loop hot path."""
    from repro.simcore import Environment

    env = Environment()
    count = {"events": 0}

    def ticker(env):
        for _ in range(ticks):
            yield env.timeout(1.0)
            count["events"] += 1

    for _ in range(n_processes):
        env.process(ticker(env))
    env.run()
    return count["events"]


def resource_churn(n_processes: int = 50, rounds: int = 20) -> int:
    """Request/release cycling through a capacity-4 resource."""
    from repro.simcore import Environment, Resource

    env = Environment()
    server = Resource(env, capacity=4)
    count = {"ops": 0}

    def client(env):
        for _ in range(rounds):
            with server.request() as req:
                yield req
                yield env.timeout(0.01)
            count["ops"] += 1

    for _ in range(n_processes):
        env.process(client(env))
    env.run()
    return count["ops"]


def race_churn(n_clients: int = 50, ops: int = 40) -> int:
    """The client hot path: every op races a cancellable deadline."""
    from repro.client.base import race_timeout
    from repro.simcore import Environment

    env = Environment()
    count = {"ops": 0}

    def op(env):
        yield env.timeout(0.5)
        return 1

    def client(env):
        for _ in range(ops):
            yield from race_timeout(env, op(env), 30.0)
            count["ops"] += 1

    for _ in range(n_clients):
        env.process(client(env))
    env.run()
    return count["ops"]


def flow_churn(n_flows: int = 200) -> int:
    """Fair-share reallocation on one link: the blob experiments' cost."""
    from repro.network import FlowNetwork, Link
    from repro.simcore import Environment

    env = Environment()
    net = FlowNetwork(env)
    link = Link("l", 100.0)
    done = {"n": 0}

    def sender(env, size):
        flow = net.transfer([link], size)
        yield flow.done
        done["n"] += 1

    for i in range(n_flows):
        env.process(sender(env, 1.0 + (i % 7)))
    env.run()
    return done["n"]


def component_churn(
    n_components: int = 16, n_flows: int = 25, churns: int = 200
) -> int:
    """Churn confined to one component among many.

    Every link carries a population of long-lived flows; one short flow
    at a time churns through the first link only.  The incremental
    allocator re-solves just that link's component, so the per-churn
    cost must not scale with the number of idle components.
    """
    from repro.network import FlowNetwork, Link
    from repro.simcore import Environment

    env = Environment()
    net = FlowNetwork(env)
    links = [Link(f"l{i}", 100.0) for i in range(n_components)]
    for link in links:
        for _ in range(n_flows):
            net.transfer([link], 1e9)
    done = {"n": 0}

    def churner(env):
        for _ in range(churns):
            flow = net.transfer([links[0]], 1.0)
            yield flow.done
            done["n"] += 1

    env.process(churner(env))
    env.run(until=1e6)  # long before any background flow drains
    return done["n"]


def failover_churn(n_clients: int = 20, ops: int = 50) -> int:
    """The replica-failover hot path: every call burns a full (no-retry)
    pass against a dark primary and succeeds on the secondary via the
    cross-replica failover pass — routing, transport classification and
    the second ``with_retries`` pass, with no storage stack underneath."""
    from repro.client.service_client import ServiceClient
    from repro.resilience.backoff import NO_RETRY
    from repro.simcore import Environment
    from repro.storage.errors import ConnectionFailureError

    env = Environment()

    class _Replica:
        def __init__(self, env: Environment, up: bool) -> None:
            self.env = env
            self.up = up

        def op(self):
            yield self.env.timeout(0.001)
            if not self.up:
                raise ConnectionFailureError("replica is dark")
            return 1

    class _Client(ServiceClient):
        def op(self):
            result = yield from self._call(
                "bench.op", lambda: self.service.op()
            )
            return result

    primary = _Replica(env, up=False)
    secondary = _Replica(env, up=True)
    count = {"ops": 0}

    def worker(client):
        for _ in range(ops):
            yield from client.op()
            count["ops"] += 1

    for _ in range(n_clients):
        env.process(
            worker(_Client(primary, retry=NO_RETRY, secondary=secondary))
        )
    env.run()
    return count["ops"]


def cohort_churn(n_clients: int = 20_000, ops: int = 5) -> int:
    """Closed-loop table clients at scale through the scenario driver's
    batched mode: one kernel process simulates ``n_clients`` clients
    through the fluid model (vectorized RNG draws, batch histogram
    ingestion).  The rate is *simulated clients per second*."""
    from repro.scenarios import (
        ArrivalSpec, OpSpec, PhaseSpec, ScenarioSpec, run_scenario,
    )
    from repro.simcore import Distribution

    spec = ScenarioSpec(
        name="churn",
        phases=(PhaseSpec("main", (OpSpec("table", "insert"),),
                          ops_per_client=ops),),
        arrival=ArrivalSpec(think=Distribution.exponential(0.1)),
    )
    run_scenario(spec, n_clients=n_clients, seed=3, mode="batched")
    return n_clients


def campaign_horizon(scale: float = 1.0) -> int:
    """The month-horizon availability campaign through the
    piecewise-stationary fast-forward driver: all three failover modes
    (the full scenario grid of ``repro campaign month --fast``), each
    cell solving the stationary windows between fault/failover
    transitions analytically and event-simulating only the guard bands.
    The rate is *grid cells per second*; the event-level grid replays
    ~86k client ops per cell and runs ~350x slower."""
    from repro.resilience.campaign import month_campaign_spec, run_campaign

    spec = month_campaign_spec(seed=3, scale=scale)
    report = run_campaign(spec, fast=True)
    return len(report.results)


def rng_batch(n_draws: int = 500_000, block: int = 4096) -> int:
    """Vectorized stream draws: the batched drivers' RNG hot path
    (exponential jitter blocks plus distribution batches)."""
    from repro.simcore import Distribution, RandomStreams

    streams = RandomStreams(3)
    rng = streams.batched("bench.rng")
    think = Distribution.exponential(0.1)
    drawn = 0
    while drawn < n_draws:
        rng.exponential_batch(0.02, block)
        rng.draw_batch(think, block)
        drawn += 2 * block
    return drawn


def _best_rate(fn, *args, repeat: int = 5) -> float:
    """Best-of-N operations/second (first call doubles as warm-up)."""
    fn(*args)
    best = float("inf")
    n = 0
    for _ in range(repeat):
        t0 = time.perf_counter()
        n = fn(*args)
        best = min(best, time.perf_counter() - t0)
    return n / best


def kernel_snapshot(repeat: int = 5) -> Dict[str, float]:
    """Events/ops per second for each kernel churn workload."""
    return {
        "timeout_churn_events_per_s": _best_rate(
            timeout_churn, 100, 100, repeat=repeat
        ),
        "resource_churn_ops_per_s": _best_rate(
            resource_churn, 50, 20, repeat=repeat
        ),
        "race_churn_ops_per_s": _best_rate(
            race_churn, 50, 40, repeat=repeat
        ),
        "flow_churn_flows_per_s": _best_rate(
            flow_churn, 200, repeat=repeat
        ),
        "component_churn_ops_per_s": _best_rate(
            component_churn, 16, 25, 200, repeat=repeat
        ),
        "failover_churn_ops_per_s": _best_rate(
            failover_churn, 20, 50, repeat=repeat
        ),
        "cohort_churn_clients_per_s": _best_rate(
            cohort_churn, 20_000, 5, repeat=repeat
        ),
        "rng_batch_draws_per_s": _best_rate(
            rng_batch, 500_000, 4096, repeat=repeat
        ),
        "campaign_horizon_cells_per_s": _best_rate(
            campaign_horizon, 1.0, repeat=min(repeat, 3)
        ),
    }


def experiment_wallclock(
    experiment_ids: Optional[Sequence[str]] = None,
    scale: float = SNAPSHOT_SCALE,
    seed: int = SNAPSHOT_SEED,
    jobs: Optional[int] = 1,
) -> Dict[str, float]:
    """Wall-clock seconds per experiment at a fixed, comparable scale."""
    from repro.experiments.registry import EXPERIMENTS, run_experiment

    ids: List[str] = list(experiment_ids or EXPERIMENTS)
    clocks: Dict[str, float] = {}
    for eid in ids:
        t0 = time.perf_counter()
        run_experiment(eid, scale=scale, seed=seed, jobs=jobs)
        clocks[eid] = round(time.perf_counter() - t0, 3)
    return clocks


def baseline_ratios(
    kernel: Dict[str, float],
    bench_path: Optional[Path] = None,
) -> Dict[str, Dict[str, float]]:
    """Measured/baseline ratio per kernel metric, per ``baseline_*`` block.

    Reads the committed ``BENCH_KERNEL.json`` and, for every top-level
    block whose name starts with ``baseline_``, divides the measured
    rate by the recorded one (>1 means faster than that baseline).
    Metrics absent from a baseline are skipped; returns ``{}`` when the
    trajectory file is missing entirely.
    """
    path = bench_path if bench_path is not None else BENCH_FILE
    try:
        trajectory = json.loads(Path(path).read_text())
    except (OSError, ValueError):
        return {}
    out: Dict[str, Dict[str, float]] = {}
    for name, block in trajectory.items():
        if not name.startswith("baseline_") or not isinstance(block, dict):
            continue
        recorded = block.get("kernel") or {}
        ratios = {
            key: round(kernel[key] / value, 3)
            for key, value in recorded.items()
            if key in kernel and value
        }
        if ratios:
            out[name] = ratios
    return out


def collect_snapshot(
    quick: bool = False,
    jobs: Optional[int] = 1,
    repeat: int = 5,
) -> Dict[str, object]:
    """The full ``repro bench`` payload.

    ``quick`` skips the experiment wall-clocks (kernel numbers only) —
    that is what the CI smoke job runs.
    """
    kernel = kernel_snapshot(repeat=repeat)
    snapshot: Dict[str, object] = {
        "scale": SNAPSHOT_SCALE,
        "seed": SNAPSHOT_SEED,
        "kernel": kernel,
    }
    ratios = baseline_ratios(kernel)
    if ratios:
        snapshot["baseline_ratio"] = ratios
    if not quick:
        snapshot["experiment_wallclock_s"] = experiment_wallclock(jobs=jobs)
        snapshot["jobs"] = jobs
    return snapshot
