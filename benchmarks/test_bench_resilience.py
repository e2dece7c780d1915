"""Benchmark: the resilience layer's fault-free hot-path overhead.

With no faults injected, a budget + breaker + jitter-strategy client
must behave exactly like the seed client at the simulation level (no
retries, so no backoff, no shed, no trip) and add only per-call
bookkeeping at the wall-clock level.  The sim-level equality is
asserted; the wall-clock comparison is what the benchmark measures.
"""

from repro.client import TableClient
from repro.resilience.backoff import RetryPolicy
from repro.resilience import CircuitBreaker, FullJitterBackoff, RetryBudget
from repro.simcore import Environment, RandomStreams
from repro.storage import TableService
from repro.storage.table import make_entity

N_CLIENTS = 16
OPS_PER_CLIENT = 150


def _workload(resilient: bool):
    """Run the same fault-free insert workload; return (sim_time, stats)."""
    env = Environment()
    streams = RandomStreams(17)
    svc = TableService(env, streams.stream("svc"))
    svc.create_table("t")
    server = svc.server_for("t", "p")

    budget = breaker = None
    retry = RetryPolicy(max_retries=3)
    if resilient:
        budget = RetryBudget(ratio=0.2, initial_tokens=10.0)
        breaker = CircuitBreaker(env, name="bench")
        retry = RetryPolicy(
            max_retries=3,
            strategy=FullJitterBackoff(streams.stream("jitter")),
        )
    client = TableClient(svc, retry=retry, budget=budget, breaker=breaker)
    done = {"ok": 0}

    def worker(idx):
        for k in range(OPS_PER_CLIENT):
            try:
                yield from client.insert(
                    "t", make_entity("p", f"c{idx}-k{k}")
                )
            except Exception:  # noqa: BLE001 - a failed op is not counted
                pass
            else:
                done["ok"] += 1
            yield env.timeout(0.25)

    for idx in range(N_CLIENTS):
        env.process(worker(idx))
    env.run()
    return env.now, done["ok"], server.stats.started, budget, breaker


def test_bench_resilient_hot_path(benchmark):
    sim_time, ok, attempts, budget, breaker = benchmark(
        lambda: _workload(resilient=True)
    )
    plain_time, plain_ok, plain_attempts, _, _ = _workload(resilient=False)

    total = N_CLIENTS * OPS_PER_CLIENT
    assert ok == plain_ok == total
    # Fault-free: the resilience kit is pure bookkeeping — identical
    # simulated timeline and server load, nothing shed, nothing tripped.
    assert sim_time == plain_time
    assert attempts == plain_attempts == total
    assert budget.granted == 0 and budget.shed == 0
    assert breaker.state == "closed" and breaker.opens == 0


def test_bench_seed_hot_path(benchmark):
    """The baseline to diff against test_bench_resilient_hot_path."""
    sim_time, ok, attempts, _, _ = benchmark(
        lambda: _workload(resilient=False)
    )
    assert ok == N_CLIENTS * OPS_PER_CLIENT
