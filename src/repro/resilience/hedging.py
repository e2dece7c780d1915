"""Request hedging for idempotent reads.

Tail latency in the paper's storage measurements is dominated by a few
slow requests (queueing, latency spikes), not by the median.  Hedging
bounds the tail: if the primary attempt has not completed by a tracked
latency percentile, launch one backup attempt and take whichever
finishes first.  The loser is *defused* — the same orphan machinery
:func:`repro.client.base.race_timeout` uses — so it keeps consuming
server resources (as an abandoned HTTP request would) but its eventual
failure is silenced.

Only idempotent reads may be hedged (blob Get, table Query, queue
Peek); the clients enforce that by wiring :func:`hedged_call` into
exactly those paths.  :func:`run_hedge_drill` measures the trade:
hedged vs unhedged blob Get under a latency-spike window.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Generator, List, Optional, Tuple

from repro.simcore import Environment, Event, Tally
from repro.simcore.rng import GOLDEN_SEED


class HedgePolicy:
    """When to hedge, plus the cost accounting.

    The hedge delay is the ``percentile``-th latency of completed calls;
    until ``warmup`` observations exist, ``default_delay_s`` is used.

    Attributes
    ----------
    calls / launched / wins:
        Total hedged-path calls, backups actually launched, and races
        the backup won.  ``launched`` is also the duplicate-work cost:
        every launch is one extra server operation.
    """

    def __init__(
        self,
        percentile: float = 95.0,
        default_delay_s: float = 0.5,
        min_delay_s: float = 0.02,
        warmup: int = 16,
    ) -> None:
        if not 0 < percentile < 100:
            raise ValueError("percentile must be in (0, 100)")
        if default_delay_s <= 0 or min_delay_s <= 0:
            raise ValueError("hedge delays must be > 0")
        self.percentile = percentile
        self.default_delay_s = default_delay_s
        self.min_delay_s = min_delay_s
        self.warmup = warmup
        self.latency = Tally("hedge.latency")
        self.calls = 0
        self.launched = 0
        self.wins = 0

    def hedge_delay(self) -> float:
        if self.latency.count < self.warmup:
            return self.default_delay_s
        return max(
            self.min_delay_s, float(self.latency.percentile(self.percentile))
        )

    @property
    def duplicate_fraction(self) -> float:
        """Extra server operations per call (the hedging cost)."""
        return self.launched / self.calls if self.calls else 0.0


def hedged_call(
    env: Environment,
    make_operation: Callable[[], Generator],
    policy: HedgePolicy,
    description: str = "read",
    make_backup: Optional[Callable[[], Generator]] = None,
) -> Generator:
    """Run an idempotent read with one optional hedged backup.

    Returns the winner's value; raises only if every launched attempt
    failed.  The losing attempt is defused and left to run out as an
    orphan.  ``make_backup`` builds the backup attempt when it differs
    from the primary — replica-aware clients hedge against the *other*
    replica, racing a slow region against a healthy one.
    """
    policy.calls += 1
    start = env.now
    primary = env.process(make_operation())
    last_error: Optional[Exception] = None
    try:
        try:
            # Race against a private cancellable deadline: when the
            # primary wins, the hedge timer is discarded instead of
            # fired dead.
            yield env.race(primary, policy.hedge_delay())
        except Exception:
            # The primary failed before the hedge fired; surface it to
            # the retry layer unchanged.
            policy.latency.observe(env.now - start)
            raise
        if primary.processed:
            policy.latency.observe(env.now - start)
            if not primary.ok:
                raise primary.value
            return primary.value

        # Primary is past the hedge percentile: launch the backup and
        # race.
        policy.launched += 1
        backup_factory = (
            make_backup if make_backup is not None else make_operation
        )
        racers = [primary, env.process(backup_factory())]
        while True:
            winner = next((r for r in racers if r.processed and r.ok), None)
            if winner is not None:
                if winner is not primary:
                    policy.wins += 1
                for loser in racers:
                    if not loser.processed:
                        loser.defuse()
                policy.latency.observe(env.now - start)
                return winner.value
            pending = [r for r in racers if not r.processed]
            if not pending:
                policy.latency.observe(env.now - start)
                assert last_error is not None
                raise last_error
            try:
                yield _first_done(env, pending)
            except Exception as error:  # one racer failed; wait for the other
                last_error = error
    finally:
        # A failed attempt holds its exception, whose traceback keeps
        # this frame: drop every local that reaches one, so the call
        # leaves no reference cycle.
        primary = racers = winner = loser = pending = last_error = None


def _first_done(env: Environment, racers: List[Event]) -> Event:
    """An event that fires when the first of ``racers`` does: with its
    value, or failing with its exception (defusing it).

    ``env.any_of(racers)`` schedules the same one event, but its child
    list and value dict hold the racers while their callback slots hold
    the condition: a reference cycle per hedged read.  Here only the
    racers refer to the event.
    """
    done = env.event()

    def fire(racer: Event) -> None:
        if done.triggered:
            return
        if racer.ok:
            done.succeed(racer.value)
        else:
            racer.defuse()
            done.fail(racer.value)

    for racer in racers:
        racer.add_callback(fire)
    return done


# -- the hedging drill ------------------------------------------------------

@dataclass
class HedgeDrillReport:
    """Hedged vs unhedged blob Get under a latency spike."""

    unhedged_p50_ms: float
    unhedged_p99_ms: float
    hedged_p50_ms: float
    hedged_p99_ms: float
    reads: int
    hedges_launched: int
    hedge_wins: int

    @property
    def duplicate_fraction(self) -> float:
        """Extra server reads per client read — the hedging cost."""
        return self.hedges_launched / self.reads if self.reads else 0.0

    @property
    def p99_speedup(self) -> float:
        return (
            self.unhedged_p99_ms / self.hedged_p99_ms
            if self.hedged_p99_ms
            else 0.0
        )

    def render(self) -> str:
        from repro.analysis import ascii_table

        rows = [
            ["unhedged", f"{self.unhedged_p50_ms:.0f}",
             f"{self.unhedged_p99_ms:.0f}", "0.00"],
            ["hedged", f"{self.hedged_p50_ms:.0f}",
             f"{self.hedged_p99_ms:.0f}", f"{self.duplicate_fraction:.2f}"],
        ]
        table = ascii_table(
            ["blob Get", "p50 ms", "p99 ms", "duplicate work"],
            rows,
            title=(
                f"hedging drill — latency spike, {self.reads} reads, "
                f"p99 speedup {self.p99_speedup:.1f}x "
                f"({self.hedge_wins} hedge wins)"
            ),
        )
        return table


def _hedge_run(
    seed: int,
    use_hedging: bool,
    n_clients: int,
    reads_per_client: int,
    blob_mb: float,
    spike_magnitude_s: float,
) -> Tuple[Tally, Optional[HedgePolicy]]:
    """One hedged-or-not pass over a spiking blob read workload."""
    from repro.client import BlobClient
    from repro.faults import FaultInjector
    from repro.resilience.backoff import NO_RETRY
    from repro.workloads.harness import build_platform

    platform = build_platform(seed=seed, n_clients=n_clients)
    env = platform.env
    blob_svc = platform.account.blobs
    blob_svc.create_container("drill")
    blob_svc.seed_blob("drill", "hot", blob_mb)
    injector = FaultInjector(env, platform.streams.stream("faults"))
    injector.attach(blob_svc)
    injector.add_window(0.0, 1e9, "latency_spike", spike_magnitude_s)

    latencies = Tally("blob.get.latency")
    hedge = HedgePolicy(percentile=90.0, default_delay_s=0.6) if use_hedging else None

    def reader(idx: int):
        client = BlobClient(
            blob_svc, platform.clients[idx], retry=NO_RETRY, hedge=hedge
        )
        for _ in range(reads_per_client):
            start = env.now
            yield from client.download("drill", "hot")
            latencies.observe(env.now - start)
            yield env.timeout(2.0)

    for idx in range(n_clients):
        env.process(reader(idx))
    env.run()
    return latencies, hedge


def run_hedge_drill(
    seed: int = GOLDEN_SEED,
    n_clients: int = 4,
    reads_per_client: int = 50,
    blob_mb: float = 2.0,
    spike_magnitude_s: float = 1.5,
) -> HedgeDrillReport:
    """Compare hedged vs unhedged blob Get under a latency-spike window.

    Both passes replay the identical spike schedule and workload; only
    the client's hedge policy differs.
    """
    unhedged, _ = _hedge_run(
        seed, False, n_clients, reads_per_client, blob_mb, spike_magnitude_s
    )
    hedged, hedge = _hedge_run(
        seed, True, n_clients, reads_per_client, blob_mb, spike_magnitude_s
    )
    assert hedge is not None
    return HedgeDrillReport(
        unhedged_p50_ms=float(unhedged.percentile(50)) * 1000.0,
        unhedged_p99_ms=float(unhedged.percentile(99)) * 1000.0,
        hedged_p50_ms=float(hedged.percentile(50)) * 1000.0,
        hedged_p99_ms=float(hedged.percentile(99)) * 1000.0,
        reads=n_clients * reads_per_client,
        hedges_launched=hedge.launched,
        hedge_wins=hedge.wins,
    )
