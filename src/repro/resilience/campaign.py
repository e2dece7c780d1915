"""Fault campaigns: fault schedules × (client policy × failover mode) → SLO verdicts.

The paper's Section 6.3 lesson — monitor what the *client* sees while
the platform fails — as one executable gate.  A campaign replays a
declarative fault schedule against an open-loop client population once
per grid cell, under one seed, schedule and op mix, and reports
*user-side* availability in the sense of Naldi's cloud-availability
surveys: an operation fails only when the client's whole call —
retries, hedges and cross-replica failover included — fails.

The schedule has two layers, either of which may be empty: correlated
**domain faults** (:class:`repro.faults.DomainFault` over a node → rack
→ zone → region tree, via :class:`repro.faults.DomainFaultInjector`) and
per-server **fault windows** (:class:`repro.faults.FaultWindow` — 503
storms, crash/restarts, HTTP-500 bursts — on the partition every write
hits).  The grid crosses client policies (:class:`PolicySpec`: backoff,
retry budget, circuit breaker) with failover modes:

* ``none``       — a single-region account; every domain outage is
  user-visible downtime.
* ``manual``     — a geo-replicated account whose failover nobody
  triggers: reads ride the client's replica failover, writes stay
  pinned to the (dead) primary.
* ``automatic``  — the account's health monitor promotes the secondary
  after confirming the outage, and fails back once the primary heals.

The month/day presets fix one policy and compare modes; the
storm/crash/burst presets fix mode ``none`` and compare the policy
matrix.  Open-loop arrivals (one op per interval, finished or not) are
what make retry storms visible: an amplifying policy stacks its retries
on top of fresh arrivals.
"""

from __future__ import annotations

import gc
import math
from dataclasses import asdict, dataclass, field
from typing import Any, Callable, Dict, Generator, List, Optional, Tuple

import numpy as np

from repro.analysis import ascii_table
from repro.cluster.domains import FailureDomain, register_account
from repro.faults import (
    DomainFault,
    DomainFaultInjector,
    FaultInjector,
    FaultWindow,
)
from repro.observability.histogram import Histogram
from repro.observability.slo import (
    SLOReport,
    availability_slo,
    evaluate_slo,
    latency_slo,
)
from repro.observability.windows import MinuteAvailability
from repro.resilience.backoff import RetryPolicy, make_backoff
from repro.resilience.breaker import CircuitBreaker
from repro.resilience.budget import RetryBudget
from repro.resilience.hedging import HedgePolicy
from repro.service.tracing import RequestTracer
from repro.simcore import Environment, RandomStreams
from repro.storage import (
    GeoReplicatedAccount,
    ReplicationConfig,
    StorageAccount,
)
from repro.storage.table import make_entity

#: The failover modes a campaign compares, in report order.
CAMPAIGN_MODES = ("none", "manual", "automatic")


@dataclass(frozen=True)
class PolicySpec:
    """Declarative description of one resilience policy under test."""

    name: str
    max_retries: int = 3
    backoff: str = "linear"  # linear | exponential | jitter
    backoff_base_s: float = 1.0
    backoff_factor: float = 2.0
    backoff_cap_s: float = 30.0
    #: Tokens deposited per call; ``None`` disables the retry budget.
    budget_ratio: Optional[float] = None
    budget_initial: float = 5.0
    budget_max: float = 50.0
    #: Whether a circuit breaker wraps the client.
    breaker: bool = False
    breaker_window: int = 20
    breaker_threshold: float = 0.5
    breaker_min_volume: int = 10
    breaker_open_for_s: float = 15.0

    def build(
        self, env: Environment, rng: np.random.Generator
    ) -> Tuple[Any, Optional[RetryBudget], Optional[CircuitBreaker]]:
        """Instantiate (retry_policy, budget, breaker) for one run."""
        policy = RetryPolicy(
            max_retries=self.max_retries,
            strategy=make_backoff(
                self.backoff,
                self.backoff_base_s,
                self.backoff_factor,
                self.backoff_cap_s,
                rng=rng,
            ),
        )
        budget = None
        if self.budget_ratio is not None:
            budget = RetryBudget(
                ratio=self.budget_ratio,
                initial_tokens=self.budget_initial,
                max_tokens=self.budget_max,
            )
        breaker = None
        if self.breaker:
            breaker = CircuitBreaker(
                env,
                window=self.breaker_window,
                error_threshold=self.breaker_threshold,
                min_volume=self.breaker_min_volume,
                open_for_s=self.breaker_open_for_s,
                name=f"{self.name}.breaker",
            )
        return policy, budget, breaker


#: The one client policy the month/day presets run (jittered
#: exponential with a retry budget — the storm's surviving shape).
GEO_POLICY = PolicySpec(
    "geo-jitter-budget", max_retries=3, backoff="jitter",
    backoff_base_s=2.0, backoff_factor=3.0, backoff_cap_s=30.0,
    budget_ratio=0.5, budget_initial=150.0, budget_max=200.0,
)


def default_policy_matrix() -> List[PolicySpec]:
    """The policy comparison the storm/crash/burst presets run.

    ``seed-linear`` is the 2009 StorageClient default; the others add
    the resilience layer's mechanisms one at a time.
    """
    return [
        PolicySpec("no-retry", max_retries=0),
        PolicySpec("seed-linear", max_retries=3, backoff="linear",
                   backoff_base_s=1.0),
        PolicySpec("jitter-budget", max_retries=3, backoff="jitter",
                   backoff_base_s=20.0, backoff_factor=3.0,
                   backoff_cap_s=60.0,
                   budget_ratio=0.5, budget_initial=150.0,
                   budget_max=200.0),
        PolicySpec("jitter-budget-breaker", max_retries=3, backoff="jitter",
                   backoff_base_s=20.0, backoff_factor=3.0,
                   backoff_cap_s=60.0,
                   budget_ratio=0.5, budget_initial=150.0,
                   budget_max=200.0,
                   breaker=True),
    ]


@dataclass(frozen=True)
class CampaignSpec:
    """One reproducible campaign: fault schedule, (policy × mode) grid,
    workload, replication policy and SLO targets."""

    name: str
    faults: Tuple[DomainFault, ...]
    #: Per-server fault windows on the partition every write hits.
    windows: Tuple[FaultWindow, ...] = ()
    #: The grid: every policy is replayed under every failover mode.
    policies: Tuple[PolicySpec, ...] = (GEO_POLICY,)
    modes: Tuple[str, ...] = CAMPAIGN_MODES
    duration_s: float = 30 * 86400.0
    n_clients: int = 4
    op_interval_s: float = 120.0
    read_fraction: float = 0.7
    entity_kb: float = 4.0
    client_timeout_s: float = 5.0
    seed: int = 3
    #: Time the workload is allowed to drain after the horizon.
    grace_s: float = 600.0
    #: Geo-replication parameters (modes ``manual``/``automatic``).
    replication_lag_s: float = 300.0
    promotion_s: float = 120.0
    detection_interval_s: float = 60.0
    confirm_probes: int = 3
    failback_probes: int = 30
    #: SLO targets the verdict column checks (user-side).
    slo_availability: float = 0.999
    slo_p99_ms: float = 10_000.0
    slo_amplification: float = 3.0

    @property
    def ops_per_client(self) -> int:
        return int(self.duration_s / self.op_interval_s)

    def to_dict(self) -> Dict[str, Any]:
        """The full JSON-able spec document (schedule and grid
        included) — what the run catalog hashes as this campaign's
        config identity."""
        doc = asdict(self)
        for key in ("faults", "windows", "policies", "modes"):
            doc[key] = list(doc[key])
        return doc


#: A cell's report document, in order (then its ``slo`` block); specs
#: with server windows add the window fields.
_CELL_FIELDS = (
    "availability", "ops", "ok", "failed", "retries", "p50_ms", "p99_ms",
    "amplification", "minutes", "bad_minutes", "zero_minutes",
    "worst_minute_availability", "mean_minute_availability",
    "account_failovers", "account_failbacks", "client_failovers",
    "lost_writes", "slo_pass", "worst_burn_rate",
)
_WINDOW_FIELDS = (
    "shed_retries", "fast_failures", "window_amplification",
    "breaker_states",
)


@dataclass
class ModeResult:
    """One (policy, failover mode) cell's user-side outcome."""

    policy: str
    mode: str
    spec: CampaignSpec
    #: Latency of the *successful* operations.
    latency: Histogram
    ops: int = 0
    ok: int = 0
    failed: int = 0
    retries: int = 0
    shed_retries: int = 0
    server_attempts: int = 0
    #: Ops issued inside server fault windows, and the attempts the
    #: targeted server absorbed during those windows.
    window_ops: int = 0
    window_attempts: int = 0
    fast_failures: int = 0
    #: Latency percentiles are over *successful* operations (a failed
    #: operation's time-to-give-up is not a latency sample).
    p50_ms: float = 0.0
    p99_ms: float = 0.0
    breaker_states: List[str] = field(default_factory=list)
    #: Per-minute availability summary (minutes with at least one op).
    minutes: int = 0
    bad_minutes: int = 0
    zero_minutes: int = 0
    worst_minute_availability: float = 1.0
    mean_minute_availability: float = 1.0
    #: Failover machinery counters.
    account_failovers: int = 0
    account_failbacks: int = 0
    client_failovers: int = 0
    lost_writes: int = 0

    @property
    def availability(self) -> float:
        """Client-observed availability through the full retry path."""
        return self.ok / self.ops if self.ops else 0.0

    @property
    def goodput_ops_s(self) -> float:
        return self.ok / self.spec.duration_s

    @property
    def amplification(self) -> float:
        """Server-side attempts per client operation (retry storms > 1)."""
        return self.server_attempts / self.ops if self.ops else 0.0

    @property
    def window_amplification(self) -> float:
        """Attempts the server absorbed *during* fault windows, per
        operation issued during those windows — extra load piled on a
        server that was already in trouble."""
        return self.window_attempts / self.window_ops if self.window_ops else 0.0

    @property
    def slo_report(self) -> SLOReport:
        """The cell's objectives through the SLO engine: availability
        over every operation, the p99 over *successful* ones (matching
        the percentile columns) via the latency histogram."""
        spec = self.spec
        return SLOReport(
            title=f"campaign '{spec.name}' — {self.policy}/{self.mode}",
            results=[
                evaluate_slo(
                    availability_slo(spec.slo_availability),
                    total=self.ops,
                    errors=self.failed,
                ),
                evaluate_slo(
                    latency_slo(
                        spec.slo_p99_ms / 1000.0,
                        target=0.99,
                        name=f"p99<{spec.slo_p99_ms:g}ms",
                    ),
                    total=self.ok,
                    errors=0,
                    histogram=self.latency if self.latency.count else None,
                ),
            ],
        )

    @property
    def worst_burn_rate(self) -> float:
        return self.slo_report.worst_burn_rate

    @property
    def slo_pass(self) -> bool:
        return (
            self.slo_report.passed
            and self.amplification <= self.spec.slo_amplification
        )

    def slo_dict(self) -> Dict[str, Dict[str, float]]:
        """JSON-able error-budget/burn-rate fields per objective."""
        out: Dict[str, Dict[str, float]] = {}
        for result in self.slo_report.results:
            out[result.slo.name] = {
                "target": result.slo.target,
                "sli": result.sli,
                "error_budget": result.error_budget,
                "budget_consumed": result.budget_consumed,
                "budget_remaining": result.budget_remaining,
                "burn_rate": result.burn_rate,
                "passed": result.passed,
            }
        return out

    def to_dict(self) -> Dict[str, Any]:
        doc = {key: getattr(self, key) for key in _CELL_FIELDS}
        doc["slo"] = self.slo_dict()
        if self.spec.windows:
            doc.update((key, getattr(self, key)) for key in _WINDOW_FIELDS)
        return doc


#: The verdict table's columns after the cell label.
_COLUMNS: Tuple[Tuple[str, Callable[[ModeResult], Any]], ...] = (
    ("avail", lambda r: f"{r.availability:.5f}"),
    ("p50 ms", lambda r: f"{r.p50_ms:.0f}"),
    ("p99 ms", lambda r: f"{r.p99_ms:.0f}"),
    ("goodput/s", lambda r: f"{r.goodput_ops_s:.2f}"),
    ("amplif", lambda r: f"{r.amplification:.2f}"),
    ("amp@fault", lambda r: f"{r.window_amplification:.2f}"),
    ("shed", lambda r: r.shed_retries),
    ("fastfail", lambda r: r.fast_failures),
    ("breaker", lambda r: "->".join(r.breaker_states) or "-"),
    ("bad min", lambda r: r.bad_minutes),
    ("dark min", lambda r: r.zero_minutes),
    ("worst min", lambda r: f"{r.worst_minute_availability:.2f}"),
    ("acct f/o", lambda r: r.account_failovers),
    ("client f/o", lambda r: r.client_failovers),
    ("lost wr", lambda r: r.lost_writes),
    ("burn", lambda r: f"{r.worst_burn_rate:.2f}"),
    ("verdict", lambda r: "PASS" if r.slo_pass else "FAIL"),
)


@dataclass
class CampaignReport:
    """Every grid cell of one campaign, renderable as a verdict table."""

    spec: CampaignSpec
    results: List[ModeResult]
    #: The driver that produced the cells — part of the catalogued
    #: config identity, not of the report document.
    fast: bool = False
    guard_band_s: Optional[float] = None

    def label(self, cell: ModeResult) -> str:
        """A cell's name: its mode when the grid has one policy,
        ``"{policy}/{mode}"`` otherwise."""
        if len(self.spec.policies) == 1:
            return cell.mode
        return f"{cell.policy}/{cell.mode}"

    def result(self, label: str) -> ModeResult:
        for cell in self.results:
            if self.label(cell) == label:
                return cell
        raise KeyError(f"no cell labelled {label!r} in this campaign")

    @property
    def passed(self) -> bool:
        """At least one cell met every SLO target."""
        return any(r.slo_pass for r in self.results)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "scenario": self.spec.name,
            "duration_s": self.spec.duration_s,
            "seed": self.spec.seed,
            "slo": {
                "availability": self.spec.slo_availability,
                "p99_ms": self.spec.slo_p99_ms,
                "amplification": self.spec.slo_amplification,
            },
            "faults": [asdict(f) for f in self.spec.faults],
            "modes": {self.label(r): r.to_dict() for r in self.results},
        }

    def render(self) -> str:
        spec = self.spec
        rows = [
            [self.label(r)] + [fmt(r) for _header, fmt in _COLUMNS]
            for r in self.results
        ]
        if spec.duration_s >= 86400.0:
            horizon = f"{spec.duration_s / 86400.0:.1f} simulated days"
        else:
            horizon = f"{spec.duration_s:.0f}s"
        title = (
            f"fault campaign '{spec.name}' — {horizon}, "
            f"{spec.n_clients} clients, {len(spec.faults)} correlated "
            f"faults, {len(spec.windows)} server windows, SLO: "
            f"avail>={spec.slo_availability}, p99<={spec.slo_p99_ms:.0f}ms, "
            f"amp<={spec.slo_amplification}"
        )
        cell = "failover" if len(spec.policies) == 1 else "policy/failover"
        return ascii_table(
            [cell] + [header for header, _fmt in _COLUMNS], rows, title=title
        )


#: The domain the primary account hangs off: its health is what the
#: automatic-failover monitor probes.
PRIMARY_DOMAIN = "rack-a1"
#: The domains whose loss severs the secondary from the clients' region:
#: its own rack, and the WAN that reaching region B at all crosses.
SECONDARY_DOMAINS = ("rack-b1", "wan")


def _build_domains(env: Environment) -> FailureDomain:
    """The campaign's two-region tree (region A holds the primary and
    the clients; region B the secondary; ``wan`` models reachability of
    region B from region A)."""
    root = FailureDomain("world", "world")
    region_a = FailureDomain("region-a", "region", parent=root)
    zone_a = FailureDomain("zone-a", "zone", parent=region_a)
    FailureDomain("rack-a1", "rack", parent=zone_a)
    region_b = FailureDomain("region-b", "region", parent=root)
    zone_b = FailureDomain("zone-b", "zone", parent=region_b)
    FailureDomain("rack-b1", "rack", parent=zone_b)
    FailureDomain("wan", "wan", parent=root)
    return root


@dataclass
class CampaignWorld:
    """One fully wired campaign cell (policy × mode), before any ops.

    Both drivers build the identical world through
    :func:`build_campaign_world` — same construction order, same
    name-keyed RNG streams, same schedules — and differ only in which
    client operations :meth:`start_issuer` *really* simulates: the
    event-level path issues all of them, the piecewise-stationary fast
    path only those inside guard bands (phase 2) or none at all (phase
    1, the timeline-realization run).
    """

    spec: CampaignSpec
    policy_spec: PolicySpec
    mode: str
    env: Environment
    streams: RandomStreams
    root: FailureDomain
    injector: DomainFaultInjector
    budget: Any
    breaker: Any
    latency: Histogram
    tracer: RequestTracer
    primary: StorageAccount
    geo: Optional[GeoReplicatedAccount]
    client: Any
    #: Pre-drawn read/write mix, ``mix[idx][k]`` True for a read —
    #: identical across cells and across both drivers.
    mix: Any
    avail: MinuteAvailability
    #: The primary, then (geo modes) the secondary.
    accounts: List[StorageAccount]
    #: Ops issued inside server windows, and the server attempts each
    #: window absorbed (sampled at its boundaries).
    window_ops: int = 0
    window_attempts: List[int] = field(default_factory=list)
    #: Client operations that succeeded / failed through the whole
    #: retry path, and retries the fast path priced analytically.
    ok: int = 0
    failed: int = 0
    retries: int = 0

    def one_op(self, idx: int, k: int) -> Generator:
        """One measured client operation: the shared op body both
        drivers run for really-simulated ops."""
        env, spec = self.env, self.spec
        start = env.now
        minute = self.avail.minute_of(start)
        try:
            if self.mix[idx][k]:
                yield from self.client.query("t", "hot", "hot")
            else:
                entity = make_entity(
                    "p", f"c{idx}-k{k}", size_kb=spec.entity_kb
                )
                yield from self.client.insert("t", entity)
        except Exception:  # noqa: BLE001 - a failed op is a data point
            self.failed += 1
            self.avail.observe(minute, False)
        else:
            self.latency.observe(env.now - start)
            self.ok += 1
            self.avail.observe(minute, True)

    def server_attempts(self) -> int:
        return sum(
            s.stats.started for a in self.accounts for s in a.tables.servers()
        )

    def start_issuer(
        self, ts: np.ndarray, idx: np.ndarray, k: np.ndarray
    ) -> None:
        """Start the one kernel process that issues client ops: it
        advances to each instant of the chronological ``ts``, counts the
        op if a server window covers it, and starts op ``(idx, k)``
        without waiting for it (open loop).  The event-level driver runs
        it over every op, the fast-forward driver over its guard-band
        ops."""
        env, windows = self.env, self.spec.windows
        schedule = zip(ts.tolist(), idx.tolist(), k.tolist())

        def issuer() -> Generator:
            for t, i, j in schedule:
                if t > env.now:
                    yield env.timeout(t - env.now)
                if windows and any(w.covers(env.now) for w in windows):
                    self.window_ops += 1
                env.process(self.one_op(i, j))

        env.process(issuer())


def issue_schedule(
    spec: CampaignSpec,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every client op's issue instant and ``(idx, k)``, in
    chronological order: client ``idx`` issues op ``k`` at
    ``idx * interval / n + k * interval``, so the clients' open-loop
    arrivals are staggered evenly over each interval."""
    n, interval = spec.n_clients, spec.op_interval_s
    k = np.repeat(np.arange(spec.ops_per_client), n)
    idx = np.tile(np.arange(n), spec.ops_per_client)
    return idx * interval / n + k * interval, idx, k


def build_campaign_world(
    spec: CampaignSpec,
    mode: str,
    tracer: Optional[RequestTracer] = None,
    policy: Optional[PolicySpec] = None,
) -> CampaignWorld:
    """Build one (policy, mode) cell's world: fresh environment, same
    seed, same fault schedule, same op mix — no ops scheduled.
    ``policy`` defaults to the spec's first."""
    if mode not in CAMPAIGN_MODES:
        raise ValueError(
            f"unknown campaign mode {mode!r}; expected one of "
            f"{CAMPAIGN_MODES}"
        )
    pspec = spec.policies[0] if policy is None else policy
    env = Environment()
    streams = RandomStreams(spec.seed)
    root = _build_domains(env)
    injector = DomainFaultInjector(
        env, root, streams.stream("domain-faults")
    )

    replication = ReplicationConfig(
        lag_s=spec.replication_lag_s,
        promotion_s=spec.promotion_s,
        mode="automatic" if mode == "automatic" else "manual",
        detection_interval_s=spec.detection_interval_s,
        confirm_probes=spec.confirm_probes,
        auto_failback=True,
        failback_probes=spec.failback_probes,
    )

    retry, budget, breaker = pspec.build(env, streams.stream("policy"))

    if tracer is None:
        # Month-horizon runs issue tens of thousands of ops; per-request
        # tracing is pure overhead here (availability is measured from
        # client outcomes), so the campaign accounts run untraced.
        tracer = RequestTracer(enabled=False)
    geo: Optional[GeoReplicatedAccount] = None
    if mode == "none":
        from repro.client import TableClient

        # Named like the geo primary so both worlds draw the same
        # service RNG streams — the same seed really is the same world.
        primary = StorageAccount(
            env, streams, name="geo-primary", tracer=tracer
        )
        accounts = [primary]
        client = TableClient(
            primary.tables, timeout_s=spec.client_timeout_s, retry=retry,
            budget=budget, breaker=breaker,
        )
    else:
        geo = GeoReplicatedAccount(
            env, streams, name="geo", replication=replication,
            tracer=tracer,
        )
        primary = geo.primary
        accounts = [geo.primary, geo.secondary]
        client = geo.table_client(
            timeout_s=spec.client_timeout_s, retry=retry, budget=budget,
            breaker=breaker,
            hedge=HedgePolicy(percentile=99.0, default_delay_s=2.0),
        )
        for name in SECONDARY_DOMAINS:
            register_account(root.find(name), geo.secondary)
    register_account(root.find(PRIMARY_DOMAIN), primary)

    for account in accounts:
        account.tables.create_table("t")
        account.tables.seed_entity(
            "t", make_entity("hot", "hot", size_kb=spec.entity_kb)
        )

    for fault in spec.faults:
        injector.schedule(
            fault.domain, fault.start_s, fault.duration_s, fault.kind,
            fault.mttr_s,
        )
    if geo is not None and mode == "automatic":
        geo.start_monitor(
            lambda: not injector.is_down(PRIMARY_DOMAIN),
            horizon_s=spec.duration_s,
        )

    # The op mix is drawn up front from a dedicated stream, so every
    # cell replays the identical read/write sequence.
    mix = streams.stream("campaign.mix").random(
        (spec.n_clients, spec.ops_per_client)
    ) < spec.read_fraction

    n_minutes = max(1, int(math.ceil(spec.duration_s / 60.0)))
    world = CampaignWorld(
        spec=spec, policy_spec=pspec, mode=mode, env=env,
        streams=streams, root=root, injector=injector, budget=budget,
        breaker=breaker, latency=Histogram("drill.latency"), tracer=tracer,
        primary=primary, geo=geo, client=client, mix=mix,
        avail=MinuteAvailability(n_minutes), accounts=accounts,
    )
    if spec.windows:
        _attach_windows(world)
    return world


def _attach_windows(world: CampaignWorld) -> None:
    """Schedule the spec's server windows on the partition every write
    hits, and sample its attempts at each window's boundaries so the
    report can charge in-window load to the windows themselves."""
    env = world.env
    server = world.primary.tables.server_for("t", "p")
    faults = FaultInjector(env, world.streams.stream("faults"))
    for window in world.spec.windows:
        faults.add_window(
            window.start_s, window.duration_s, window.kind, window.magnitude
        )
    faults.attach(server)

    def monitor(window: FaultWindow):
        yield env.timeout(window.start_s)
        before = server.stats.started
        yield env.timeout(window.duration_s)
        world.window_attempts.append(server.stats.started - before)

    for window in world.spec.windows:
        env.process(monitor(window))


def collect_mode_result(world: CampaignWorld) -> ModeResult:
    """Assemble the shared verdict record from a finished world — both
    drivers end here, so fast-mode results are byte-compatible."""
    latency, avail = world.latency, world.avail
    budget, breaker = world.budget, world.breaker
    cell = ModeResult(
        policy=world.policy_spec.name,
        mode=world.mode,
        spec=world.spec,
        latency=latency,
        ops=world.ok + world.failed,
        ok=world.ok,
        failed=world.failed,
        # Retries of the really-simulated ops, counted by the client
        # itself, join the fast path's analytic retries.
        retries=world.retries + world.client.retries,
        shed_retries=budget.shed if budget is not None else 0,
        server_attempts=world.server_attempts(),
        window_ops=world.window_ops,
        window_attempts=sum(world.window_attempts),
        fast_failures=breaker.fast_failures if breaker is not None else 0,
        breaker_states=(
            breaker.state_sequence() if breaker is not None else []
        ),
        minutes=avail.minutes,
        bad_minutes=avail.bad_minutes,
        zero_minutes=avail.zero_minutes,
        worst_minute_availability=avail.worst_minute_availability,
        mean_minute_availability=avail.mean_minute_availability,
        client_failovers=world.client.failovers,
    )
    if latency.count:
        cell.p50_ms = float(latency.percentile(50)) * 1000.0
        cell.p99_ms = float(latency.percentile(99)) * 1000.0
    if world.geo is not None:
        cell.account_failovers = world.geo.failovers
        cell.account_failbacks = world.geo.failbacks
        cell.lost_writes = world.geo.lost_writes
    return cell


def _run_mode(
    spec: CampaignSpec, mode: str, policy: Optional[PolicySpec] = None
) -> ModeResult:
    """One (policy, mode) cell at event level: every client operation
    really simulated."""
    world = build_campaign_world(spec, mode, policy=policy)
    world.start_issuer(*issue_schedule(spec))
    world.env.run(until=spec.duration_s + spec.grace_s)
    return collect_mode_result(world)


def _campaign_cell(
    spec: CampaignSpec,
    policy: PolicySpec,
    mode: str,
    fast: bool = False,
    guard_band_s: Optional[float] = None,
) -> ModeResult:
    """One grid cell (module-level, so the process-pool fan-out can
    pickle it)."""
    if fast:
        from repro.resilience.fastforward import fast_run_mode

        return fast_run_mode(
            spec, mode, guard_band_s=guard_band_s, policy=policy
        )
    return _run_mode(spec, mode, policy)


def run_campaign(
    spec: CampaignSpec,
    fast: bool = False,
    guard_band_s: Optional[float] = None,
    jobs: int = 1,
) -> CampaignReport:
    """Replay ``spec``'s fault schedule once per (policy, mode) cell
    (same seed, same schedule, same op mix).

    ``fast`` switches every cell to the piecewise-stationary
    fast-forward driver (:mod:`repro.resilience.fastforward`);
    ``guard_band_s`` widens/narrows its event-level guard bands.
    ``jobs`` fans the cells over a process pool
    (:func:`repro.parallel.run_trials`) — each cell is an independent
    world, so parallel execution is bit-identical to serial.
    Raises :class:`ValueError` for a ``guard_band_s`` without ``fast``.
    """
    if guard_band_s is not None and not fast:
        raise ValueError(
            "a guard band applies only to the fast-forward driver "
            "(--fast)"
        )
    cells = [
        (spec, p, m, fast, guard_band_s)
        for p in spec.policies for m in spec.modes
    ]
    if jobs != 1 and len(cells) > 1:
        from repro.parallel import run_trials

        results = run_trials(_campaign_cell, cells, jobs=jobs)
    else:
        results = []
        for cell in cells:
            results.append(_campaign_cell(*cell))
            # A cell's world is one reference cycle through its
            # environment (the pre-bound ``timeout``/``process``
            # factories): free it before the next cell builds its own.
            gc.collect()
    return CampaignReport(
        spec, list(results), fast=fast, guard_band_s=guard_band_s
    )


# -- standard campaigns (the CLI scenarios) ---------------------------------

def month_campaign_spec(seed: int = 3, scale: float = 1.0) -> CampaignSpec:
    """The headline campaign: thirty days, four correlated outages.

    A rack power event (crash + restart semantics), a zone blackout, a
    WAN partition isolating the secondary region, and a full primary
    region blackout.  ``scale`` compresses simulated time (duration and
    schedule alike); the op cadence is fixed, so scaled runs issue
    proportionally fewer operations.
    """
    day = 86400.0 * scale
    hour = 3600.0 * scale
    return CampaignSpec(
        name="month",
        duration_s=30 * day,
        faults=(
            DomainFault("rack-a1", 3 * day, 2 * hour, "crash_restart"),
            DomainFault("zone-a", 10 * day, 4 * hour, "blackout"),
            DomainFault("wan", 17 * day, 8 * hour, "blackout"),
            DomainFault("region-a", 24 * day, 6 * hour, "blackout"),
        ),
        seed=seed,
        slo_availability=0.999,
    )


def day_campaign_spec(seed: int = 3, scale: float = 1.0) -> CampaignSpec:
    """The CI smoke campaign: one simulated day, three correlated
    outages (rack crash, zone blackout, WAN partition)."""
    hour = 3600.0 * scale
    return CampaignSpec(
        name="day",
        duration_s=24 * hour,
        faults=(
            DomainFault("rack-a1", 2 * hour, 0.5 * hour, "crash_restart"),
            DomainFault("zone-a", 8 * hour, 1.5 * hour, "blackout"),
            DomainFault("wan", 16 * hour, 2 * hour, "blackout"),
        ),
        n_clients=4,
        op_interval_s=60.0,
        seed=seed,
        promotion_s=60.0,
        detection_interval_s=60.0,
        confirm_probes=2,
        failback_probes=10,
        replication_lag_s=120.0,
        slo_availability=0.99,
    )


def _drill_spec(
    name: str,
    window: FaultWindow,
    seed: int,
    scale: float,
    slo_availability: float = 0.9,
    slo_p99_ms: float = 10_000.0,
    slo_amplification: float = 1.5,
) -> CampaignSpec:
    """A five-minute server-window drill: 24 open-loop writers, the
    policy matrix, one single-region account."""
    return CampaignSpec(
        name=name,
        faults=(),
        windows=(window,),
        policies=tuple(default_policy_matrix()),
        modes=("none",),
        duration_s=300.0 * scale,
        n_clients=24,
        op_interval_s=2.0,
        read_fraction=0.0,
        entity_kb=64.0,
        seed=seed,
        slo_availability=slo_availability,
        slo_p99_ms=slo_p99_ms,
        slo_amplification=slo_amplification,
    )


def storm_drill_spec(seed: int = 3, scale: float = 1.0) -> CampaignSpec:
    """The headline drill: an intense 503 storm mid-run.

    From t=60 s a 30-second window rejects 95% of requests.  The seed
    linear policy replays rejected work on a fixed 1-2-3 s cadence, so
    every retry lands back inside the storm (high in-window
    amplification, little availability gained); the jittered exponential
    spreads its retries across a ~minute horizon, so most operations
    ride the window out, while the retry budget caps the total extra
    load the server sees.
    """
    return _drill_spec(
        "server-busy-storm",
        FaultWindow(60.0 * scale, 30.0 * scale, "server_busy_storm", 0.95),
        seed, scale,
        slo_availability=0.93,
        slo_p99_ms=60_000.0,
        slo_amplification=1.2,
    )


def crash_drill_spec(seed: int = 3, scale: float = 1.0) -> CampaignSpec:
    """A partition-server crash + restart: total loss for 45 s."""
    return _drill_spec(
        "crash-restart",
        FaultWindow(60.0 * scale, 45.0 * scale, "crash_restart"),
        seed, scale,
    )


def error_burst_drill_spec(seed: int = 3, scale: float = 1.0) -> CampaignSpec:
    """An HTTP-500 burst: the server answers but errors on 60%."""
    return _drill_spec(
        "error-burst",
        FaultWindow(60.0 * scale, 90.0 * scale, "error_burst", 0.6),
        seed, scale,
    )


CAMPAIGN_SCENARIOS = {
    "month": month_campaign_spec,
    "day": day_campaign_spec,
    "storm": storm_drill_spec,
    "crash": crash_drill_spec,
    "burst": error_burst_drill_spec,
}

__all__ = [
    "CAMPAIGN_MODES",
    "CAMPAIGN_SCENARIOS",
    "GEO_POLICY",
    "CampaignReport",
    "CampaignSpec",
    "CampaignWorld",
    "ModeResult",
    "PRIMARY_DOMAIN",
    "PolicySpec",
    "SECONDARY_DOMAINS",
    "build_campaign_world",
    "collect_mode_result",
    "crash_drill_spec",
    "day_campaign_spec",
    "default_policy_matrix",
    "error_burst_drill_spec",
    "issue_schedule",
    "month_campaign_spec",
    "run_campaign",
    "storm_drill_spec",
]
