"""A storage account: one blob + table + queue endpoint triple.

Bundles the three services over a shared flow network, RNG family and
request tracer, the way an Azure subscription sees them.

:class:`GeoReplicatedAccount` adds the multi-region story: a secondary
replica endpoint in another region, asynchronous replication lag, and a
manual/automatic failover policy with a read-only promotion window —
the account-side half of the failure-domain/failover layer (the
client-side half is replica-aware routing in
:class:`repro.client.service_client.ServiceClient`).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Any, Callable, Deque, Generator, List, Optional, Tuple

from repro.network.flows import FlowNetwork
from repro.service.tracing import RequestTracer
from repro.simcore import Environment, RandomStreams
from repro.storage.blob import BlobService
from repro.storage.errors import AccountFailoverError
from repro.storage.queue import QueueService
from repro.storage.table import TableService


class StorageAccount:
    """The storage half of a simulated Azure subscription.

    All three services share one :class:`RequestTracer`, so every
    request against the account — blob, table or queue — lands in one
    set of exact per-``(service, op)`` aggregates and latency histograms
    (read back via :mod:`repro.monitoring`).  Pass
    ``tracer=RequestTracer(enabled=False)`` to disable collection; the
    per-request record is the span tree of a
    :class:`~repro.observability.spans.SpanTracer` attached as the
    tracer's ``spans``.
    """

    def __init__(
        self,
        env: Environment,
        streams: RandomStreams,
        network: Optional[FlowNetwork] = None,
        name: str = "account",
        tracer: Optional[RequestTracer] = None,
    ) -> None:
        self.env = env
        self.name = name
        self.network = network if network is not None else FlowNetwork(env)
        self.tracer = tracer if tracer is not None else RequestTracer()
        self.blobs = BlobService(
            env, streams.stream(f"{name}.blob"), self.network,
            name=f"{name}.blobs", tracer=self.tracer,
        )
        self.tables = TableService(
            env, streams.stream(f"{name}.table"), name=f"{name}.tables",
            tracer=self.tracer,
        )
        self.queues = QueueService(
            env, streams.stream(f"{name}.queue"), name=f"{name}.queues",
            tracer=self.tracer,
        )

    def __repr__(self) -> str:
        return f"<StorageAccount {self.name}>"


# -- geo-replication --------------------------------------------------------

#: Failover state machine: the primary serves everything; during a
#: promotion the account is read-only (reads from the secondary); after
#: promotion the secondary is the active replica.  Failback runs the
#: same promotion window in reverse.
GEO_PRIMARY = "primary-active"
GEO_FAILING_OVER = "failing-over"
GEO_SECONDARY = "secondary-active"

#: Op-kind suffixes that never mutate state (everything else counts as
#: a write for replication-lag accounting).
_READ_OPS = frozenset({"query", "scan", "peek", "download", "get"})


@dataclass(frozen=True)
class ReplicationConfig:
    """Declarative geo-replication/failover policy for one account.

    ``lag_s`` is the asynchronous replication horizon: a write
    acknowledged on the active replica within ``lag_s`` of a failover
    has not reached the other region and is lost by the promotion
    (counted in :attr:`GeoReplicatedAccount.lost_writes`).
    """

    lag_s: float = 5.0
    #: Read-only promotion window: how long a failover/failback takes.
    promotion_s: float = 30.0
    #: ``manual`` (an operator calls :meth:`~GeoReplicatedAccount.failover`)
    #: or ``automatic`` (a health monitor drives it).
    mode: str = "manual"
    #: Automatic mode: probe cadence and how many consecutive failed
    #: probes confirm a primary outage.
    detection_interval_s: float = 60.0
    confirm_probes: int = 3
    #: Automatic mode: whether (and after how many consecutive healthy
    #: probes) traffic returns to the repaired primary.
    auto_failback: bool = True
    failback_probes: int = 30

    def __post_init__(self) -> None:
        if self.mode not in ("manual", "automatic"):
            raise ValueError("mode must be 'manual' or 'automatic'")
        if self.lag_s < 0 or self.promotion_s < 0:
            raise ValueError("lag_s and promotion_s must be >= 0")
        if self.detection_interval_s <= 0:
            raise ValueError("detection_interval_s must be > 0")
        if self.confirm_probes < 1 or self.failback_probes < 1:
            raise ValueError("probe counts must be >= 1")


class GeoReplicatedAccount:
    """A storage account with a secondary replica in another region.

    Both replicas share one :class:`RequestTracer` (and therefore one
    span collector), so a client call that fails over mid-flight shows
    the cross-region waterfall — primary attempts, then secondary
    attempts — in a single trace.

    The account itself is control plane only: it owns the failover
    state machine, the replication-lag ledger and the health monitor.
    Routing requests *to* a replica is the client's job (see the
    ``secondary``/``route_hint``/``write_guard`` wiring the
    ``*_client`` helpers set up); with no failover scheduled and no
    monitor started, the account adds zero events and zero RNG draws.
    """

    def __init__(
        self,
        env: Environment,
        streams: RandomStreams,
        network: Optional[FlowNetwork] = None,
        secondary_network: Optional[FlowNetwork] = None,
        name: str = "geo",
        replication: Optional[ReplicationConfig] = None,
        tracer: Optional[RequestTracer] = None,
    ) -> None:
        self.env = env
        self.name = name
        self.replication = (
            replication if replication is not None else ReplicationConfig()
        )
        self.tracer = tracer if tracer is not None else RequestTracer()
        self.primary = StorageAccount(
            env, streams, network=network,
            name=f"{name}-primary", tracer=self.tracer,
        )
        self.secondary = StorageAccount(
            env, streams, network=secondary_network,
            name=f"{name}-secondary", tracer=self.tracer,
        )
        self.state = GEO_PRIMARY
        self.failovers = 0
        self.failbacks = 0
        #: Writes acknowledged on the old active replica inside the
        #: replication lag at the moment a promotion started.
        self.lost_writes = 0
        self._recent_writes: Deque[float] = deque()
        #: Every state-machine transition as ``(t, new_state)``, in
        #: order.  Pure bookkeeping (no events, no RNG): the campaign
        #: fast-forward kernel replays this timeline to know which
        #: replica served reads/writes inside each stationary window.
        self.state_log: List[Tuple[float, str]] = [(env.now, self.state)]

    def __repr__(self) -> str:
        return f"<GeoReplicatedAccount {self.name} state={self.state}>"

    # -- routing hooks (bound into clients) --------------------------------
    def read_replica(self) -> str:
        """Where reads go right now: the primary until it is demoted,
        the secondary from the instant a promotion starts (read-only
        degraded mode serves stale-but-available data)."""
        return "primary" if self.state == GEO_PRIMARY else "secondary"

    def write_replica(self) -> Optional[str]:
        """The replica accepting writes, or ``None`` mid-promotion."""
        if self.state == GEO_PRIMARY:
            return "primary"
        if self.state == GEO_SECONDARY:
            return "secondary"
        return None

    def write_guard(self, kind: str, replica: str) -> None:
        """Client pre-flight for mutating ops: raises (retryably) unless
        ``replica`` is the active write replica."""
        active = self.write_replica()
        if active is None:
            raise AccountFailoverError(
                f"{self.name}: account is read-only during promotion",
                service=self.name, op=kind,
            )
        if replica != active:
            raise AccountFailoverError(
                f"{self.name}: {replica} replica is not accepting writes",
                service=self.name, op=kind,
            )

    def on_commit(self, kind: str, replica: str) -> None:
        """Client post-success hook: ledger mutating ops for the
        replication-lag window."""
        if kind.rsplit(".", 1)[-1] in _READ_OPS:
            return
        if replica == self.write_replica():
            self.note_write(self.env.now)

    def _set_state(self, state: str) -> None:
        self.state = state
        self.state_log.append((self.env.now, state))

    # -- replication-lag ledger --------------------------------------------
    def note_write(self, now: float) -> None:
        self._prune(now)
        self._recent_writes.append(now)

    def writes_at_risk(self, now: float) -> int:
        """Acknowledged writes not yet replicated to the other region."""
        self._prune(now)
        return len(self._recent_writes)

    def _prune(self, now: float) -> None:
        horizon = now - self.replication.lag_s
        while self._recent_writes and self._recent_writes[0] <= horizon:
            self._recent_writes.popleft()

    # -- the failover state machine ----------------------------------------
    def failover(self) -> Generator:
        """Promote the secondary (no-op unless the primary is active).

        A generator: drive it from a simulation process.  The promotion
        holds the account read-only for ``promotion_s``; writes inside
        the replication lag at this instant are lost.
        """
        if self.state != GEO_PRIMARY:
            return
        self.lost_writes += self.writes_at_risk(self.env.now)
        self._recent_writes.clear()
        self.failovers += 1
        self._set_state(GEO_FAILING_OVER)
        if self.replication.promotion_s > 0:
            yield self.env.timeout(self.replication.promotion_s)
        self._set_state(GEO_SECONDARY)

    def failback(self) -> Generator:
        """Return to the (repaired) primary; the reverse promotion."""
        if self.state != GEO_SECONDARY:
            return
        self.lost_writes += self.writes_at_risk(self.env.now)
        self._recent_writes.clear()
        self.failbacks += 1
        self._set_state(GEO_FAILING_OVER)
        if self.replication.promotion_s > 0:
            yield self.env.timeout(self.replication.promotion_s)
        self._set_state(GEO_PRIMARY)

    # -- automatic mode ----------------------------------------------------
    def start_monitor(
        self,
        probe: Callable[[], bool],
        horizon_s: Optional[float] = None,
    ) -> Any:
        """Start the health monitor (``mode='automatic'`` only).

        ``probe`` models the fabric's health service: it returns whether
        the *primary* region currently looks reachable.  After
        ``confirm_probes`` consecutive failures the monitor fails over;
        with ``auto_failback``, ``failback_probes`` consecutive healthy
        probes bring traffic home.  ``horizon_s`` bounds the process for
        runs driven by ``env.run()`` with no ``until``.
        """
        if self.replication.mode != "automatic":
            raise ValueError(
                f"{self.name}: start_monitor needs ReplicationConfig"
                "(mode='automatic')"
            )
        return self.env.process(self._monitor(probe, horizon_s))

    def _monitor(
        self, probe: Callable[[], bool], horizon_s: Optional[float]
    ) -> Generator:
        cfg = self.replication
        unhealthy = 0
        healthy = 0
        while horizon_s is None or self.env.now < horizon_s:
            yield self.env.timeout(cfg.detection_interval_s)
            up = bool(probe())
            if self.state == GEO_PRIMARY:
                unhealthy = 0 if up else unhealthy + 1
                if unhealthy >= cfg.confirm_probes:
                    unhealthy = 0
                    yield from self.failover()
            elif self.state == GEO_SECONDARY and cfg.auto_failback:
                healthy = healthy + 1 if up else 0
                if healthy >= cfg.failback_probes:
                    healthy = 0
                    yield from self.failback()

    # -- replica-aware clients ---------------------------------------------
    def table_client(self, **kwargs: Any) -> Any:
        """A :class:`~repro.client.TableClient` wired for this account:
        replica-aware routing, write guarding and lag accounting."""
        from repro.client import TableClient

        return TableClient(
            self.primary.tables,
            secondary=self.secondary.tables,
            route_hint=self.read_replica,
            write_guard=self.write_guard,
            on_commit=self.on_commit,
            **kwargs,
        )
