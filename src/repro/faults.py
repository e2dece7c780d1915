"""Scriptable fault injection for storage services.

The paper's Section 6.3 lesson — "errors that did not occur at lower
scale will begin to become common as scale increases" — makes fault
drills a first-class need.  A :class:`FaultInjector` attaches to one or
more partition servers (or a :class:`~repro.storage.blob.BlobService`)
and applies time-windowed faults:

* ``server_busy_storm`` — each request is rejected with HTTP-503
  semantics with probability ``magnitude`` (clients retry/back off);
* ``latency_spike``     — each request pays an extra exponential delay
  with mean ``magnitude`` seconds;
* ``blackout``          — every request fails with a connection error
  (network partition: nothing reaches the server);
* ``crash_restart``     — the server process is down and restarting;
  every request fails with a connection error, counted separately so
  drills can distinguish network loss from server loss;
* ``error_burst``       — each request fails with HTTP-500 semantics
  (:class:`OperationTimeoutError`) with probability ``magnitude`` (a
  misbehaving server that answers some requests and breaks others).

Windows are declarative, so drills are reproducible and the same
schedule can be replayed against different retry policies.

Decision order
--------------
Each admission pass applies **at most one** delay-or-raise decision:
active windows are evaluated in ``(start_s, insertion order)`` — the
schedule order — and the first window whose check fires decides; later
overlapping windows are not consulted on that pass.  This makes
overlapping-window drills deterministic and keeps per-window stats
attributable (each decision is charged to exactly one window).
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Any, Dict, Generator, List, Optional, Tuple

import numpy as np

from repro.service.spec import OpSpec
from repro.simcore import Environment
from repro.storage.errors import (
    ConnectionFailureError,
    OperationTimeoutError,
    ServerBusyError,
)
from repro.storage.partition import PartitionServer

FAULT_KINDS = (
    "server_busy_storm",
    "latency_spike",
    "blackout",
    "crash_restart",
    "error_burst",
)

#: Fault kinds whose ``magnitude`` is a per-request probability.
_PROBABILITY_KINDS = ("server_busy_storm", "error_burst")


@dataclass(frozen=True)
class FaultWindow:
    """One scheduled fault episode."""

    start_s: float
    duration_s: float
    kind: str
    #: Rejection/error probability (storm, error_burst), mean extra
    #: seconds (spike); ignored for blackout and crash_restart.
    magnitude: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(
                f"unknown fault kind {self.kind!r}; expected {FAULT_KINDS}"
            )
        if self.duration_s <= 0:
            raise ValueError("duration_s must be > 0")
        if self.kind in _PROBABILITY_KINDS and not 0 <= self.magnitude <= 1:
            raise ValueError(f"{self.kind} magnitude is a probability")
        if self.kind == "latency_spike" and self.magnitude <= 0:
            raise ValueError("spike magnitude is a positive delay")

    @property
    def end_s(self) -> float:
        return self.start_s + self.duration_s

    def covers(self, now: float) -> bool:
        return self.start_s <= now < self.end_s


@dataclass
class FaultStats:
    """Fault decisions, per window or aggregated over an injector."""

    rejections: int = 0
    blackout_failures: int = 0
    crash_failures: int = 0
    error_failures: int = 0
    delays_applied: int = 0
    extra_delay_s: float = 0.0

    def add(self, other: "FaultStats") -> None:
        for f in fields(self):
            setattr(self, f.name, getattr(self, f.name) + getattr(other, f.name))


class FaultInjector:
    """Applies a window schedule to the servers it is attached to.

    :attr:`windows` is kept in decision order, ``(start_s, insertion)``;
    ``window_stats[i]`` holds the decisions charged to ``windows[i]``,
    and :attr:`stats` aggregates them (the seed API).
    """

    def __init__(self, env: Environment, rng: np.random.Generator) -> None:
        self.env = env
        self.rng = rng
        self.windows: List[FaultWindow] = []
        self.window_stats: List[FaultStats] = []

    @property
    def stats(self) -> FaultStats:
        """Aggregate of every window's stats."""
        total = FaultStats()
        for per_window in self.window_stats:
            total.add(per_window)
        return total

    def add_window(
        self,
        start_s: float,
        duration_s: float,
        kind: str,
        magnitude: float = 0.0,
    ) -> FaultWindow:
        window = FaultWindow(start_s, duration_s, kind, magnitude)
        # Insert after every window that starts no later: windows mostly
        # arrive in start order, so the scan is usually empty.
        i = len(self.windows)
        while i and self.windows[i - 1].start_s > start_s:
            i -= 1
        self.windows.insert(i, window)
        self.window_stats.insert(i, FaultStats())
        return window

    def stats_for(self, window: FaultWindow) -> FaultStats:
        """Per-window stats (identity lookup, so duplicates are safe)."""
        for candidate, per_window in zip(self.windows, self.window_stats):
            if candidate is window:
                return per_window
        raise ValueError(f"{window} was not added to this injector")

    def attach(self, server) -> None:
        """Install this injector on a partition server (or blob service)."""
        if server.fault_injector is not None:
            raise ValueError(f"{server.name} already has a fault injector")
        server.fault_injector = self

    # -- the hook the partition server calls ---------------------------------
    def intercept(self, server: PartitionServer, op: OpSpec) -> Generator:
        """Applied at request admission; may delay or raise.

        At most one decision fires per pass (see module docstring).
        """
        now = self.env.now
        for window, stats in zip(self.windows, self.window_stats):
            if not window.covers(now):
                continue
            if window.kind == "blackout":
                stats.blackout_failures += 1
                raise ConnectionFailureError(f"{server.name}: blackout window")
            if window.kind == "crash_restart":
                stats.crash_failures += 1
                raise ConnectionFailureError(
                    f"{server.name}: server crashed, restart in progress"
                )
            if window.kind == "server_busy_storm":
                if self.rng.random() < window.magnitude:
                    stats.rejections += 1
                    raise ServerBusyError(f"{server.name}: shed by 503 storm")
            elif window.kind == "error_burst":
                if self.rng.random() < window.magnitude:
                    stats.error_failures += 1
                    raise OperationTimeoutError(
                        f"{server.name}: internal error burst"
                    )
            elif window.kind == "latency_spike":
                delay = float(self.rng.exponential(window.magnitude))
                stats.delays_applied += 1
                stats.extra_delay_s += delay
                yield self.env.timeout(delay)
                return


# -- correlated domain-scoped faults ----------------------------------------

#: Domain faults are total losses; per-request probabilistic kinds make
#: no sense for a rack that lost power.
DOMAIN_FAULT_KINDS = ("blackout", "crash_restart")

#: Residual rate (MB/s) for flows crossing a blacked-out link — not
#: zero, so in-flight transfers stall rather than divide by zero, and
#: resume at full rate on repair.
BLACKOUT_FLOOR_MBPS = 1e-6


@dataclass(frozen=True)
class DomainFault:
    """One scheduled correlated outage of a whole failure domain.

    Exactly one of ``duration_s`` (deterministic repair) or ``mttr_s``
    (repair time drawn from an exponential with that mean, at fault
    start) must be given.
    """

    domain: str
    start_s: float
    duration_s: Optional[float] = None
    kind: str = "blackout"
    mttr_s: Optional[float] = None

    def __post_init__(self) -> None:
        if self.kind not in DOMAIN_FAULT_KINDS:
            raise ValueError(
                f"unknown domain fault kind {self.kind!r}; "
                f"expected one of {DOMAIN_FAULT_KINDS}"
            )
        if (self.duration_s is None) == (self.mttr_s is None):
            raise ValueError("give exactly one of duration_s or mttr_s")
        if self.duration_s is not None and self.duration_s <= 0:
            raise ValueError("duration_s must be > 0")
        if self.mttr_s is not None and self.mttr_s <= 0:
            raise ValueError("mttr_s must be > 0")


def _expand_servers(member: Any) -> List[Any]:
    """A registered member at fault time: a service with ``servers()``
    expands to its live partition servers; anything else (a partition
    server, or the blob service, which admits through its own slot) is
    a direct target."""
    servers_fn = getattr(member, "servers", None)
    if callable(servers_fn):
        return list(servers_fn())
    return [member]


class DomainFaultInjector:
    """Applies correlated, domain-scoped outages to a failure-domain tree.

    A scheduled :class:`DomainFault` fires at ``start_s`` and, *in one
    simulation instant*, opens a :class:`FaultWindow` of the realized
    repair duration on every server registered in the domain's subtree
    (creating and attaching a per-server :class:`FaultInjector` where
    none exists) and floors every registered link: its flow ceiling on
    each attached network is :data:`BLACKOUT_FLOOR_MBPS` from the first
    covering outage until the last repair clears it.  Window expiry is
    the server-side repair; the link repair is explicit, at the same
    instant.

    Members are expanded when the fault *fires*: partition servers a
    service creates after that instant join only subsequent faults — a
    deliberate simplification (new ranges land on healthy hardware).

    Construction and scheduling are inert until a fault actually fires,
    and a tree with no scheduled faults adds zero events and zero RNG
    draws — the golden-output discipline for this layer.
    """

    def __init__(
        self,
        env: Environment,
        root: Any,
        rng: np.random.Generator,
    ) -> None:
        self.env = env
        self.root = root
        self.rng = rng
        self.faults: List[DomainFault] = []
        #: Chronological fault/repair event log:
        #: ``{"t", "event", "domain", "kind", "servers", "links"}``.
        self.log: List[Dict[str, Any]] = []
        #: Domain name -> active outage count (a domain can be inside
        #: overlapping faults on itself and on ancestors).
        self._down_domains: Dict[str, int] = {}
        #: Link -> active outage count (shared links stay down until
        #: every covering fault has repaired).
        self._down_links: Dict[Any, int] = {}
        self._networks: List[Any] = []

    # -- wiring ------------------------------------------------------------
    def attach_network(self, network: Any) -> None:
        """Floor down links on a flow network during outages
        (idempotent); attached mid-outage, the down links floor at once."""
        if any(existing is network for existing in self._networks):
            return
        self._networks.append(network)
        if self._down_links:
            for link in self._down_links:
                network.set_flow_ceiling(link, BLACKOUT_FLOOR_MBPS)
            network.poke()

    def _set_floor(self, link: Any, floored: bool) -> None:
        for network in self._networks:
            network.set_flow_ceiling(
                link, BLACKOUT_FLOOR_MBPS if floored else None
            )

    def _poke_networks(self) -> None:
        for network in self._networks:
            network.poke()

    # -- scheduling --------------------------------------------------------
    def schedule(
        self,
        domain: str,
        start_s: float,
        duration_s: Optional[float] = None,
        kind: str = "blackout",
        mttr_s: Optional[float] = None,
    ) -> DomainFault:
        """Schedule a correlated outage of ``domain`` (by name)."""
        fault = DomainFault(domain, start_s, duration_s, kind, mttr_s)
        self.root.find(domain)  # fail fast on unknown names
        self.faults.append(fault)
        self.env.process(self._episode(fault))
        return fault

    def is_down(self, domain_name: str) -> bool:
        """Whether the domain — or any ancestor — is inside an outage."""
        domain = self.root.find(domain_name)
        if not self._down_domains:
            return False
        if self._down_domains.get(domain.name, 0) > 0:
            return True
        return any(
            self._down_domains.get(ancestor.name, 0) > 0
            for ancestor in domain.ancestors()
        )

    # -- the outage process ------------------------------------------------
    def _episode(self, fault: DomainFault) -> Generator:
        delay = fault.start_s - self.env.now
        if delay > 0:
            yield self.env.timeout(delay)
        domain = self.root.find(fault.domain)
        if fault.duration_s is not None:
            duration = fault.duration_s
        else:
            assert fault.mttr_s is not None  # enforced by DomainFault
            duration = max(float(self.rng.exponential(fault.mttr_s)), 1e-9)
        # Atomic take-down: every member enters the fault at this instant.
        servers: List[Any] = []
        for member in domain.all_servers():
            servers.extend(_expand_servers(member))
        for server in servers:
            injector = server.fault_injector
            if injector is None:
                injector = FaultInjector(self.env, self.rng)
                injector.attach(server)
            injector.add_window(self.env.now, duration, fault.kind)
        links = domain.all_links()
        for link in links:
            down = self._down_links.get(link, 0) + 1
            self._down_links[link] = down
            if down == 1:
                self._set_floor(link, True)
        if links:
            self._poke_networks()
        self._down_domains[domain.name] = (
            self._down_domains.get(domain.name, 0) + 1
        )
        self.log.append({
            "t": self.env.now, "event": "fault", "domain": domain.name,
            "kind": fault.kind, "servers": len(servers), "links": len(links),
        })
        yield self.env.timeout(duration)
        # Repair: the server windows expire by themselves at this instant;
        # links and domain state are released explicitly.
        for link in links:
            remaining = self._down_links.get(link, 0) - 1
            if remaining > 0:
                self._down_links[link] = remaining
            else:
                self._down_links.pop(link, None)
                self._set_floor(link, False)
        if links:
            self._poke_networks()
        self._down_domains[domain.name] -= 1
        if self._down_domains[domain.name] <= 0:
            del self._down_domains[domain.name]
        self.log.append({
            "t": self.env.now, "event": "repair", "domain": domain.name,
            "kind": fault.kind, "servers": len(servers), "links": len(links),
        })


# -- timeline export ---------------------------------------------------------
#
# Pure functions over an injector's fault/repair ``log``: the campaign
# fast-forward kernel replays a realized schedule (phase 1) into the
# piecewise-stationary window boundaries it solves between (phase 2).
# Nothing here touches the simulation — the log is plain data.

def fault_transition_times(log: List[Dict[str, Any]]) -> List[float]:
    """Every instant the platform's fault state changed, sorted, unique."""
    return sorted({float(entry["t"]) for entry in log})


def domain_down_intervals(
    log: List[Dict[str, Any]],
    names: Any,
    horizon_s: Optional[float] = None,
) -> List[Tuple[float, float]]:
    """Merged ``[start, end)`` intervals during which any domain in
    ``names`` was inside an outage — the offline mirror of
    :meth:`DomainFaultInjector.is_down` for a fixed target: pass the
    domain's own name *plus all its ancestors* to reproduce the
    ancestor-aware health the injector reports live.

    Overlapping episodes merge (depth counting, exactly like the
    injector's ``_down_domains`` refcounts); an episode with no repair
    in the log is closed at ``horizon_s`` (``inf`` when not given).
    """
    wanted = set(names)
    events = sorted(
        (float(entry["t"]), 1 if entry["event"] == "fault" else -1)
        for entry in log
        if entry["domain"] in wanted
    )
    intervals: List[Tuple[float, float]] = []
    depth = 0
    start = 0.0
    for t, delta in events:
        if depth == 0 and delta > 0:
            start = t
        depth += delta
        if depth == 0 and delta < 0:
            intervals.append((start, t))
    if depth > 0:
        intervals.append(
            (start, float("inf") if horizon_s is None else float(horizon_s))
        )
    return intervals
