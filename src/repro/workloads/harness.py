"""Shared experiment scaffolding: one simulated platform per trial.

Besides :func:`build_platform`, this module is the single harness the
storage benchmarks (fig1/fig2/fig3) run on:

* :class:`ClientRun` — the per-client outcome row every bench records;
* :func:`run_clients` — spawn one process per client (in index order,
  which fixes the event schedule) and run the platform to quiescence;
* :func:`sweep` — fan one trial function across concurrency levels via
  :func:`repro.parallel.run_trials` (bit-identical for any ``jobs``).

Every platform carries the storage account's shared
:class:`~repro.service.tracing.RequestTracer`, so any bench run on the
harness folds every request and client call into exact aggregates
retrievable through :mod:`repro.monitoring`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Generator, List, Optional, Sequence, Tuple

from repro.network import Datacenter, FlowNetwork, LatencyModel
from repro.observability.spans import SpanTracer
from repro.parallel import run_trials
from repro.service.tracing import RequestTracer
from repro.simcore import Environment, RandomStreams
from repro.storage import StorageAccount


@dataclass
class Platform:
    """Everything one benchmark trial runs on."""

    env: Environment
    streams: RandomStreams
    network: FlowNetwork
    datacenter: Datacenter
    account: StorageAccount
    latency: LatencyModel
    #: Per-client network endpoints (each on its own host, as the
    #: paper's worker-role test clients were).
    clients: List["HostEndpoint"] = field(default_factory=list)
    #: The account's shared request aggregates (see
    #: :mod:`repro.service.tracing`); read via :mod:`repro.monitoring`.
    tracer: Optional[RequestTracer] = None
    #: The span collector, when the platform was built with
    #: ``spans=True`` (rides on the tracer; ``None`` otherwise).
    spans: Optional[SpanTracer] = None


class HostEndpoint:
    """A worker-role test client pinned to one host."""

    def __init__(self, host) -> None:
        self.host = host
        self.nic_tx = host.nic_tx
        self.nic_rx = host.nic_rx


def build_platform(
    seed: int = 0,
    n_clients: int = 192,
    racks: int = 16,
    hosts_per_rack: int = 16,
    spans: bool = False,
    span_capacity: Optional[int] = None,
) -> Platform:
    """Construct a fresh simulated Azure for one trial.

    Every subsystem draws from its own named stream of ``seed``, so two
    trials with the same seed are bit-identical.  With ``spans=True`` a
    :class:`~repro.observability.spans.SpanTracer` is attached to the
    account's request tracer, so every client call on this platform
    emits a causal span tree (call → attempt → pipeline stage →
    partition/network) — span capture is pure measurement, so results
    stay bit-identical with it on or off.  ``span_capacity`` bounds
    retention (``None`` keeps every span, the right setting for a
    ``repro run scenario:… --trace`` export).
    """
    if n_clients > racks * hosts_per_rack:
        raise ValueError(
            f"{n_clients} clients need more hosts than "
            f"{racks}x{hosts_per_rack} provides"
        )
    env = Environment()
    streams = RandomStreams(seed)
    network = FlowNetwork(env)
    datacenter = Datacenter(racks=racks, hosts_per_rack=hosts_per_rack)
    account = StorageAccount(env, streams, network=network)
    latency = LatencyModel(streams.stream("latency"))
    clients = [HostEndpoint(h) for h in datacenter.hosts[:n_clients]]
    span_tracer = None
    if spans:
        span_tracer = SpanTracer(capacity=span_capacity)
        account.tracer.spans = span_tracer
    return Platform(
        env=env,
        streams=streams,
        network=network,
        datacenter=datacenter,
        account=account,
        latency=latency,
        clients=clients,
        tracer=account.tracer,
        spans=span_tracer,
    )


# -- the unified bench harness -------------------------------------------


@dataclass
class ClientRun:
    """One client's result for one measured run (or phase) of a bench."""

    client: int
    ops_completed: int
    elapsed_s: float
    error: Optional[str] = None

    @property
    def ops_per_s(self) -> float:
        return self.ops_completed / self.elapsed_s if self.elapsed_s > 0 else 0.0

    @property
    def finished(self) -> bool:
        return self.error is None


def run_clients(
    platform: Platform,
    n_clients: int,
    make_proc: Callable[[Environment, int], Generator],
) -> float:
    """Drive one client population to completion; returns the makespan.

    Processes are created in client-index order before the run starts —
    the creation order fixes the event schedule, so it is part of the
    bit-reproducibility contract.
    """
    env = platform.env
    start = env.now
    for idx in range(n_clients):
        env.process(make_proc(env, idx))
    env.run()
    return env.now - start


def sweep(
    run_trial: Callable,
    params: Sequence[Tuple],
    levels: Sequence[int],
    jobs: Optional[int] = 1,
) -> Dict[int, object]:
    """Fan independent per-level trials across worker processes.

    ``params[i]`` is the positional-argument tuple for ``levels[i]``;
    results are merged in level order and are bit-identical for any
    ``jobs`` value (``1`` = in-process, ``None`` = auto).
    """
    return dict(zip(levels, run_trials(run_trial, params, jobs=jobs)))
