"""The request pipeline every storage service runs on.

One request = one pass through :meth:`RequestPipeline.execute`, whose
stages mirror the real Azure front-end path the paper measured:

    admission  ->  base latency  ->  precheck  ->  partition routing
    -> server queue/latch  ->  server-side work  ->  network transfer
    -> commit / completion

Each service (blob, table, queue) supplies only the stages its
operations use: the blob path has network transfers but no partition
server; table and queue route to partition servers but move no bulk
bytes.  The pipeline is *stage-exact* with the per-service request code
it replaced — every RNG draw and kernel event happens at the same
simulation instant in the same order, which is what keeps the golden
experiment digests bit-identical.

Laziness rules (load-bearing for bit-neutrality):

* ``op`` may be a zero-argument callable returning an :class:`OpSpec`;
  it is evaluated *after* the base-latency delay, immediately before
  ``server.execute`` — some table ops size themselves from state read
  at that instant.
* ``transfer`` may likewise be a callable returning a
  :class:`TransferSpec`, evaluated when the transfer stage starts.
* ``commit`` runs after every delay stage; state mutation and
  semantic errors (not-found, precondition) belong there, at the same
  instant the legacy code performed them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Generator, Optional, Tuple, Union

import numpy as np

from repro.observability import spans as spanlib
from repro.observability.spans import SpanTracer
from repro.service.spec import OpSpec
from repro.service.tracing import RequestTracer


@dataclass(frozen=True)
class LatencyProfile:
    """Base request latency: a fixed floor plus exponential jitter.

    ``draw`` returns ``base * fixed_frac + Exp(base * jitter_frac)``.
    Blob uses (0.8, 0.2); table and queue use (0.85, 0.15).
    """

    fixed_frac: float = 0.85
    jitter_frac: float = 0.15

    def __post_init__(self) -> None:
        if not (self.fixed_frac >= 0 and self.jitter_frac >= 0):
            raise ValueError(
                "latency fractions must be >= 0, got "
                f"{self.fixed_frac}, {self.jitter_frac}"
            )

    def draw(
        self, std_exp: Callable[[], float], base_s: float
    ) -> float:
        """One latency over ``base_s > 0``; ``std_exp`` is a generator's
        bound ``standard_exponential``.  ``mean * std_exp()`` is bit for
        bit ``exponential(mean)`` from the same stream position, and a
        zero ``jitter_frac`` still takes its draw."""
        return base_s * self.fixed_frac + base_s * self.jitter_frac * std_exp()


@dataclass(frozen=True)
class TransferSpec:
    """A bulk network transfer performed by the request.

    ``acquire``/``release`` bracket the flow for connection accounting
    (the blob front-end service curves read per-link connection counts
    while the flow is active); ``release`` runs in a ``finally`` so
    abandoned requests never leak a connection.
    """

    route: Tuple[Any, ...]
    size_mb: float
    label: str = ""
    acquire: Optional[Callable[[], None]] = None
    release: Optional[Callable[[], None]] = None


#: Stage inputs that may be supplied lazily.
OpInput = Union[OpSpec, Callable[[], OpSpec], None]
TransferInput = Union[TransferSpec, Callable[[], TransferSpec], None]


class RequestPipeline:
    """Executes requests for one storage service.

    Parameters
    ----------
    env / rng:
        The simulation environment and the service's RNG stream.
    service:
        Service name stamped on traces and errors (e.g. ``"storage.blob"``).
    latency:
        The service's :class:`LatencyProfile`.
    network:
        :class:`repro.network.FlowNetwork` (required for transfer stages).
    router:
        Maps a routing key to a partition server (required for routed ops).
    owner:
        The service object; consulted for its ``fault_injector`` at
        admission so drills keep working unchanged.
    tracer:
        Optional :class:`RequestTracer`; every request reports its
        latency, queue wait, transfer time, payload size and outcome to
        it on completion, failures included.
    """

    def __init__(
        self,
        env: Any,
        rng: np.random.Generator,
        service: str,
        latency: LatencyProfile = LatencyProfile(),
        network: Optional[Any] = None,
        router: Optional[Callable[[Any], Any]] = None,
        owner: Optional[Any] = None,
        tracer: Optional[RequestTracer] = None,
    ) -> None:
        self.env = env
        self.rng = rng
        self._std_exp = rng.standard_exponential
        self.service = service
        self.latency = latency
        self.network = network
        self.router = router
        self.owner = owner
        self.tracer = tracer

    @property
    def fault_injector(self) -> Optional[Any]:
        """The owning service's fault injector (drills set it per-service)."""
        return getattr(self.owner, "fault_injector", None)

    # -- execution ---------------------------------------------------------
    def execute(
        self,
        kind: str,
        op: OpInput = None,
        *,
        base_latency_s: float = 0.0,
        admit: bool = False,
        admit_op: Optional[OpSpec] = None,
        precheck: Optional[Callable[[], None]] = None,
        route: Optional[Any] = None,
        work_s: float = 0.0,
        transfer: TransferInput = None,
        commit: Optional[Callable[[], Any]] = None,
    ) -> Generator:
        """Run one request; yields inside the caller's process.

        Stage order (each optional, all in this sequence):

        1. *admission* — if ``admit``, the owner's fault injector may
           delay or fail the request (``admit_op`` names the op to it);
        2. *base latency* — one ``latency.draw`` over ``base_latency_s``;
        3. ``precheck()`` — early semantic validation;
        4. *routing* — ``router(route)`` picks the partition server and
           ``op`` (evaluated now if callable) runs on it; the server
           returns the request's queue/latch wait;
        5. *work* — a deterministic ``work_s`` server-side delay;
        6. *transfer* — the flow runs on ``network`` with connection
           accounting and a ``poke`` on completion;
        7. ``commit()`` — state mutation; its return value is the
           request's result.

        Every request, successful or not, is folded into the tracer's
        aggregates once, with the stage timings observed up to the
        outcome.  When the tracer carries a
        :class:`~repro.observability.spans.SpanTracer`, the request also
        emits a span tree — one server span (parented under the ambient
        client-attempt context if one is bound) with one child per
        executed stage, wait spans under the routing stage (fed by the
        server's observer hook), and a flow span under the transfer
        stage.  Span capture reads the clock only: no RNG draw, no
        kernel event.  Without it, no span closure is built at all.
        """
        env = self.env
        started_at = env.now
        size_mb = queue_wait_s = transfer_s = 0.0
        # The attached span collector, if any and enabled (read per
        # request: a collector can be switched off mid-run).
        spans: Optional[SpanTracer] = getattr(self.tracer, "spans", None)
        if spans is not None and not spans.enabled:
            spans = None
        server_span = None
        if spans is not None:
            server_span = spans.start(
                f"{self.service}.{kind}",
                spanlib.SERVER,
                env.now,
                parent=spans.current,
                service=self.service,
                op=kind,
            )
            emit = spans.emit
            server_ctx = server_span.context

            def stage_span(name: str, start_s: float, **attrs: Any) -> None:
                emit(
                    f"stage:{name}",
                    spanlib.STAGE,
                    start_s,
                    env.now,
                    parent=server_ctx,
                    **attrs,
                )

        try:
            if admit:
                injector = self.fault_injector
                if injector is not None:
                    entered = env.now
                    yield from injector.intercept(self.owner, admit_op)
                    if spans is not None:
                        stage_span("admission", entered)

            if base_latency_s > 0:
                delay = self.latency.draw(self._std_exp, base_latency_s)
                entered = env.now
                yield env.timeout(delay)
                if spans is not None:
                    stage_span("base_latency", entered)

            if precheck is not None:
                entered = env.now
                precheck()
                if spans is not None:
                    stage_span("precheck", entered)

            if route is not None:
                if self.router is None:
                    raise ValueError(
                        f"{self.service}: op {kind!r} routes but the"
                        " pipeline has no router"
                    )
                server = self.router(route)
                spec = op() if callable(op) else op
                if spec is None:
                    raise ValueError(
                        f"{self.service}: routed op {kind!r} needs an OpSpec"
                    )
                size_mb = spec.payload_mb
                observer: Optional[Callable[[str, float], None]] = None
                routing_span = None
                if spans is not None:
                    routing_span = spans.start(
                        "stage:routing",
                        spanlib.STAGE,
                        env.now,
                        parent=server_ctx,
                        payload_mb=spec.payload_mb,
                    )
                    routing_ctx = routing_span.context

                    def observe_wait(stage: str, seconds: float) -> None:
                        emit(
                            stage,
                            spanlib.WAIT
                            if stage.endswith("_wait")
                            else spanlib.STAGE,
                            env.now - seconds,
                            env.now,
                            parent=routing_ctx,
                        )

                    observer = observe_wait

                try:
                    # The server returns its queue/latch wait seconds.
                    queue_wait_s = yield from server.execute(
                        spec, observer=observer
                    )
                finally:
                    if spans is not None and routing_span is not None:
                        spans.finish(routing_span, env.now)

            if work_s > 0:
                entered = env.now
                yield env.timeout(work_s)
                if spans is not None:
                    stage_span("work", entered)

            if transfer is not None:
                xfer = transfer() if callable(transfer) else transfer
                if self.network is None:
                    raise ValueError(
                        f"{self.service}: op {kind!r} transfers but the"
                        " pipeline has no network"
                    )
                size_mb = xfer.size_mb
                started = env.now
                if xfer.acquire is not None:
                    xfer.acquire()
                try:
                    flow = self.network.transfer(
                        xfer.route, xfer.size_mb, label=xfer.label
                    )
                    yield flow.done
                finally:
                    if xfer.release is not None:
                        xfer.release()
                    # Connection release changes front-end caps; let the
                    # network re-solve the affected component.
                    self.network.poke()
                transfer_s = env.now - started
                if spans is not None:
                    stage = spans.start(
                        "stage:transfer",
                        spanlib.STAGE,
                        started,
                        parent=server_ctx,
                        size_mb=xfer.size_mb,
                    )
                    spans.emit(
                        f"flow:{xfer.label}" if xfer.label else "flow",
                        spanlib.FLOW,
                        started,
                        env.now,
                        parent=stage.context,
                        size_mb=xfer.size_mb,
                    )
                    spans.finish(stage, env.now)

            if commit is not None:
                entered = env.now
                result = commit()
                if spans is not None:
                    stage_span("commit", entered)
            else:
                result = None
        except BaseException as error:
            if self.tracer is not None:
                self.tracer.observe(
                    self.service, kind, env.now - started_at, False,
                    queue_wait_s, transfer_s, size_mb,
                )
            if spans is not None and server_span is not None:
                spans.finish(server_span, env.now, type(error).__name__)
            raise
        if self.tracer is not None:
            self.tracer.observe(
                self.service, kind, env.now - started_at, True,
                queue_wait_s, transfer_s, size_mb,
            )
        if spans is not None and server_span is not None:
            spans.finish(server_span, env.now)
        return result


__all__ = ["LatencyProfile", "RequestPipeline", "TransferSpec"]
