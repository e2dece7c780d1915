"""The declarative base every typed storage client is built on.

The three 2009-style clients (blob, table, queue) share one call path,
:meth:`ServiceClient._call`: an attempt factory (optionally hedged for
idempotent reads) run through :func:`repro.client.base.with_retries` —
timeout race, bounded retry, optional retry budget and circuit breaker.
A call returns its result or raises the final error; callers that
measure latency or availability time the call and catch the error
themselves.  :class:`ServiceClient` specifies that wiring once; a typed
client is then just an op table::

    class QueueClient(ServiceClient):
        def peek(self, queue):
            result = yield from self._call(
                "queue.peek", lambda: self.service.peek(queue),
                hedgeable=True,
            )
            return result

Every client call additionally reports its op kind, latency, retry
count and outcome to the service's :class:`RequestTracer` — the client
half of the per-request aggregates (the request pipeline reports the
service half).  When the tracer carries a
:class:`~repro.observability.spans.SpanTracer`, every call opens a
``call:<op>`` span and every raw attempt (each retry, each hedge leg)
runs under its own ``attempt`` span bound as ambient context, so the
pipeline's server spans parent themselves into the right attempt.
The client keeps cumulative ``retries`` and ``failovers`` counters.

Replica-aware routing
---------------------
A client built with a ``secondary`` service (usually via a
:class:`~repro.storage.account.GeoReplicatedAccount` helper) learns
three more behaviours:

* **routing** — ``self.service`` resolves per *attempt* to the replica
  the current leg targets (op-table lambdas bind the service at
  invocation time, so the same op tables serve both replicas); a fresh
  call targets the replica ``route_hint`` names, else the primary;
* **failover** — when the whole first-replica pass fails with a
  transport failure (:func:`repro.storage.errors.is_transport_failure`)
  after the retry budget, the call runs one more full retry pass
  against the other replica before giving up;
* **hedged reads** — idempotent ops with a
  :class:`~repro.resilience.hedging.HedgePolicy` launch their hedge
  backup against the *other* replica, so a slow or dying region is
  raced against a healthy one.

Attempt and call spans carry a ``replica`` attribute on replica-aware
clients, on success and on failure, so a ``--trace`` waterfall renders
cross-region failover.  Clients without a secondary take
exactly the seed code path: no extra events, no extra span attributes,
bit-identical golden outputs.
"""

from __future__ import annotations

from functools import partial
from typing import Any, Callable, Generator, Optional

from repro.client.base import with_retries
from repro.observability import spans as spanlib
from repro.observability.spans import Span, SpanTracer
from repro.resilience.backoff import RetryPolicy
from repro.resilience.hedging import HedgePolicy, hedged_call
from repro.service.tracing import RequestTracer
from repro.storage.errors import is_transport_failure


class ServiceClient:
    """Shared retry/hedge/breaker/failover wiring for one storage service.

    Parameters
    ----------
    service:
        The (primary) service endpoint; must expose ``env`` and
        (optionally) a ``tracer`` the client inherits for call-level
        traces.
    timeout_s:
        Client-side operation timeout raced against every attempt
        (None disables the race — blob transfers stream instead).
    retry:
        :class:`RetryPolicy`; defaults to the 2009 StorageClient policy.
    budget / breaker:
        Optional resilience hooks (see :mod:`repro.resilience`).
    hedge:
        Optional :class:`HedgePolicy`, applied only to ops a subclass
        marks ``hedgeable=True`` (idempotent reads).
    secondary:
        Optional same-shaped replica endpoint; enables replica routing,
        the failover pass and cross-replica hedging.
    route_hint:
        Optional callable returning ``"primary"``/``"secondary"``: which
        replica a fresh call should target (an account's failover state
        machine plugs in here).
    write_guard:
        Optional callable ``(kind, replica)`` raising a retryable error
        when the replica cannot accept a mutating op (read-only
        promotion windows, writes to the demoted replica).
    on_commit:
        Optional callable ``(kind, replica)`` invoked after a successful
        call (replication-lag accounting).
    """

    def __init__(
        self,
        service: Any,
        timeout_s: Optional[float] = None,
        retry: Optional[RetryPolicy] = None,
        budget: Optional[Any] = None,
        breaker: Optional[Any] = None,
        hedge: Optional[HedgePolicy] = None,
        secondary: Optional[Any] = None,
        route_hint: Optional[Callable[[], str]] = None,
        write_guard: Optional[Callable[[str, str], None]] = None,
        on_commit: Optional[Callable[[str, str], None]] = None,
    ) -> None:
        self._primary = service
        self.env = service.env
        self.timeout_s = timeout_s
        self.retry = retry if retry is not None else RetryPolicy()
        self.budget = budget
        self.breaker = breaker
        self.hedge = hedge
        self.secondary = secondary
        self.route_hint = route_hint
        self.write_guard = write_guard
        self.on_commit = on_commit
        #: Calls that succeeded only via the cross-replica failover pass.
        self.failovers = 0
        #: Retries this client has made, over every call and both passes.
        self.retries = 0
        self._route_override: Optional[str] = None
        self.tracer: Optional[RequestTracer] = getattr(
            service, "tracer", None
        )

    # -- replica routing ---------------------------------------------------
    @property
    def service(self) -> Any:
        """The replica this attempt (or a fresh call) targets.

        Op tables read ``self.service`` when an attempt factory is
        invoked, so each retry/hedge/failover leg re-resolves it; with
        no secondary this is always the primary, as in the seed.
        """
        replica = self._route_override
        if replica is None and self.secondary is not None:
            replica = self._default_replica()
        if replica == "secondary" and self.secondary is not None:
            return self.secondary
        return self._primary

    def _default_replica(self) -> str:
        if self.route_hint is not None and self.route_hint() == "secondary":
            return "secondary"
        return "primary"

    def _routed(
        self, make: Callable[[], Generator], replica: str
    ) -> Callable[[], Generator]:
        """Pin ``self.service`` to ``replica`` while the op-table lambda
        builds its generator (service resolution is synchronous)."""

        def factory() -> Generator:
            previous = self._route_override
            self._route_override = replica
            try:
                return make()
            finally:
                self._route_override = previous

        return factory

    def _write_guarded(
        self, kind: str, make: Callable[[], Generator], replica: str
    ) -> Callable[[], Generator]:
        """Run the write guard inside the attempt generator, so a
        rejection surfaces through the retry/span machinery like any
        other per-attempt failure."""

        def guarded() -> Generator:
            assert self.write_guard is not None
            self.write_guard(kind, replica)
            result = yield from make()
            return result

        return lambda: guarded()

    def _leg(
        self,
        kind: str,
        make: Callable[[], Generator],
        hedgeable: bool,
        spans: Optional[SpanTracer],
        call_span: Optional[Span],
        counter: list,
        replica: Optional[str],
    ) -> Callable[[], Generator]:
        """Compose one replica's attempt factory: routing, write guard,
        attempt span."""
        inner = make
        if replica is not None:
            inner = self._routed(make, replica)
        if self.write_guard is not None and not hedgeable:
            inner = self._write_guarded(kind, inner, replica or "primary")
        if spans is not None and call_span is not None:
            inner = self._spanned(kind, inner, spans, call_span, counter,
                                  replica)
        return inner

    # -- the one call path -------------------------------------------------
    def _spanned(
        self,
        kind: str,
        make: Callable[[], Generator],
        spans: SpanTracer,
        call_span: Span,
        counter: list,
        replica: Optional[str] = None,
    ) -> Callable[[], Generator]:
        """Wrap the *raw* attempt factory so every invocation — each
        retry, each hedge leg, each failover leg — runs under its own
        attempt span, bound as the ambient context the server span will
        parent into.  ``counter`` is shared across a call's legs, so
        attempt indices stay globally ordered within the call."""

        def factory() -> Generator:
            index = counter[0]
            counter[0] += 1
            attrs: dict = {"attempt": index}
            if replica is not None:
                attrs["replica"] = replica
            attempt = spans.start(
                f"attempt:{kind} #{index}",
                spanlib.ATTEMPT,
                self.env.now,
                parent=call_span.context,
                **attrs,
            )
            return spans.bind(self.env, make(), attempt)

        return factory

    def _call(
        self,
        kind: str,
        make: Callable[[], Generator],
        hedgeable: bool = False,
    ) -> Generator:
        """Run one client call: the result, or the final error raised
        after every retry (and, with a secondary, the failover pass)."""
        spans: Optional[SpanTracer] = getattr(self.tracer, "spans", None)
        if spans is not None and not spans.enabled:
            spans = None
        call_span = None
        counter = [0]
        if spans is not None:
            call_span = spans.start(
                f"call:{kind}",
                spanlib.CLIENT,
                self.env.now,
                parent=spans.current,
                op=kind,
            )
        started_at = self.env.now
        retries = [0]

        def count_retry(_error: BaseException, _attempt: int) -> None:
            retries[0] += 1
            self.retries += 1

        first: Optional[str] = None
        second: Optional[str] = None
        if self.secondary is not None:
            first = self._default_replica()
            second = "secondary" if first == "primary" else "primary"
        factory = self._leg(kind, make, hedgeable, spans, call_span, counter,
                            first)
        if hedgeable and self.hedge is not None:
            factory = partial(
                hedged_call, self.env, factory, self.hedge, kind,
                make_backup=None if second is None else self._leg(
                    kind, make, hedgeable, spans, call_span, counter, second
                ),
            )
        used = first
        try:
            try:
                result = yield from with_retries(
                    self.env, factory, self.retry, self.timeout_s, kind,
                    on_retry=count_retry,
                    budget=self.budget, breaker=self.breaker,
                )
            except Exception as error:
                if second is None or not is_transport_failure(error):
                    raise
                # The whole first-replica pass failed at transport
                # level: one more full retry pass, other replica.
                used = second
                result = yield from with_retries(
                    self.env,
                    self._leg(kind, make, hedgeable, spans, call_span,
                              counter, second),
                    self.retry, self.timeout_s,
                    kind, on_retry=count_retry,
                    budget=self.budget, breaker=self.breaker,
                )
                self.failovers += 1
        except Exception as error:
            self._finish_call(kind, started_at, retries[0], spans,
                              call_span, used, error)
            raise
        if self.on_commit is not None:
            self.on_commit(kind, used or "primary")
        self._finish_call(kind, started_at, retries[0], spans, call_span,
                          used, None)
        return result

    def _finish_call(
        self,
        kind: str,
        started_at: float,
        retries: int,
        spans: Optional[SpanTracer],
        call_span: Optional[Span],
        replica: Optional[str],
        error: Optional[BaseException],
    ) -> None:
        """Report the call to the tracer and close the call span; the
        span names the replica that answered (or failed) exactly when
        the client has a secondary."""
        if self.tracer is not None:
            # ``self.service`` re-resolves routing; without a secondary
            # it is always the primary.
            service = (
                self._primary if self.secondary is None else self.service
            )
            self.tracer.observe_call(
                getattr(service, "name", "service"), kind,
                self.env.now - started_at, error is None, retries,
            )
        if spans is None or call_span is None:
            return
        call_span.attributes["retries"] = retries
        if replica is not None:
            call_span.attributes["replica"] = replica
        spans.finish(
            call_span, self.env.now,
            "ok" if error is None else type(error).__name__,
        )


__all__ = ["ServiceClient"]
