"""Dapper-style causal spans for the unified request path.

A :class:`Span` is one timed, named interval inside a request: the
client call, one retry/hedge attempt, the server-side pipeline pass,
each pipeline stage, a partition-server wait, a network flow.  Spans
carry a ``trace_id`` (one per client call, usually) and a ``parent_id``
so the exporters can rebuild the causal tree::

    call:blob.download                      (kind=client)
      attempt:blob.download #0              (kind=attempt)
        blob.get                            (kind=server)
          stage:base_latency                (kind=stage)
          stage:transfer                    (kind=stage)
            flow:blob-dl:shared-1gb         (kind=flow)
          stage:commit                      (kind=stage)

**Propagation without perturbation.**  The simulation interleaves many
processes, so a plain "current span" global would leak context between
requests.  Instead, :meth:`SpanTracer.bind` wraps a process generator
and installs the span's context as :attr:`SpanTracer.current` around
*each advance* of that generator (the kernel never preempts a generator
mid-step, so this is exactly thread-local semantics for simulation
processes).  Code running under the binding -- the service op, the
pipeline, the partition server -- reads ``tracer.current`` to parent
its own spans.  Every span operation records clock readings only: no
RNG draw, no scheduled event, which is what keeps golden digests
bit-identical with tracing enabled.

Span and trace ids are drawn from plain counters (never from an RNG)
for the same reason.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Generator, List, NamedTuple, Optional

#: Status recorded on a span whose generator was torn down before
#: completing (an orphaned attempt collected at interpreter shutdown).
ABANDONED = "abandoned"

#: Span kinds used by the instrumented request path.
CLIENT = "client"
ATTEMPT = "attempt"
SERVER = "server"
STAGE = "stage"
WAIT = "wait"
FLOW = "flow"


class SpanContext(NamedTuple):
    """The (trace, span) coordinates a child span parents itself under."""

    trace_id: int
    span_id: int


@dataclass
class Span:
    """One timed interval inside a request.

    ``end_s`` is ``None`` while the span is open; ``status`` is ``"ok"``,
    the terminating exception's class name, or :data:`ABANDONED`.
    Times are simulation seconds.
    """

    name: str
    kind: str
    trace_id: int
    span_id: int
    parent_id: Optional[int]
    start_s: float
    end_s: Optional[float] = None
    status: str = "ok"
    attributes: Dict[str, Any] = field(default_factory=dict)

    @property
    def context(self) -> SpanContext:
        return SpanContext(self.trace_id, self.span_id)

    @property
    def finished(self) -> bool:
        return self.end_s is not None

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    @property
    def duration_s(self) -> float:
        if self.end_s is None:
            raise ValueError(f"span {self.name!r} is still open")
        return self.end_s - self.start_s

    def __repr__(self) -> str:
        when = (
            f"{self.start_s:.6f}..{self.end_s:.6f}"
            if self.end_s is not None
            else f"{self.start_s:.6f}.."
        )
        return (
            f"<Span {self.name!r} kind={self.kind} trace={self.trace_id}"
            f" id={self.span_id} parent={self.parent_id} [{when}]"
            f" {self.status}>"
        )


class SpanTracer:
    """Collects spans with bounded retention and ambient-context binding.

    ``capacity`` bounds how many spans are retained (newest win; the
    ``started``/``finished``/``dropped`` counters stay exact).  Pass
    ``capacity=None`` to retain everything — the right setting for a
    ``repro run scenario:… --trace`` export.
    """

    def __init__(
        self, capacity: Optional[int] = 200_000, enabled: bool = True
    ) -> None:
        if capacity is not None and capacity <= 0:
            raise ValueError("capacity must be positive (or None)")
        self.capacity = capacity
        self.enabled = enabled
        self._spans: List[Span] = []
        self._next_span_id = 0
        self._next_trace_id = 0
        self.started = 0
        self.finished = 0
        self.errors = 0
        self.dropped = 0
        #: Ambient context, valid only synchronously inside a generator
        #: advance made under :meth:`bind` (or a :meth:`scope` block).
        self.current: Optional[SpanContext] = None

    # -- creation ----------------------------------------------------------
    def new_trace_id(self) -> int:
        self._next_trace_id += 1
        return self._next_trace_id

    def start(
        self,
        name: str,
        kind: str,
        at: float,
        parent: Optional[SpanContext] = None,
        **attributes: Any,
    ) -> Span:
        """Open a span at simulation time ``at``.

        With no ``parent`` the span roots a fresh trace.
        """
        self._next_span_id += 1
        span = Span(
            name=name,
            kind=kind,
            trace_id=(
                parent.trace_id if parent is not None else self.new_trace_id()
            ),
            span_id=self._next_span_id,
            parent_id=parent.span_id if parent is not None else None,
            start_s=at,
            attributes=attributes,
        )
        self.started += 1
        self._append(span)
        return span

    def finish(self, span: Span, at: float, status: str = "ok") -> None:
        """Close a span at simulation time ``at``."""
        if span.end_s is not None:
            return  # idempotent: abandoned generators may close twice
        span.end_s = at
        span.status = status
        self.finished += 1
        if status != "ok":
            self.errors += 1

    def emit(
        self,
        name: str,
        kind: str,
        start: float,
        end: float,
        parent: Optional[SpanContext] = None,
        status: str = "ok",
        **attributes: Any,
    ) -> Span:
        """Record an already-complete span (start and end both known)."""
        span = self.start(name, kind, start, parent, **attributes)
        self.finish(span, end, status)
        return span

    def _append(self, span: Span) -> None:
        self._spans.append(span)
        cap = self.capacity
        if cap is None:
            return
        spans = self._spans
        # Trim in blocks so retention is O(1) amortized per span.
        if len(spans) >= cap + max(cap // 4, 1):
            drop = len(spans) - cap
            del spans[:drop]
            self.dropped += drop

    # -- ambient-context propagation ---------------------------------------
    def bind(
        self,
        env: Any,
        generator: Generator,
        span: Span,
    ) -> Generator:
        """Drive ``generator`` with ``span`` as the ambient context.

        Around every advance of the wrapped generator,
        :attr:`current` is set to the span's context and restored
        afterwards, so any span opened synchronously inside the
        generator's code parents itself correctly even though the
        kernel interleaves many processes.  The span is finished when
        the generator returns (status ``"ok"``), raises (the exception
        class name), or is torn down unfinished (:data:`ABANDONED`).

        The wrapper yields exactly the events the inner generator
        yields — it adds no kernel events and draws no randomness.
        """
        ctx = span.context
        value: Any = None
        error: Optional[BaseException] = None
        try:
            while True:
                self.current, restore = ctx, self.current
                try:
                    if error is None:
                        target = generator.send(value)
                    else:
                        target = generator.throw(error)
                        error = None
                except StopIteration as stop:
                    self.finish(span, env.now, "ok")
                    return stop.value
                finally:
                    self.current = restore
                try:
                    value = yield target
                    error = None
                except BaseException as exc:  # noqa: BLE001 - relayed below
                    value, error = None, exc
        except GeneratorExit:
            # Torn down unfinished (orphan collected): close the span
            # with the clock wherever it stands, then let go.
            self.finish(span, env.now, ABANDONED)
            generator.close()
            raise
        except BaseException as exc:
            self.finish(span, env.now, type(exc).__name__)
            raise

    # -- retrieval ---------------------------------------------------------
    def spans(self) -> List[Span]:
        """Retained spans in start order (open spans included)."""
        return list(self._spans)

    def traces(self) -> Dict[int, List[Span]]:
        """Retained spans grouped by trace id, each in start order."""
        out: Dict[int, List[Span]] = {}
        for span in self._spans:
            out.setdefault(span.trace_id, []).append(span)
        return out

    def trace(self, trace_id: int) -> List[Span]:
        return [s for s in self._spans if s.trace_id == trace_id]

    def open_spans(self) -> List[Span]:
        return [s for s in self._spans if not s.finished]

    def clear(self) -> None:
        self._spans.clear()
        self.started = 0
        self.finished = 0
        self.errors = 0
        self.dropped = 0
        self.current = None

    def __len__(self) -> int:
        return len(self._spans)

    def __repr__(self) -> str:
        return (
            f"<SpanTracer started={self.started} finished={self.finished}"
            f" errors={self.errors} dropped={self.dropped}>"
        )


__all__ = [
    "ABANDONED",
    "ATTEMPT",
    "CLIENT",
    "FLOW",
    "SERVER",
    "STAGE",
    "WAIT",
    "Span",
    "SpanContext",
    "SpanTracer",
]
