"""Per-request structured traces for the unified request path.

Every request that runs through :class:`repro.service.pipeline.RequestPipeline`
emits one :class:`RequestTrace` (op kind, payload size, queue wait,
transfer time, outcome); every client call that runs through
:class:`repro.client.service_client.ServiceClient` emits a second,
call-level record carrying the retry count.  Both land in a
:class:`RequestTracer`, which keeps exact running aggregates and
per-``(service, op)`` streaming latency histograms
(:class:`repro.observability.histogram.Histogram`) of every record, so
a full-scale experiment can keep tracing on at a fixed cost per record.
The raw records themselves are kept only in a window the caller asks
for (``capacity``): by default none are, since nothing in a run reads
them, and percentiles never depend on the window.

The tracer is read back through :mod:`repro.monitoring`
(:func:`~repro.monitoring.attach_request_tracer`,
:func:`~repro.monitoring.request_summary`).  Span-level tracing rides
along: attach a :class:`repro.observability.spans.SpanTracer` as
:attr:`RequestTracer.spans` and the client/pipeline/partition layers
emit one causal span tree per request (see
:mod:`repro.observability`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.observability.histogram import Histogram

#: Outcome value recorded for a request that completed without error.
OK = "ok"

#: Fields of a server-side ``(service, op)`` aggregate, in snapshot order.
_SERVER_FIELDS = (
    "count", "errors", "latency_s", "queue_wait_s", "transfer_s", "size_mb",
)
#: Fields of a client-call ``(service, op)`` aggregate, in snapshot order.
_CLIENT_FIELDS = ("count", "errors", "retries")


@dataclass
class RequestTrace:
    """One request (or one client call) through the unified pipeline.

    Times are simulation seconds.  ``outcome`` is :data:`OK` or the
    exception class name that terminated the request.  For server-side
    records ``retries`` is always 0; client-call records carry the
    retry count of the whole call.
    """

    service: str
    op: str
    started_at: float
    finished_at: float
    size_mb: float = 0.0
    base_latency_s: float = 0.0
    queue_wait_s: float = 0.0
    server_s: float = 0.0
    transfer_s: float = 0.0
    retries: int = 0
    outcome: str = OK

    @property
    def ok(self) -> bool:
        return self.outcome == OK

    @property
    def latency_s(self) -> float:
        return self.finished_at - self.started_at


class RequestTracer:
    """Exact running aggregates of per-request traces, with an opt-in
    window of the raw records.

    ``capacity`` is how many individual records the window retains (the
    most recent ones win): the default ``0`` keeps none, a positive
    value keeps that many, and ``None`` keeps every record.  The
    counters ``total``/``errors``, the per-``(service, op)`` tallies and
    the streaming latency histograms stay exact whatever the window
    keeps; ``dropped`` counts the records trimmed from a window, so it
    stays 0 without one.
    """

    #: Kinds tagging the entries of the record window.
    REQUEST_KIND = "request"
    CLIENT_KIND = "client_call"

    def __init__(
        self, capacity: Optional[int] = 0, enabled: bool = True
    ) -> None:
        if capacity is not None and capacity < 0:
            raise ValueError(
                "capacity must be >= 0 (0 keeps no records) or None"
            )
        self.capacity = capacity
        self.enabled = enabled
        self._records: List[Tuple[str, RequestTrace]] = []
        self.dropped = 0
        self.total = 0
        self.errors = 0
        self.client_total = 0
        self.client_errors = 0
        self.retries = 0
        self._per_op: Dict[Tuple[str, str], Dict[str, float]] = {}
        self._latency: Dict[Tuple[str, str], Histogram] = {}
        self._client_per_op: Dict[Tuple[str, str], Dict[str, float]] = {}
        self._client_latency: Dict[Tuple[str, str], Histogram] = {}
        #: Optional span collector (see
        #: :mod:`repro.observability.spans`); when attached, the client
        #: and pipeline layers emit causal spans into it.
        self.spans = None  # type: Optional[object]

    # -- ingestion ---------------------------------------------------------
    def observe(self, trace: RequestTrace) -> None:
        """Record one server-side request trace."""
        if not self.enabled:
            return
        latency = trace.finished_at - trace.started_at
        key = (trace.service, trace.op)
        agg = self._per_op.get(key)
        if agg is None:
            agg = self._new_aggregate(False, key)
        self.total += 1
        agg["count"] += 1
        if trace.outcome == OK:
            hist = self._latency.get(key)
            if hist is None:
                hist = self._new_histogram(False, key)
        else:
            hist = None
            self.errors += 1
            agg["errors"] += 1
        agg["latency_s"] += latency
        agg["queue_wait_s"] += trace.queue_wait_s
        agg["transfer_s"] += trace.transfer_s
        agg["size_mb"] += trace.size_mb
        if hist is not None:
            hist.observe(latency)
        if self.capacity != 0:
            self._append(self.REQUEST_KIND, trace)

    def observe_call(self, trace: RequestTrace) -> None:
        """Record one client-call trace (whole retried operation)."""
        if not self.enabled:
            return
        key = (trace.service, trace.op)
        agg = self._client_per_op.get(key)
        if agg is None:
            agg = self._new_aggregate(True, key)
        self.client_total += 1
        agg["count"] += 1
        retries = trace.retries
        self.retries += retries
        agg["retries"] += retries
        if trace.outcome == OK:
            hist = self._client_latency.get(key)
            if hist is None:
                hist = self._new_histogram(True, key)
            hist.observe(trace.finished_at - trace.started_at)
        else:
            self.client_errors += 1
            agg["errors"] += 1
        if self.capacity != 0:
            self._append(self.CLIENT_KIND, trace)

    def observe_batch(
        self,
        service: str,
        op: str,
        latencies: Sequence[float],
        *,
        queue_waits: Optional[Sequence[float]] = None,
        transfers: Optional[Sequence[float]] = None,
        sizes_mb: Optional[Sequence[float]] = None,
        errors: int = 0,
        client: bool = False,
    ) -> None:
        """Fold a whole batch of completed requests in one call.

        The batched client paths complete many statistically identical
        requests per kernel event; this ingests them without
        per-request Python work: the exact counters, the per-``(service,
        op)`` aggregate sums and the streaming latency histogram all
        update vectorized.  ``latencies`` holds the *successful*
        latencies; ``errors`` adds failed requests to the error counters
        (their latencies are not histogrammed, matching the scalar
        path).  With ``client=True`` the batch folds into the
        client-call view instead of the server-side one.

        Individual :class:`RequestTrace` records are *not* appended,
        even to a window — batch ingestion is aggregate-only accounting,
        so ``records()`` stays empty under pure batched traffic while
        totals, aggregates and percentiles remain exact.
        """
        if not self.enabled:
            return
        arr = np.asarray(latencies, dtype=float).reshape(-1)
        n = int(arr.size)
        total_n = n + errors
        if total_n == 0:
            return
        key = (service, op)
        per_op = self._client_per_op if client else self._per_op
        agg = per_op.get(key)
        if agg is None:
            agg = self._new_aggregate(client, key)
        agg["count"] += total_n
        agg["errors"] += errors
        if client:
            self.client_total += total_n
            self.client_errors += errors
        else:
            self.total += total_n
            self.errors += errors
            agg["latency_s"] += float(arr.sum())
            if queue_waits is not None:
                agg["queue_wait_s"] += float(np.sum(queue_waits))
            if transfers is not None:
                agg["transfer_s"] += float(np.sum(transfers))
            if sizes_mb is not None:
                agg["size_mb"] += float(np.sum(sizes_mb))
        if n:
            latency = self._client_latency if client else self._latency
            hist = latency.get(key)
            if hist is None:
                hist = self._new_histogram(client, key)
            hist.observe_batch(arr)

    def _new_aggregate(
        self, client: bool, key: Tuple[str, str]
    ) -> Dict[str, float]:
        """A zeroed ``(service, op)`` aggregate of the client-call or
        server-side view, registered under ``key``."""
        if client:
            agg = self._client_per_op[key] = dict.fromkeys(_CLIENT_FIELDS, 0.0)
        else:
            agg = self._per_op[key] = dict.fromkeys(_SERVER_FIELDS, 0.0)
        return agg

    def _new_histogram(
        self, client: bool, key: Tuple[str, str]
    ) -> Histogram:
        """An empty latency histogram for ``key``; created on the first
        successful sample, so a failures-only pair has none."""
        service, op = key
        if client:
            hist = self._client_latency[key] = Histogram(f"{service}.{op}.call")
        else:
            hist = self._latency[key] = Histogram(f"{service}.{op}")
        return hist

    def _append(self, kind: str, trace: RequestTrace) -> None:
        """Keep ``trace`` in the window (only called when there is one)."""
        records = self._records
        records.append((kind, trace))
        cap = self.capacity
        if cap is None:
            return
        # Trim in blocks so retention is O(1) amortized per record.
        if len(records) >= cap + max(cap // 4, 1):
            drop = len(records) - cap
            del records[:drop]
            self.dropped += drop

    # -- retrieval ---------------------------------------------------------
    def records(self) -> List[RequestTrace]:
        """Retained server-side request traces, oldest first."""
        kind = self.REQUEST_KIND
        return [trace for k, trace in self._records if k == kind]

    def recorded(self) -> int:
        """How many server-side request traces the window retains:
        ``len(records())`` without building the list."""
        kind = self.REQUEST_KIND
        return sum(1 for k, _ in self._records if k == kind)

    def client_calls(self) -> List[RequestTrace]:
        """Retained client-call traces, oldest first."""
        kind = self.CLIENT_KIND
        return [trace for k, trace in self._records if k == kind]

    def per_service_op_totals(self) -> Dict[Tuple[str, str], Dict[str, float]]:
        """Exact aggregate sums keyed by ``(service, op)`` (never trimmed).

        Each value maps ``count / errors / latency_s / queue_wait_s /
        transfer_s / size_mb`` to the running totals for that pair.
        """
        return {key: dict(agg) for key, agg in self._per_op.items()}

    def client_per_op_totals(self) -> Dict[Tuple[str, str], Dict[str, float]]:
        """Exact client-call aggregates keyed by ``(service, op)``
        (``count / errors / retries``)."""
        return {key: dict(agg) for key, agg in self._client_per_op.items()}

    def latency_histograms(self) -> Dict[Tuple[str, str], Histogram]:
        """Per-``(service, op)`` streaming histograms of *successful*
        server-side request latencies.  These survive capacity trimming,
        which makes them the percentile source of record."""
        return dict(self._latency)

    def client_latency_histograms(self) -> Dict[Tuple[str, str], Histogram]:
        """Per-``(service, op)`` histograms of successful client-call
        latencies (the client-observed view, through retries/hedging)."""
        return dict(self._client_latency)

    # -- serialization -----------------------------------------------------
    #: Joiner for ``(service, op)`` keys in snapshot dicts — service
    #: names and op kinds both contain dots ("account.blobs",
    #: "blob.download"), so a pipe keeps the pair splittable.
    _KEY_JOIN = "|"

    @classmethod
    def _snapshot_key(cls, key: Tuple[str, str]) -> str:
        return cls._KEY_JOIN.join(key)

    @classmethod
    def _parse_key(cls, key: str) -> Tuple[str, str]:
        service, _, op = key.partition(cls._KEY_JOIN)
        return service, op

    def snapshot(self) -> Dict[str, object]:
        """JSON-able aggregate state: counters, per-``(service, op)``
        totals, and every streaming histogram bucket-for-bucket.

        The raw-record window, when there is one, is deliberately *not*
        serialized — aggregates and histograms are the exact, trim-proof
        science; the window is a debugging convenience.  Round-trips
        through :meth:`from_snapshot` (the catalog stores these per sweep cell).
        """
        return {
            "total": self.total,
            "errors": self.errors,
            "client_total": self.client_total,
            "client_errors": self.client_errors,
            "retries": self.retries,
            "dropped": self.dropped,
            "per_op": {
                self._snapshot_key(k): dict(v)
                for k, v in self._per_op.items()
            },
            "client_per_op": {
                self._snapshot_key(k): dict(v)
                for k, v in self._client_per_op.items()
            },
            "latency": {
                self._snapshot_key(k): h.to_dict()
                for k, h in self._latency.items()
            },
            "client_latency": {
                self._snapshot_key(k): h.to_dict()
                for k, h in self._client_latency.items()
            },
        }

    @classmethod
    def from_snapshot(cls, payload: Dict[str, object]) -> "RequestTracer":
        """Rebuild a tracer from :meth:`snapshot` output.  Aggregates,
        counters and histograms are restored exactly (percentiles and
        :func:`repro.monitoring.request_summary` render identically);
        the rebuilt tracer keeps no raw records."""
        tracer = cls()
        tracer.total = int(payload.get("total", 0))  # type: ignore[arg-type]
        tracer.errors = int(payload.get("errors", 0))  # type: ignore[arg-type]
        tracer.client_total = int(payload.get("client_total", 0))  # type: ignore[arg-type]
        tracer.client_errors = int(payload.get("client_errors", 0))  # type: ignore[arg-type]
        tracer.retries = int(payload.get("retries", 0))  # type: ignore[arg-type]
        tracer.dropped = int(payload.get("dropped", 0))  # type: ignore[arg-type]
        per_op = payload.get("per_op", {})
        for key, agg in per_op.items():  # type: ignore[union-attr]
            tracer._per_op[cls._parse_key(key)] = {
                str(f): float(v) for f, v in agg.items()
            }
        client_per_op = payload.get("client_per_op", {})
        for key, agg in client_per_op.items():  # type: ignore[union-attr]
            tracer._client_per_op[cls._parse_key(key)] = {
                str(f): float(v) for f, v in agg.items()
            }
        latency = payload.get("latency", {})
        for key, doc in latency.items():  # type: ignore[union-attr]
            tracer._latency[cls._parse_key(key)] = Histogram.from_dict(doc)
        client_latency = payload.get("client_latency", {})
        for key, doc in client_latency.items():  # type: ignore[union-attr]
            tracer._client_latency[cls._parse_key(key)] = (
                Histogram.from_dict(doc)
            )
        return tracer

    def clear(self) -> None:
        self._records.clear()
        self.dropped = 0
        self.total = 0
        self.errors = 0
        self.client_total = 0
        self.client_errors = 0
        self.retries = 0
        self._per_op.clear()
        self._latency.clear()
        self._client_per_op.clear()
        self._client_latency.clear()

    def __repr__(self) -> str:
        return (
            f"<RequestTracer total={self.total} errors={self.errors}"
            f" client_calls={self.client_total} dropped={self.dropped}>"
        )


__all__ = ["OK", "RequestTrace", "RequestTracer"]
