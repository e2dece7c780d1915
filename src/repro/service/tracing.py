"""Exact request aggregates for the unified request path.

Every request that runs through :class:`repro.service.pipeline.RequestPipeline`
reports its latency, queue wait, transfer time, payload size and
outcome to :meth:`RequestTracer.observe`; every client call that runs
through :class:`repro.client.service_client.ServiceClient` reports its
latency, retry count and outcome to :meth:`RequestTracer.observe_call`.
The tracer keeps exact running aggregates and per-``(service, op)``
streaming latency histograms
(:class:`repro.observability.histogram.Histogram`) of both, so a
full-scale experiment can keep tracing on at a fixed cost per request.
It keeps no per-request record.

The tracer is read back through its own counters (``total``,
``errors``, ``client_total``, ``client_errors``, ``retries``) and
aggregates, or as an operator table through
:func:`repro.monitoring.request_summary`.  The per-request record is
the span tree: attach a :class:`repro.observability.spans.SpanTracer`
as :attr:`RequestTracer.spans` and the client/pipeline/partition layers
emit one causal span tree per request, stage timings included (see
:mod:`repro.observability`).
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from repro.observability.histogram import Histogram

#: Fields of a server-side ``(service, op)`` aggregate, in snapshot order.
_SERVER_FIELDS = (
    "count", "errors", "latency_s", "queue_wait_s", "transfer_s", "size_mb",
)
#: Fields of a client-call ``(service, op)`` aggregate, in snapshot order.
_CLIENT_FIELDS = ("count", "errors", "retries")


class RequestTracer:
    """Exact running aggregates of server-side requests and client calls.

    The counters ``total``/``errors``, the per-``(service, op)`` tallies
    and the streaming latency histograms of successful requests are all
    it keeps; ``enabled=False`` turns ingestion off.
    """

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
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
    def observe(
        self,
        service: str,
        op: str,
        latency_s: float,
        ok: bool = True,
        queue_wait_s: float = 0.0,
        transfer_s: float = 0.0,
        size_mb: float = 0.0,
    ) -> None:
        """Record one server-side request; only a successful one's
        latency reaches the histogram."""
        if not self.enabled:
            return
        key = (service, op)
        agg = self._per_op.get(key)
        if agg is None:
            agg = self._new_aggregate(False, key)
        self.total += 1
        agg["count"] += 1
        if ok:
            hist = self._latency.get(key)
            if hist is None:
                hist = self._new_histogram(False, key)
        else:
            hist = None
            self.errors += 1
            agg["errors"] += 1
        agg["latency_s"] += latency_s
        agg["queue_wait_s"] += queue_wait_s
        agg["transfer_s"] += transfer_s
        agg["size_mb"] += size_mb
        if hist is not None:
            hist.observe(latency_s)

    def observe_call(
        self,
        service: str,
        op: str,
        latency_s: float,
        ok: bool = True,
        retries: int = 0,
    ) -> None:
        """Record one client call (the whole retried operation)."""
        if not self.enabled:
            return
        key = (service, op)
        agg = self._client_per_op.get(key)
        if agg is None:
            agg = self._new_aggregate(True, key)
        self.client_total += 1
        agg["count"] += 1
        self.retries += retries
        agg["retries"] += retries
        if ok:
            hist = self._client_latency.get(key)
            if hist is None:
                hist = self._new_histogram(True, key)
            hist.observe(latency_s)
        else:
            self.client_errors += 1
            agg["errors"] += 1

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

    # -- retrieval ---------------------------------------------------------
    def per_service_op_totals(self) -> Dict[Tuple[str, str], Dict[str, float]]:
        """Exact aggregate sums keyed by ``(service, op)``.

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
        server-side request latencies: the percentile source of record."""
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

        ``"dropped"`` is always 0: the field is kept so that snapshots
        keep the bytes they had when the tracer kept a window of raw
        records.  Round-trips through :meth:`from_snapshot` (the catalog
        stores these per sweep cell).
        """
        return {
            "total": self.total,
            "errors": self.errors,
            "client_total": self.client_total,
            "client_errors": self.client_errors,
            "retries": self.retries,
            "dropped": 0,
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
        :func:`repro.monitoring.request_summary` render identically).
        An older payload's ``"dropped"`` count is ignored."""
        tracer = cls()
        tracer.total = int(payload.get("total", 0))  # type: ignore[arg-type]
        tracer.errors = int(payload.get("errors", 0))  # type: ignore[arg-type]
        tracer.client_total = int(payload.get("client_total", 0))  # type: ignore[arg-type]
        tracer.client_errors = int(payload.get("client_errors", 0))  # type: ignore[arg-type]
        tracer.retries = int(payload.get("retries", 0))  # type: ignore[arg-type]
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

    def __repr__(self) -> str:
        return (
            f"<RequestTracer total={self.total} errors={self.errors}"
            f" client_calls={self.client_total}>"
        )


__all__ = ["RequestTracer"]
