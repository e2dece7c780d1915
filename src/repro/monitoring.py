"""Operational monitoring: Section 6.3's lesson as library code.

"Build a robust logging and monitoring infrastructure early in the
project ... errors that did not occur at lower scale will begin to
become common as scale increases."

:class:`MetricsRegistry` provides counters, gauges and latency tallies
with hierarchical names; :class:`Sampler` snapshots gauge callbacks onto
time series at a fixed cadence; :func:`render_dashboard` prints the
operator's view.

Latency tallies are backed by
:class:`repro.observability.histogram.HistogramTally` — log-bucketed
streaming histograms with exact count/sum and bounded-error
(~2% relative) percentiles — rather than raw-sample retention, so a
full-scale run can keep every tally hot in O(buckets) memory and the
registry snapshot can report p50/p95/p99 without holding observations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from repro.analysis import ascii_table
from repro.observability.histogram import HistogramTally
from repro.simcore import Environment, TimeSeries


@dataclass
class Counter:
    """A monotonically increasing count."""

    name: str
    value: float = 0.0

    def increment(self, by: float = 1.0) -> None:
        if by < 0:
            raise ValueError("counters only increase; use a gauge")
        self.value += by


@dataclass
class _FrozenGauge:
    """A gauge snapshot: the constant a live gauge froze at when its
    registry crossed a process boundary (live callbacks close over the
    simulation world and cannot be pickled)."""

    value: float

    def __call__(self) -> float:
        return self.value


class MetricsRegistry:
    """Namespaced counters, gauges and latency tallies."""

    def __init__(self) -> None:
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Callable[[], float]] = {}
        self._tallies: Dict[str, HistogramTally] = {}

    def __getstate__(self) -> Dict[str, object]:
        state = self.__dict__.copy()
        state["_gauges"] = {
            name: _FrozenGauge(self.read_gauge(name))
            for name in self._gauges
        }
        return state

    # -- counters ----------------------------------------------------------
    def counter(self, name: str) -> Counter:
        counter = self._counters.get(name)
        if counter is None:
            counter = Counter(name)
            self._counters[name] = counter
        return counter

    # -- gauges ------------------------------------------------------------
    def register_gauge(self, name: str, read: Callable[[], float]) -> None:
        """A gauge is a live callback (queue length, active requests)."""
        if name in self._gauges:
            raise ValueError(f"gauge {name!r} already registered")
        self._gauges[name] = read

    def read_gauge(self, name: str) -> float:
        try:
            return float(self._gauges[name]())
        except KeyError:
            raise KeyError(f"no gauge named {name!r}") from None

    def gauge_names(self) -> List[str]:
        return sorted(self._gauges)

    # -- latency tallies ------------------------------------------------------
    def tally(self, name: str) -> HistogramTally:
        """A histogram-backed latency tally (created on first use)."""
        tally = self._tallies.get(name)
        if tally is None:
            tally = HistogramTally(name)
            self._tallies[name] = tally
        return tally

    def tally_names(self) -> List[str]:
        return sorted(self._tallies)

    def snapshot(self) -> Dict[str, float]:
        """All current values, flat.

        Tally percentiles (p50/p95/p99) come from the backing streaming
        histogram, so they are within ~2% relative error of the raw
        quantiles; counts and per-tally error totals are exact.
        """
        out: Dict[str, float] = {}
        for name, counter in self._counters.items():
            out[f"counter:{name}"] = counter.value
        for name in self._gauges:
            out[f"gauge:{name}"] = self.read_gauge(name)
        for name, tally in self._tallies.items():
            if len(tally):
                out[f"latency_p50:{name}"] = tally.percentile(50)
                out[f"latency_p95:{name}"] = tally.percentile(95)
                out[f"latency_p99:{name}"] = tally.percentile(99)
                out[f"latency_count:{name}"] = float(tally.count)
            if tally.errors:
                out[f"latency_errors:{name}"] = float(tally.errors)
        return out

    def to_dict(self) -> Dict[str, object]:
        """JSON-able registry state: counters, gauge values frozen at
        call time, full tally histograms (bucket-for-bucket), plus the
        flat :meth:`snapshot` under ``values`` for convenience.  The
        catalog's ``ops`` records store exactly this document.
        """
        return {
            "counters": {
                name: counter.value
                for name, counter in sorted(self._counters.items())
            },
            "gauges": {
                name: self.read_gauge(name) for name in self.gauge_names()
            },
            "tallies": {
                name: self._tallies[name].to_dict()
                for name in self.tally_names()
            },
            "values": self.snapshot(),
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "MetricsRegistry":
        """Rebuild a registry from :meth:`to_dict` output.  Counters and
        tallies restore exactly; gauges come back as frozen constants
        (live callbacks cannot cross a serialization boundary)."""
        registry = cls()
        for name, value in payload.get("counters", {}).items():  # type: ignore[union-attr]
            registry.counter(str(name)).value = float(value)
        for name, value in payload.get("gauges", {}).items():  # type: ignore[union-attr]
            registry.register_gauge(str(name), _FrozenGauge(float(value)))
        for name, doc in payload.get("tallies", {}).items():  # type: ignore[union-attr]
            registry._tallies[str(name)] = HistogramTally.from_dict(doc)
        return registry


class Sampler:
    """Periodically samples every gauge onto a TimeSeries."""

    def __init__(
        self,
        env: Environment,
        registry: MetricsRegistry,
        interval_s: float = 60.0,
    ) -> None:
        if interval_s <= 0:
            raise ValueError("interval_s must be > 0")
        self.env = env
        self.registry = registry
        self.interval_s = interval_s
        self.series: Dict[str, TimeSeries] = {}
        self._proc = None

    def start(self):
        if self._proc is None:
            self._proc = self.env.process(self._run())
        return self._proc

    def _run(self):
        while True:
            now = self.env.now
            for name in self.registry.gauge_names():
                series = self.series.get(name)
                if series is None:
                    series = TimeSeries(name)
                    self.series[name] = series
                series.record(now, self.registry.read_gauge(name))
            yield self.env.timeout(self.interval_s)

    def peak(self, name: str) -> float:
        series = self.series.get(name)
        if series is None or len(series) == 0:
            raise KeyError(f"no samples for gauge {name!r}")
        return float(series.values.max())


#: Numeric encoding of breaker states for gauges/time series.
BREAKER_STATE_CODES = {"closed": 0.0, "half_open": 1.0, "open": 2.0}


def attach_circuit_breaker(
    registry: MetricsRegistry,
    breaker,
    prefix: str = "breaker",
) -> None:
    """Register a circuit breaker's state and counters.

    Exposes the state (0 = closed, 1 = half-open, 2 = open), rolling
    error rate, fast-failure and trip counts as gauges, and increments a
    ``<prefix>.transitions.<state>`` counter on every state change
    (chaining any transition callback already installed).
    """
    registry.register_gauge(
        f"{prefix}.state",
        lambda b=breaker: BREAKER_STATE_CODES[b.state],
    )
    registry.register_gauge(
        f"{prefix}.error_rate", lambda b=breaker: b.error_rate
    )
    registry.register_gauge(
        f"{prefix}.fast_failures", lambda b=breaker: b.fast_failures
    )
    registry.register_gauge(f"{prefix}.opens", lambda b=breaker: b.opens)

    previous = breaker.on_transition

    def record(now: float, old: str, new: str) -> None:
        registry.counter(f"{prefix}.transitions.{new}").increment()
        if previous is not None:
            previous(now, old, new)

    breaker.on_transition = record


def attach_retry_budget(
    registry: MetricsRegistry,
    budget,
    prefix: str = "retry_budget",
) -> None:
    """Register a retry budget's live balance and shed-retry counters."""
    registry.register_gauge(f"{prefix}.tokens", lambda b=budget: b.tokens)
    registry.register_gauge(f"{prefix}.granted", lambda b=budget: b.granted)
    registry.register_gauge(f"{prefix}.shed", lambda b=budget: b.shed)


def attach_request_tracer(
    registry: MetricsRegistry,
    tracer,
    prefix: str = "requests",
) -> None:
    """Register a :class:`repro.service.tracing.RequestTracer` as gauges.

    Exposes the service-side request totals (count, errors, retained
    records, dropped-by-capacity) and the client-observed call totals
    (count, errors, retries across all attempts) under ``prefix``.
    """
    registry.register_gauge(f"{prefix}.total", lambda t=tracer: t.total)
    registry.register_gauge(f"{prefix}.errors", lambda t=tracer: t.errors)
    registry.register_gauge(
        f"{prefix}.recorded", lambda t=tracer: len(t.records())
    )
    registry.register_gauge(f"{prefix}.dropped", lambda t=tracer: t.dropped)
    registry.register_gauge(
        f"{prefix}.client_total", lambda t=tracer: t.client_total
    )
    registry.register_gauge(
        f"{prefix}.client_errors", lambda t=tracer: t.client_errors
    )
    registry.register_gauge(f"{prefix}.retries", lambda t=tracer: t.retries)


def ingest_request_traces(
    registry: MetricsRegistry,
    tracer,
    prefix: str = "requests",
    clear_after: bool = False,
) -> int:
    """Fold the tracer's retained per-request records into latency tallies.

    Each record's end-to-end latency lands in ``<prefix>.<op>`` (so the
    registry snapshot exposes p50/p95/p99 per operation) and each failed
    record increments that tally's error counter.  Returns the number of
    records ingested.  With ``clear_after=True`` the tracer's retained
    records are dropped once folded, making periodic ingestion
    idempotent — each record is counted exactly once across repeated
    calls.  (The tracer's exact running aggregates are reset too, so
    pair ``clear_after`` with the registry as the long-lived store.)
    """
    count = 0
    for trace in tracer.records():
        tally = registry.tally(f"{prefix}.{trace.op}")
        tally.observe(trace.latency_s)
        if not trace.ok:
            tally.observe_error()
        count += 1
    if clear_after:
        tracer.clear()
    return count


def request_summary(tracer, title: str = "request summary") -> str:
    """An operator-readable per-operation rollup of the request log.

    Aggregates are exact over the tracer's whole lifetime (capacity
    trimming drops raw records, never the running sums).
    """
    rows = []
    for (service, op), totals in sorted(
        tracer.per_service_op_totals().items()
    ):
        n = totals["count"]
        rows.append([
            service,
            op,
            int(n),
            int(totals["errors"]),
            round(totals["latency_s"] / n, 6) if n else 0.0,
            round(totals["queue_wait_s"] / n, 6) if n else 0.0,
            round(totals["transfer_s"] / n, 6) if n else 0.0,
            round(totals["size_mb"], 3),
        ])
    if not rows:
        rows.append(["(none)", "(no requests)", 0, 0, 0.0, 0.0, 0.0, 0.0])
    return ascii_table(
        [
            "service", "op", "count", "errors", "mean_latency_s",
            "mean_queue_wait_s", "mean_transfer_s", "total_mb",
        ],
        rows,
        title=title,
    )


def render_dashboard(
    registry: MetricsRegistry,
    title: str = "service dashboard",
    sampler: Optional[Sampler] = None,
) -> str:
    """An operator-readable snapshot of every metric."""
    rows = []
    snapshot = registry.snapshot()
    for name in sorted(snapshot):
        rows.append([name, snapshot[name]])
    if sampler is not None:
        for name in sorted(sampler.series):
            series = sampler.series[name]
            if len(series):
                rows.append([f"peak:{name}", float(series.values.max())])
    if not rows:
        rows.append(["(no metrics)", 0])
    return ascii_table(["metric", "value"], rows, title=title)
