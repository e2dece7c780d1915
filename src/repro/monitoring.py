"""Operational monitoring: Section 6.3's lesson as library code.

"Build a robust logging and monitoring infrastructure early in the
project ... errors that did not occur at lower scale will begin to
become common as scale increases."

:class:`MetricsRegistry` provides counters, gauges and latency tallies
with hierarchical names; :class:`Sampler` snapshots gauge callbacks onto
time series at a fixed cadence; :func:`render_dashboard` prints the
operator's view and :func:`request_summary` a request tracer's
per-``(service, op)`` rollup.

A latency tally is a :class:`repro.observability.histogram.Histogram` —
log-bucketed, with exact count/sum and bounded-error (~2% relative)
percentiles — rather than raw-sample retention, so a full-scale run
can keep every tally hot in O(buckets) memory and the registry snapshot
can report p50/p95/p99 without holding observations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from repro.analysis import ascii_table
from repro.observability.histogram import Histogram
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


class MetricsRegistry:
    """Namespaced counters, gauges and latency tallies."""

    def __init__(self) -> None:
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Callable[[], float]] = {}
        self._tallies: Dict[str, Histogram] = {}

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
    def tally(self, name: str) -> Histogram:
        """A latency histogram (created on first use)."""
        tally = self._tallies.get(name)
        if tally is None:
            tally = Histogram(name)
            self._tallies[name] = tally
        return tally

    def tally_names(self) -> List[str]:
        return sorted(self._tallies)

    def snapshot(self) -> Dict[str, float]:
        """All current values, flat.

        Tally percentiles (p50/p95/p99) come from the streaming
        histogram, so they are within ~2% relative error of the raw
        quantiles; counts are exact.
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


def request_summary(tracer, title: str = "request summary") -> str:
    """An operator-readable per-``(service, op)`` rollup of the
    tracer's aggregates, exact over its whole lifetime.
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
