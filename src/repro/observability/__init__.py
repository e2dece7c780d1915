"""End-to-end observability over the unified request path.

Section 6.3's lesson ("build a robust logging and monitoring
infrastructure early in the project") as a layer, not a counter:

* :mod:`repro.observability.spans`     -- Dapper-style causal spans:
  :class:`Span`, :class:`SpanContext` and the :class:`SpanTracer` that
  collects one span tree per client call (call -> retry/hedge attempt
  -> pipeline stage -> partition/network), propagated through the
  request path without touching a single RNG draw or kernel event;
* :mod:`repro.observability.export`    -- exporters for the collected
  spans: Chrome ``trace_event`` JSON (loadable in Perfetto /
  ``chrome://tracing``), JSONL, and an ASCII per-trace waterfall;
* :mod:`repro.observability.histogram` -- log-bucketed, mergeable
  streaming :class:`Histogram` with exact count/sum/min/max and
  bounded-relative-error percentiles, the percentile source that
  survives bounded-window trimming;
* :mod:`repro.observability.slo`       -- the declarative SLO engine:
  availability and latency objectives evaluated from histograms with
  error-budget and burn-rate output;
* :mod:`repro.observability.windows`   -- :class:`MinuteAvailability`,
  the per-minute user-side availability accumulator both campaign
  drivers (event-level and piecewise-stationary fast-forward) fold
  into, mergeable and window-boundary invariant by construction.

Span capture is *pure measurement*: spans record clock readings and
schedule nothing, so golden experiment digests stay bit-identical with
tracing enabled.
"""

from repro.observability.export import (
    to_chrome_trace,
    to_jsonl,
    waterfall,
    write_chrome_trace,
    write_jsonl,
)
from repro.observability.histogram import Histogram
from repro.observability.slo import (
    SLO,
    SLOReport,
    SLOResult,
    evaluate_slo,
    evaluate_slos,
    latency_slo,
    availability_slo,
)
from repro.observability.spans import (
    ABANDONED,
    Span,
    SpanContext,
    SpanTracer,
)
from repro.observability.windows import MinuteAvailability

__all__ = [
    "ABANDONED",
    "Histogram",
    "MinuteAvailability",
    "SLO",
    "SLOReport",
    "SLOResult",
    "Span",
    "SpanContext",
    "SpanTracer",
    "availability_slo",
    "evaluate_slo",
    "evaluate_slos",
    "latency_slo",
    "to_chrome_trace",
    "to_jsonl",
    "waterfall",
    "write_chrome_trace",
    "write_jsonl",
]
