"""The unified storage request path.

The paper measures three storage services (Figs. 1-3) that share one
real architecture: clients issue sized requests that traverse a front
end, a partition server, and the network.  This package implements that
pipeline once:

* :mod:`repro.service.spec`     -- :class:`OpSpec`, the declarative
  resource-demand record every operation is described by;
* :mod:`repro.service.pipeline` -- :class:`RequestPipeline`, the
  admission -> base latency -> partition routing -> server queue/latch
  -> network transfer -> commit sequence that
  :class:`~repro.storage.blob.BlobService`,
  :class:`~repro.storage.table.TableService` and
  :class:`~repro.storage.queue.QueueService` are thin op-tables over;
* :mod:`repro.service.tracing`  -- :class:`RequestTracer`, exact
  per-``(service, op)`` aggregates of every request and client call
  (count, errors, size, queue wait, transfer time, retries, latency
  histograms), surfaced through :mod:`repro.monitoring`.

The pipeline is stage-exact with the three request paths it replaced:
every RNG draw and every kernel event happens at the same point in the
same order, so the golden digests (fig1-fig5, table1, table2) are
bit-identical across the refactor.
"""

from repro.service.pipeline import LatencyProfile, RequestPipeline, TransferSpec
from repro.service.spec import OpSpec
from repro.service.tracing import RequestTracer

__all__ = [
    "LatencyProfile",
    "OpSpec",
    "RequestPipeline",
    "RequestTracer",
    "TransferSpec",
]
