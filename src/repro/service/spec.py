"""Declarative operation specs for the unified request path.

Every storage operation — blob put, table insert, queue receive, … — is
described by one :class:`OpSpec` record stating what the operation
*demands* from a partition server (CPU, latch hold, payload budget,
front-end weight).  The spec is consumed by
:meth:`repro.storage.partition.PartitionServer.execute`; the services
build their op tables from it instead of hand-rolling per-service
request plumbing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, Optional


@dataclass(frozen=True)
class OpSpec:
    """Resource demands of one storage operation.

    Attributes
    ----------
    name:
        Operation label (metrics only).
    cpu_s:
        Mean CPU seconds consumed on the core pool (0 to skip).
    exclusive_s:
        Mean seconds holding the exclusive latch named by ``latch_key``.
    latch_key:
        Which latch the operation serializes on (None for lock-free ops).
    payload_mb:
        Request payload counted against the ingest budget.
    frontend_scale:
        Multiplier on the server's per-connection service curve (cheap
        read paths like queue Peek use < 1).
    deterministic:
        If True, service times are used as-is; otherwise they are drawn
        exponentially around the mean (the default, giving realistic
        response-time variance).
    """

    name: str
    cpu_s: float = 0.0
    exclusive_s: float = 0.0
    latch_key: Optional[Hashable] = None
    payload_mb: float = 0.0
    frontend_scale: float = 1.0
    deterministic: bool = False


__all__ = ["OpSpec"]
