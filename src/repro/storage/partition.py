"""The storage partition-server front end.

Every table partition, queue, and blob-metadata range is served by a
*partition server*.  The server model has four mechanisms, each of which
produces one of the concurrency effects the paper measured:

1. **Per-connection service curve** -- handling ``n`` concurrent client
   connections costs each request ``c * n**gamma`` extra seconds of
   front-end time (connection handling, auth, marshalling).  This bends
   per-client throughput down *before* any hard limit binds (the gradual
   Insert/Query/Peek declines of Figs. 2-3).

2. **Bounded CPU pool** -- CPU-heavy work (property-filter scans, large
   payload marshalling) competes for a small core pool, so expensive
   operations stretch dramatically under concurrency (the Section 6.1
   property-filter timeouts).

3. **Per-key exclusive latches** -- conflicting mutations serialize:
   the *same entity* for table Update (server saturates near 8 clients),
   the partition index for Delete (near 128), the queue head for Receive
   (~424 ops/s) and the replica-commit slot for queue Add (~569 ops/s).

4. **Overload shedding** -- when the in-flight payload exceeds the
   server's ingest budget, requests are probabilistically parked until
   the server-side timeout and failed (the 64 kB Insert/Delete timeout
   exceptions of Section 3.2).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Generator, Hashable, Optional

import numpy as np

from repro.service.spec import OpSpec
from repro.simcore import Environment, Resource
from repro.storage.errors import OperationTimeoutError

__all__ = ["PartitionServer", "PartitionStats"]


@dataclass
class PartitionStats:
    """Counters the experiments read off a server."""

    started: int = 0
    completed: int = 0
    shed: int = 0
    peak_concurrency: int = 0
    ops_by_name: Dict[str, int] = field(default_factory=dict)


class PartitionServer:
    """One storage partition server (see module docstring).

    Parameters
    ----------
    frontend_c_s / frontend_gamma:
        Per-connection service curve: each request pays
        ``frontend_c_s * n**frontend_gamma`` seconds of front-end time,
        where ``n`` is the number of requests concurrently in flight.
    cores:
        CPU pool size for ``cpu_s`` work.
    overload_knee_mb / overload_slope_per_mb:
        In-flight payload budget; beyond the knee each additional MB adds
        ``slope`` to the probability that a request is parked and failed
        with :class:`OperationTimeoutError` after ``server_timeout_s``.
    """

    def __init__(
        self,
        env: Environment,
        rng: np.random.Generator,
        name: str = "partition",
        frontend_c_s: float = 0.004,
        frontend_gamma: float = 0.5,
        cores: int = 8,
        overload_knee_mb: float = 1.5,
        overload_slope_per_mb: float = 4e-4,
        server_timeout_s: float = 30.0,
    ) -> None:
        if frontend_c_s < 0 or frontend_gamma < 0:
            raise ValueError("front-end curve parameters must be >= 0")
        self.env = env
        self.rng = rng
        # Stage times are exponential around their mean, for M/M/c-like
        # response variance, drawn as ``mean * standard_exponential()``:
        # bit for bit ``rng.exponential(mean)`` from the same stream
        # position, for a bound method call instead of an
        # argument-parsing one.  Every stage runs only with a mean > 0.
        self._std_exp = rng.standard_exponential
        self.name = name
        self.frontend_c_s = frontend_c_s
        self.frontend_gamma = frontend_gamma
        self.cpu = Resource(env, capacity=cores)
        self.overload_knee_mb = overload_knee_mb
        self.overload_slope_per_mb = overload_slope_per_mb
        self.server_timeout_s = server_timeout_s
        self._latches: Dict[Hashable, Resource] = {}
        self._active = 0
        self._inflight_payload_mb = 0.0
        self.stats = PartitionStats()
        #: Optional fault injector (see :mod:`repro.faults`); consulted
        #: at request admission.
        self.fault_injector: Optional[Any] = None

    # -- introspection -----------------------------------------------------
    @property
    def active_requests(self) -> int:
        return self._active

    @property
    def inflight_payload_mb(self) -> float:
        return self._inflight_payload_mb

    def latch(self, key: Hashable) -> Resource:
        latch = self._latches.get(key)
        if latch is None:
            latch = Resource(self.env, capacity=1)
            self._latches[key] = latch
        return latch

    # -- execution -----------------------------------------------------------
    def execute(
        self,
        op: OpSpec,
        observer: Optional[Callable[[str, float], None]] = None,
    ) -> Generator:
        """Process one operation; yields inside the caller's process.

        Returns the seconds the request spent *queued*: for the CPU pool
        (``"cpu_wait"``) plus for the exclusive latch (``"latch_wait"``).

        ``observer``, if given, is called as ``observer(stage, seconds)``
        with each of those waits and with the busy segments the request
        then spent being served (``"frontend"``, ``"cpu_work"``,
        ``"latch_work"``).  It is a pure measurement hook: it draws no
        randomness and schedules nothing, so tracing cannot perturb the
        simulation.

        Raises :class:`OperationTimeoutError` if the request is shed.
        """
        env = self.env
        stats = self.stats
        self._active += 1
        self._inflight_payload_mb += op.payload_mb
        stats.started += 1
        if self._active > stats.peak_concurrency:
            stats.peak_concurrency = self._active
        stats.ops_by_name[op.name] = stats.ops_by_name.get(op.name, 0) + 1
        waited = 0.0
        try:
            # (0) scheduled fault windows (drills, Section 6.3).
            if self.fault_injector is not None:
                yield from self.fault_injector.intercept(self, op)

            # (4) overload shedding by ingest-budget pressure.
            excess = self._inflight_payload_mb - self.overload_knee_mb
            if excess > 0:
                p_shed = min(self.overload_slope_per_mb * excess, 0.5)
                if self.rng.random() < p_shed:
                    stats.shed += 1
                    yield env.timeout(self.server_timeout_s)
                    raise OperationTimeoutError(
                        f"{self.name}: request {op.name} timed out server-side",
                        service=self.name,
                        op=op.name,
                    )

            # (1) per-connection front-end service curve.
            if self.frontend_c_s > 0 and op.frontend_scale > 0 and self._active > 1:
                penalty = (
                    self.frontend_c_s
                    * op.frontend_scale
                    * (self._active ** self.frontend_gamma)
                )
                spent = (
                    penalty if op.deterministic
                    else penalty * self._std_exp()
                )
                yield env.timeout(spent)
                if observer is not None:
                    observer("frontend", spent)

            # (2) CPU-pool work.
            if op.cpu_s > 0:
                with self.cpu.request() as slot:
                    queued_at = env.now
                    yield slot
                    wait = env.now - queued_at
                    waited += wait
                    if observer is not None:
                        observer("cpu_wait", wait)
                    work = (
                        op.cpu_s if op.deterministic
                        else op.cpu_s * self._std_exp()
                    )
                    yield env.timeout(work)
                    if observer is not None:
                        observer("cpu_work", work)

            # (3) exclusive latch.
            if op.exclusive_s > 0:
                if op.latch_key is None:
                    raise ValueError(
                        f"op {op.name!r} has exclusive_s but no latch_key"
                    )
                latch = self.latch(op.latch_key)
                try:
                    with latch.request() as grant:
                        queued_at = env.now
                        yield grant
                        wait = env.now - queued_at
                        waited += wait
                        if observer is not None:
                            observer("latch_wait", wait)
                        held = (
                            op.exclusive_s if op.deterministic
                            else op.exclusive_s * self._std_exp()
                        )
                        yield env.timeout(held)
                        if observer is not None:
                            observer("latch_work", held)
                finally:
                    # An idle latch holds no state, so drop it: per-entity
                    # keys would otherwise pile up for the server's life.
                    if not latch.users and not latch.queue:
                        del self._latches[op.latch_key]

            stats.completed += 1
        finally:
            self._active -= 1
            self._inflight_payload_mb -= op.payload_mb
        return waited

    def __repr__(self) -> str:
        return (
            f"<PartitionServer {self.name} active={self._active}"
            f" inflight={self._inflight_payload_mb:.2f}MB>"
        )
