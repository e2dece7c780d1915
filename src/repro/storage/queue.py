"""The Azure Queue storage service model.

Queues provide the loose coupling between web and worker roles
(Section 3.3).  Semantics modelled:

* **Add** -- append a message; commits to all three replicas (the
  exclusive replica-commit slot caps service-side throughput near
  569 ops/s, the paper's 64-client peak).
* **Peek** -- read the frontmost visible message without changing any
  state (cheapest op; the paper saw throughput still rising at 192
  clients).
* **Receive (Get)** -- dequeue: assign the frontmost visible message to
  exactly one caller and hide it for ``visibility_timeout`` seconds
  (head-of-queue latch; ~424 ops/s peak).  If the consumer does not
  delete it in time the message reappears -- the retry mechanism
  ModisAzure initially relied on (Section 5.2).
* **Delete** -- remove a received message using its pop receipt.

Operation cost is O(1) in queue length (Section 3.3 found no variation
from 200 k to 2 M messages), which the model preserves by tracking a
visible-head cursor instead of scanning.

Every operation is one pass through the shared
:class:`~repro.service.pipeline.RequestPipeline`: base latency, routing
to the queue's partition server, the op's :class:`OpSpec`, then the
commit that mutates queue state (dequeue bookkeeping, visibility
re-indexing, receipt validation).
"""

from __future__ import annotations

import functools
import heapq
import itertools
from dataclasses import dataclass, field
from typing import Any, Dict, Generator, List, Optional, Tuple

import numpy as np

from repro import calibration as cal
from repro.service.pipeline import LatencyProfile, RequestPipeline
from repro.service.spec import OpSpec
from repro.service.tracing import RequestTracer
from repro.simcore import Environment
from repro.storage.errors import MessageNotFoundError, QueueEmptyError
from repro.storage.partition import PartitionServer

_msg_ids = itertools.count(1)
_receipts = itertools.count(1)


#: Each kind's latch: adds serialize on the replica commit, receives on
#: the queue head; a peek takes none.
_LATCHES = {"add": "replica-commit", "receive": "head", "peek": None}


@functools.lru_cache(maxsize=1024)
def _op(kind: str, size_kb: float) -> OpSpec:
    """The spec of one ``kind`` request on a ``size_kb`` message,
    interned: a spec is frozen, so one per (kind, size) serves every
    request (the same bounded memo as the table service's)."""
    return OpSpec(
        name=f"queue.{kind}",
        cpu_s=cal.QUEUE_CPU_S[kind] + cal.QUEUE_CPU_PER_KB_S * size_kb,
        exclusive_s=cal.QUEUE_EXCLUSIVE_S[kind],
        latch_key=_LATCHES[kind],
        payload_mb=size_kb / 1024.0,
        frontend_scale=(
            cal.QUEUE_FRONTEND_C_S[kind] / cal.QUEUE_FRONTEND_C_S["add"]
        ),
    )


@dataclass
class QueueMessage:
    """A queued message and its visibility state."""

    payload: object
    size_kb: float
    id: int = field(default_factory=lambda: next(_msg_ids))
    enqueued_at: float = 0.0
    visible_at: float = 0.0
    dequeue_count: int = 0
    pop_receipt: Optional[int] = None
    deleted: bool = False


class _QueueState:
    """One queue: message map plus a visibility-ordered heap.

    The heap holds (visible_at, seq, message); popping skips deleted
    entries lazily, keeping every operation O(log n) regardless of
    depth.
    """

    def __init__(self) -> None:
        self.messages: Dict[int, QueueMessage] = {}
        self.heap: List[Tuple[float, int, QueueMessage]] = []
        self._seq = itertools.count()

    def push(self, message: QueueMessage) -> None:
        self.messages[message.id] = message
        heapq.heappush(
            self.heap, (message.visible_at, next(self._seq), message)
        )

    def front_visible(self, now: float) -> Optional[QueueMessage]:
        """The frontmost visible message, without removing it."""
        while self.heap:
            visible_at, _, msg = self.heap[0]
            if msg.deleted or msg.visible_at != visible_at:
                heapq.heappop(self.heap)  # stale entry
                continue
            if visible_at <= now:
                return msg
            return None
        return None

    def __len__(self) -> int:
        return sum(1 for m in self.messages.values() if not m.deleted)


class QueueService:
    """A queue storage account endpoint."""

    #: Default visibility timeout applied by Receive (2009 default 30 s).
    DEFAULT_VISIBILITY_TIMEOUT_S = 30.0

    def __init__(
        self,
        env: Environment,
        rng: np.random.Generator,
        name: str = "queues",
        tracer: Optional[RequestTracer] = None,
    ) -> None:
        self.env = env
        self.rng = rng
        self.name = name
        #: Optional fault injector (see :mod:`repro.faults`); consulted
        #: at request admission by drills that target the whole service.
        self.fault_injector: Optional[Any] = None
        self._queues: Dict[str, _QueueState] = {}
        self._servers: Dict[str, PartitionServer] = {}
        self.pipeline = RequestPipeline(
            env,
            rng,
            service=name,
            latency=LatencyProfile(fixed_frac=0.85, jitter_frac=0.15),
            router=self.server_for,
            owner=self,
            tracer=tracer,
        )

    @property
    def tracer(self) -> Optional[RequestTracer]:
        return self.pipeline.tracer

    # -- administrative ------------------------------------------------------
    def create_queue(self, queue: str) -> None:
        self._queues.setdefault(queue, _QueueState())

    def queue_length(self, queue: str) -> int:
        return len(self._state(queue))

    def server_for(self, queue: str) -> PartitionServer:
        server = self._servers.get(queue)
        if server is None:
            server = PartitionServer(
                self.env,
                self.rng,
                name=f"{self.name}/{queue}",
                frontend_c_s=cal.QUEUE_FRONTEND_C_S["add"],
                frontend_gamma=cal.QUEUE_FRONTEND_GAMMA,
                cores=cal.TABLE_SERVER_CORES,
            )
            self._servers[queue] = server
        return server

    def servers(self) -> List[PartitionServer]:
        """The live partition servers, in deterministic queue-name order
        (the expansion target for domain-scoped faults)."""
        return [self._servers[name] for name in sorted(self._servers)]

    def _state(self, queue: str) -> _QueueState:
        state = self._queues.get(queue)
        if state is None:
            raise QueueEmptyError(
                f"queue {queue!r} does not exist", service=self.name
            )
        return state

    def _validated_visibility(self, visibility_timeout_s: Optional[float]) -> float:
        vt = (
            self.DEFAULT_VISIBILITY_TIMEOUT_S
            if visibility_timeout_s is None
            else float(visibility_timeout_s)
        )
        if not 0 < vt <= cal.QUEUE_MAX_VISIBILITY_TIMEOUT_S:
            raise ValueError(
                "visibility timeout must be in (0, "
                f"{cal.QUEUE_MAX_VISIBILITY_TIMEOUT_S}] seconds"
            )
        return vt

    def _dequeue(self, state: _QueueState, msg: QueueMessage, vt: float) -> None:
        msg.visible_at = self.env.now + vt
        msg.dequeue_count += 1
        msg.pop_receipt = next(_receipts)
        state.push(msg)  # re-index under the new visibility time

    # -- data plane ------------------------------------------------------------
    def add(self, queue: str, payload: object, size_kb: float = 0.5) -> Generator:
        """Append a message; returns the QueueMessage."""
        state = self._state(queue)

        def commit() -> QueueMessage:
            msg = QueueMessage(
                payload=payload,
                size_kb=size_kb,
                enqueued_at=self.env.now,
                visible_at=self.env.now,
            )
            state.push(msg)
            return msg

        result = yield from self.pipeline.execute(
            "queue.add",
            _op("add", size_kb),
            base_latency_s=cal.QUEUE_BASE_LATENCY_S["add"],
            route=queue,
            commit=commit,
        )
        return result

    def peek(self, queue: str) -> Generator:
        """Return the frontmost visible message without dequeuing.

        Raises QueueEmptyError when nothing is visible.
        """
        state = self._state(queue)

        def commit() -> QueueMessage:
            msg = state.front_visible(self.env.now)
            if msg is None:
                raise QueueEmptyError(
                    f"queue {queue!r} has no visible messages",
                    service=self.name,
                    op="queue.peek",
                )
            return msg

        result = yield from self.pipeline.execute(
            "queue.peek",
            _op("peek", 0.1),
            base_latency_s=cal.QUEUE_BASE_LATENCY_S["peek"],
            route=queue,
            commit=commit,
        )
        return result

    def receive(
        self,
        queue: str,
        visibility_timeout_s: Optional[float] = None,
    ) -> Generator:
        """Dequeue the frontmost visible message, hiding it for the
        visibility timeout.  Raises QueueEmptyError if none is visible."""
        vt = self._validated_visibility(visibility_timeout_s)
        state = self._state(queue)

        def commit() -> QueueMessage:
            msg = state.front_visible(self.env.now)
            if msg is None:
                raise QueueEmptyError(
                    f"queue {queue!r} has no visible messages",
                    service=self.name,
                    op="queue.receive",
                )
            self._dequeue(state, msg, vt)
            return msg

        result = yield from self.pipeline.execute(
            "queue.receive",
            _op("receive", 0.5),
            base_latency_s=cal.QUEUE_BASE_LATENCY_S["receive"],
            route=queue,
            commit=commit,
        )
        return result

    def delete(self, queue: str, message: QueueMessage, pop_receipt: int) -> Generator:
        """Remove a received message permanently.

        Fails if the pop receipt is stale (the message timed out and was
        re-received elsewhere) -- the hazard Section 5.2 describes.
        """
        state = self._state(queue)

        def commit() -> None:
            current = state.messages.get(message.id)
            if current is None or current.deleted:
                raise MessageNotFoundError(
                    f"message {message.id} not found",
                    service=self.name,
                    op="queue.delete",
                )
            if current.pop_receipt != pop_receipt:
                raise MessageNotFoundError(
                    f"stale pop receipt for message {message.id}",
                    service=self.name,
                    op="queue.delete",
                )
            current.deleted = True

        # Delete shares the receive cost model (head-index touch).
        yield from self.pipeline.execute(
            "queue.delete",
            _op("receive", 0.1),
            base_latency_s=cal.QUEUE_BASE_LATENCY_S["receive"],
            route=queue,
            commit=commit,
        )
