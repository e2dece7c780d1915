"""Typed client for the queue service."""

from __future__ import annotations

from typing import Any, Generator, Optional

from repro.client.service_client import ServiceClient
from repro.resilience.backoff import RetryPolicy
from repro.resilience.hedging import HedgePolicy
from repro.storage.queue import QueueMessage, QueueService


class QueueClient(ServiceClient):
    """Queue operations with client timeout + retry.

    Optional resilience hooks (see :mod:`repro.resilience`): ``budget``
    (shared retry budget), ``breaker`` (circuit breaker), and ``hedge``
    (hedging for the idempotent Peek read path only — Receive mutates
    visibility state and is never hedged).
    """

    def __init__(
        self,
        service: QueueService,
        timeout_s: float = 30.0,
        retry: Optional[RetryPolicy] = None,
        budget: Optional[Any] = None,
        breaker: Optional[Any] = None,
        hedge: Optional[HedgePolicy] = None,
        **replica_kwargs: Any,
    ) -> None:
        super().__init__(
            service, timeout_s=timeout_s, retry=retry,
            budget=budget, breaker=breaker, hedge=hedge,
            **replica_kwargs,
        )

    def add(self, queue: str, payload: object, size_kb: float = 0.5) -> Generator:
        result = yield from self._call(
            "queue.add", lambda: self.service.add(queue, payload, size_kb)
        )
        return result

    def peek(self, queue: str) -> Generator:
        result = yield from self._call(
            "queue.peek", lambda: self.service.peek(queue), hedgeable=True
        )
        return result

    def receive(
        self, queue: str, visibility_timeout_s: Optional[float] = None
    ) -> Generator:
        result = yield from self._call(
            "queue.receive",
            lambda: self.service.receive(queue, visibility_timeout_s),
        )
        return result

    def delete(
        self, queue: str, message: QueueMessage, pop_receipt: int
    ) -> Generator:
        result = yield from self._call(
            "queue.delete",
            lambda: self.service.delete(queue, message, pop_receipt),
        )
        return result
