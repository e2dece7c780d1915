"""Typed client for the blob service."""

from __future__ import annotations

from typing import Any, Generator, Optional

from repro.client.service_client import ServiceClient
from repro.resilience.backoff import RetryPolicy
from repro.resilience.hedging import HedgePolicy
from repro.storage.blob import BlobService, NetworkEndpoint


class BlobClient(ServiceClient):
    """Blob operations bound to one network endpoint (a VM).

    By default large transfers are not raced against a client timeout
    (the real SDK streamed them with per-chunk timeouts, so a
    slow-but-moving transfer never tripped it); ``timeout_s`` sets one.
    Transport-level failures still retry.

    Optional resilience hooks (see :mod:`repro.resilience`):

    * ``budget``  — shared retry budget consulted before every retry;
    * ``breaker`` — circuit breaker gating every attempt;
    * ``hedge``   — hedging policy for the idempotent read path
      (:meth:`download` only; writes and deletes are never hedged).
    """

    def __init__(
        self,
        service: BlobService,
        endpoint: NetworkEndpoint,
        timeout_s: Optional[float] = None,
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
        self.endpoint = endpoint

    def upload(
        self,
        container: str,
        name: str,
        size_mb: float,
        overwrite: bool = False,
    ) -> Generator:
        result = yield from self._call(
            "blob.upload",
            lambda: self.service.upload(
                self.endpoint, container, name, size_mb, overwrite
            ),
        )
        return result

    def download(
        self, container: str, name: str, corrupt_probability: float = 0.0
    ) -> Generator:
        result = yield from self._call(
            "blob.download",
            lambda: self.service.download(
                self.endpoint, container, name, corrupt_probability
            ),
            hedgeable=True,
        )
        return result

    def exists(self, container: str, name: str) -> bool:
        return self.service.exists(container, name)
