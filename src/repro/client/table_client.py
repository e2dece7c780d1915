"""Typed client for the table service."""

from __future__ import annotations

from typing import Any, Generator, Optional

from repro import calibration as cal
from repro.client.service_client import ServiceClient
from repro.resilience.backoff import RetryPolicy
from repro.resilience.hedging import HedgePolicy
from repro.storage.table import (
    Entity, PropertyFilter, TableService, check_filter,
)


class TableClient(ServiceClient):
    """Table operations with client timeout + retry (StorageClient style).

    Every op returns its result or raises the final error after the
    retries (and, on a geo client, the failover pass).

    Optional resilience hooks (see :mod:`repro.resilience`): ``budget``
    (shared retry budget), ``breaker`` (circuit breaker), and ``hedge``
    (hedging for the idempotent keyed-Query read path only).
    """

    def __init__(
        self,
        service: TableService,
        timeout_s: float = cal.TABLE_CLIENT_TIMEOUT_S,
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

    def insert(self, table: str, entity: Entity) -> Generator:
        result = yield from self._call(
            "table.insert", lambda: self.service.insert(table, entity)
        )
        return result

    def query(self, table: str, pk: str, rk: str) -> Generator:
        result = yield from self._call(
            "table.query",
            lambda: self.service.query(table, pk, rk),
            hedgeable=True,
        )
        return result

    def update(
        self, table: str, entity: Entity, if_match: Optional[int] = None
    ) -> Generator:
        result = yield from self._call(
            "table.update",
            lambda: self.service.update(table, entity, if_match),
        )
        return result

    def delete(self, table: str, pk: str, rk: str) -> Generator:
        result = yield from self._call(
            "table.delete", lambda: self.service.delete(table, pk, rk)
        )
        return result

    def query_by_property(
        self, table: str, pk: str, filter: PropertyFilter
    ) -> Generator:
        # A malformed filter raises here, before the call schedules
        # anything, rather than inside the timed attempt.
        check_filter(filter)
        result = yield from self._call(
            "table.scan",
            lambda: self.service.query_by_property(table, pk, filter),
        )
        return result
