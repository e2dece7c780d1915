"""The Azure Table storage service model.

Tables are schemaless sets of entities addressed by (PartitionKey,
RowKey).  The paper's experiment (Section 3.2) drives four operations on
a single partition -- Insert, Query (keyed), Update (unconditional, same
entity from every client) and Delete -- with entity sizes 1-64 kB, and
additionally property-filter queries that scan the partition (Section
6.1).  Each table partition is served by one :class:`PartitionServer`.

Every operation is one pass through the shared
:class:`~repro.service.pipeline.RequestPipeline`: base latency, routing
to the partition server for the (table, PartitionKey) range, the op's
:class:`OpSpec` on that server, then the commit that mutates table
state.  Ops that size themselves from current state (query/delete pay
for the bytes they touch) build their spec lazily, after the base
latency, exactly where the pre-pipeline code did.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import (
    Any, Callable, Dict, Generator, Iterable, List, Optional, Tuple,
)

import numpy as np

from repro import calibration as cal
from repro.service.pipeline import LatencyProfile, RequestPipeline
from repro.service.spec import OpSpec
from repro.service.tracing import RequestTracer
from repro.simcore import Environment
from repro.storage.errors import (
    EntityAlreadyExistsError,
    EntityNotFoundError,
    PreconditionFailedError,
)
from repro.storage.partition import PartitionServer

_etags = itertools.count(1)


@dataclass
class Entity:
    """One table row: property bag plus system columns.

    Once stored, an entity changes only through :class:`TableService`
    operations (insert, update, delete, batch, seeding): the property
    scan cache relies on every such change bumping the partition's
    epoch, so mutating a stored entity in place is unsupported.
    """

    partition_key: str
    row_key: str
    properties: Dict[str, Any] = field(default_factory=dict)
    size_kb: float = 1.0
    etag: int = field(default_factory=_etags.__next__)
    timestamp: float = 0.0

    @property
    def key(self) -> Tuple[str, str]:
        return (self.partition_key, self.row_key)


class _Partition(Dict[str, Entity]):
    """One partition's rows, ``RowKey -> Entity`` in insertion order,
    plus its mutation epoch and the scan state valid for that epoch.

    Every committed write calls :meth:`bump`, which drops the scan
    state.  Within one epoch all property scans share one immutable
    snapshot, and the matches of the last (snapshot, predicate) pair
    are kept -- at most one entry, predicate compared by identity.
    """

    __slots__ = ("epoch", "_snapshot", "_match")

    def __init__(self) -> None:
        super().__init__()
        self.epoch = 0
        self._snapshot: Optional[Tuple[Entity, ...]] = None
        self._match: Optional[
            Tuple[Tuple[Entity, ...], Callable[[Entity], bool], Tuple[Entity, ...]]
        ] = None

    def bump(self) -> None:
        """Start a new mutation epoch (call after every write)."""
        self.epoch += 1
        self._snapshot = None
        self._match = None

    def snapshot(self) -> Tuple[Entity, ...]:
        """The rows as of now, shared by every scan in this epoch."""
        snap = self._snapshot
        if snap is None:
            snap = self._snapshot = tuple(self.values())
        return snap

    def matches(
        self,
        snapshot: Tuple[Entity, ...],
        predicate: Callable[[Entity], bool],
    ) -> List[Entity]:
        """A fresh list of the ``snapshot`` entities ``predicate``
        accepts.  Only a snapshot of the current epoch is cached, so a
        scan that outlives a write re-filters its own snapshot, exactly
        as an uncached scan would."""
        hit = self._match
        if hit is not None and hit[0] is snapshot and hit[1] is predicate:
            return list(hit[2])
        found = tuple(filter(predicate, snapshot))
        if snapshot is self._snapshot:
            self._match = (snapshot, predicate, found)
        return list(found)


class TableService:
    """A table storage account endpoint.

    All operations are generators to be driven from a simulation process
    (typically via the client SDK, which adds timeout racing and retry).

    Rows are indexed ``table -> PartitionKey -> RowKey``, so a point op
    is two dict lookups and :meth:`entity_count` of a partition is O(1).
    """

    def __init__(
        self,
        env: Environment,
        rng: np.random.Generator,
        name: str = "tables",
        tracer: Optional[RequestTracer] = None,
    ) -> None:
        self.env = env
        self.rng = rng
        self.name = name
        #: Optional fault injector (see :mod:`repro.faults`); consulted
        #: at request admission by drills that target the whole service.
        self.fault_injector: Optional[Any] = None
        # One partition server per (table, partition key) range.  The
        # paper's workload uses a single partition, so contention
        # concentrates exactly as it did in the measurement.
        self._servers: Dict[Tuple[str, str], PartitionServer] = {}
        self._tables: Dict[str, Dict[str, _Partition]] = {}
        self.pipeline = RequestPipeline(
            env,
            rng,
            service=name,
            latency=LatencyProfile(fixed_frac=0.85, jitter_frac=0.15),
            router=lambda key: self.server_for(*key),
            owner=self,
            tracer=tracer,
        )

    @property
    def tracer(self) -> Optional[RequestTracer]:
        return self.pipeline.tracer

    # -- administrative ------------------------------------------------------
    def create_table(self, table: str) -> None:
        self._tables.setdefault(table, {})

    def table_names(self) -> List[str]:
        return sorted(self._tables)

    def entity_count(self, table: str, partition_key: Optional[str] = None) -> int:
        partitions = self._partitions(table)
        if partition_key is None:
            return sum(len(rows) for rows in partitions.values())
        rows = partitions.get(partition_key)
        return 0 if rows is None else len(rows)

    def server_for(self, table: str, partition_key: str) -> PartitionServer:
        key = (table, partition_key)
        server = self._servers.get(key)
        if server is None:
            server = PartitionServer(
                self.env,
                self.rng,
                name=f"{self.name}/{table}/{partition_key}",
                frontend_c_s=cal.TABLE_FRONTEND_C_S,
                frontend_gamma=cal.TABLE_FRONTEND_GAMMA,
                cores=cal.TABLE_SERVER_CORES,
                overload_knee_mb=cal.TABLE_OVERLOAD_KNEE_MB,
                overload_slope_per_mb=cal.TABLE_OVERLOAD_SLOPE_PER_MB,
            )
            self._servers[key] = server
        return server

    def servers(self) -> List[PartitionServer]:
        """The live partition servers, in deterministic key order (the
        expansion target for domain-scoped faults)."""
        return [self._servers[key] for key in sorted(self._servers)]

    def seed_entity(self, table: str, entity: Entity) -> Entity:
        """Administratively materialize one entity (see
        :meth:`seed_entities`)."""
        self.seed_entities(table, (entity,))
        return entity

    def seed_entities(self, table: str, entities: Iterable[Entity]) -> None:
        """Administratively materialize entities (and their partition
        servers) without paying request latency -- the replica-priming
        analogue of :meth:`BlobService.seed_blob`.  No events, no RNG.

        Entities are stored in iteration order; a key that already
        exists raises :class:`EntityAlreadyExistsError` (the entities
        before it stay seeded).
        """
        partitions = self._partitions(table)
        now = self.env.now
        touched: Dict[str, _Partition] = {}
        for entity in entities:
            rows = touched.get(entity.partition_key)
            if rows is None:
                # One bump per touched partition; seeding is synchronous,
                # so no scan can run between it and the writes below.
                rows = self._partition(table, partitions, entity.partition_key)
                rows.bump()
                touched[entity.partition_key] = rows
            if entity.row_key in rows:
                raise EntityAlreadyExistsError(
                    f"{entity.key} already exists", service=self.name,
                    op="table.insert",
                )
            entity.timestamp = now
            rows[entity.row_key] = entity

    def _partitions(self, table: str) -> Dict[str, _Partition]:
        partitions = self._tables.get(table)
        if partitions is None:
            raise EntityNotFoundError(
                f"table {table!r} does not exist", service=self.name
            )
        return partitions

    def _partition(
        self, table: str, partitions: Dict[str, _Partition], partition_key: str
    ) -> _Partition:
        """The partition's rows, created (with its server) on first write."""
        rows = partitions.get(partition_key)
        if rows is None:
            rows = partitions[partition_key] = _Partition()
            self.server_for(table, partition_key)
        return rows

    def _op(self, kind: str, size_kb: float, latch_key: Any) -> OpSpec:
        return OpSpec(
            name=f"table.{kind}",
            cpu_s=cal.TABLE_CPU_S[kind] + cal.TABLE_CPU_PER_KB_S * size_kb,
            exclusive_s=cal.TABLE_EXCLUSIVE_S[kind],
            latch_key=latch_key,
            payload_mb=size_kb / 1024.0,
        )

    # -- data plane ------------------------------------------------------------
    def insert(self, table: str, entity: Entity) -> Generator:
        """Insert a new entity; fails if the key already exists."""
        partitions = self._partitions(table)

        def commit() -> Entity:
            rows = self._partition(table, partitions, entity.partition_key)
            if entity.row_key in rows:
                raise EntityAlreadyExistsError(
                    f"{entity.key} already exists",
                    service=self.name,
                    op="table.insert",
                )
            entity.timestamp = self.env.now
            rows[entity.row_key] = entity
            rows.bump()
            return entity

        result = yield from self.pipeline.execute(
            "table.insert",
            self._op("insert", entity.size_kb, latch_key="index"),
            base_latency_s=cal.TABLE_BASE_LATENCY_S["insert"],
            route=(table, entity.partition_key),
            commit=commit,
        )
        return result

    def query(self, table: str, partition_key: str, row_key: str) -> Generator:
        """Point query by PartitionKey + RowKey (the fast, indexed path)."""
        partitions = self._partitions(table)
        found: List[Optional[Entity]] = [None]

        def op() -> OpSpec:
            # Sized from the entity as it exists after the base latency
            # (you pay for the bytes the lookup touches).
            rows = partitions.get(partition_key)
            found[0] = hit = None if rows is None else rows.get(row_key)
            return self._op(
                "query", hit.size_kb if hit else 0.5, latch_key=None
            )

        def commit() -> Entity:
            hit = found[0]
            if hit is None:
                raise EntityNotFoundError(
                    f"({partition_key}, {row_key}) not found",
                    service=self.name,
                    op="table.query",
                )
            return hit

        result = yield from self.pipeline.execute(
            "table.query",
            op,
            base_latency_s=cal.TABLE_BASE_LATENCY_S["query"],
            route=(table, partition_key),
            commit=commit,
        )
        return result

    def update(
        self,
        table: str,
        entity: Entity,
        if_match: Optional[int] = None,
    ) -> Generator:
        """Replace an entity.  ``if_match=None`` is the unconditional
        update the paper tests (no atomicity enforcement across clients,
        but the server still serializes writes to one entity)."""
        partitions = self._partitions(table)

        def commit() -> Entity:
            rows = partitions.get(entity.partition_key)
            current = None if rows is None else rows.get(entity.row_key)
            if rows is None or current is None:
                raise EntityNotFoundError(
                    f"{entity.key} not found",
                    service=self.name,
                    op="table.update",
                )
            if if_match is not None and current.etag != if_match:
                raise PreconditionFailedError(
                    f"etag mismatch on {entity.key}:"
                    f" {current.etag} != {if_match}",
                    service=self.name,
                    op="table.update",
                )
            entity.etag = next(_etags)
            entity.timestamp = self.env.now
            rows[entity.row_key] = entity
            rows.bump()
            return entity

        result = yield from self.pipeline.execute(
            "table.update",
            self._op(
                "update", entity.size_kb, latch_key=("entity", entity.key)
            ),
            base_latency_s=cal.TABLE_BASE_LATENCY_S["update"],
            route=(table, entity.partition_key),
            commit=commit,
        )
        return result

    def delete(self, table: str, partition_key: str, row_key: str) -> Generator:
        """Delete an entity by key."""
        partitions = self._partitions(table)
        found: List[Optional[Entity]] = [None]

        def op() -> OpSpec:
            rows = partitions.get(partition_key)
            found[0] = hit = None if rows is None else rows.get(row_key)
            return self._op(
                "delete", hit.size_kb if hit else 0.5, latch_key="index"
            )

        def commit() -> None:
            # A concurrent delete may have removed the row since ``op``
            # sized the request; that one won, so this one finds nothing.
            rows = partitions.get(partition_key)
            if (
                found[0] is None
                or rows is None
                or rows.pop(row_key, None) is None
            ):
                raise EntityNotFoundError(
                    f"({partition_key}, {row_key}) not found",
                    service=self.name,
                    op="table.delete",
                )
            rows.bump()

        yield from self.pipeline.execute(
            "table.delete",
            op,
            base_latency_s=cal.TABLE_BASE_LATENCY_S["delete"],
            route=(table, partition_key),
            commit=commit,
        )

    def insert_batch(self, table: str, entities: List[Entity]) -> Generator:
        """Entity Group Transaction: insert up to 100 entities of ONE
        partition atomically (added to Azure tables in late 2009).

        The batch pays one request round trip and holds the index latch
        once, so it is far cheaper than N singleton inserts -- but if any
        key exists, the whole batch fails and nothing is written.
        """
        if not entities:
            raise ValueError("batch must not be empty")
        if len(entities) > 100:
            raise ValueError("Entity Group Transactions cap at 100 entities")
        partition_keys = {e.partition_key for e in entities}
        if len(partition_keys) != 1:
            raise ValueError(
                "all batch entities must share one PartitionKey"
            )
        keys = [e.key for e in entities]
        if len(set(keys)) != len(keys):
            raise ValueError("duplicate keys within batch")
        partitions = self._partitions(table)
        partition_key = next(iter(partition_keys))
        total_kb = sum(e.size_kb for e in entities)

        def commit() -> List[Entity]:
            rows = self._partition(table, partitions, partition_key)
            conflicts = [key for key in keys if key[1] in rows]
            if conflicts:
                raise EntityAlreadyExistsError(
                    f"batch aborted: {conflicts[0]} already exists",
                    service=self.name,
                    op="table.insert_batch",
                )
            for entity in entities:
                entity.timestamp = self.env.now
                rows[entity.row_key] = entity
            rows.bump()
            return entities

        result = yield from self.pipeline.execute(
            "table.insert_batch",
            OpSpec(
                name="table.insert_batch",
                cpu_s=(
                    cal.TABLE_CPU_S["insert"]
                    + cal.TABLE_CPU_PER_KB_S * total_kb
                ),
                exclusive_s=cal.TABLE_EXCLUSIVE_S["insert"],
                latch_key="index",
                payload_mb=total_kb / 1024.0,
            ),
            base_latency_s=cal.TABLE_BASE_LATENCY_S["insert"],
            route=(table, partition_key),
            commit=commit,
        )
        return result

    def query_by_property(
        self,
        table: str,
        partition_key: str,
        predicate: Callable[[Entity], bool],
    ) -> Generator:
        """Property-filter query: scans the partition (no secondary
        indexes exist -- Section 6.1), so cost grows with partition size
        and the scan occupies a CPU core for its duration.

        The result is a fresh list of the entities, in insertion order,
        that ``predicate`` accepts at commit time among those in the
        partition after the base latency.  Scans in one mutation epoch
        share the snapshot and, for the same predicate object, the
        matches (see :class:`_Partition`).
        """
        partitions = self._partitions(table)
        rows: Optional[_Partition] = None
        snapshot: Tuple[Entity, ...] = ()

        def op() -> OpSpec:
            # The scan set is captured after the base latency; its size
            # sets the CPU cost.
            nonlocal rows, snapshot
            rows = partitions.get(partition_key)
            if rows is not None:
                snapshot = rows.snapshot()
            scan_cpu = cal.TABLE_SCAN_S_PER_1K_ENTITIES * (
                len(snapshot) / 1000.0
            )
            return OpSpec(
                name="table.scan",
                cpu_s=cal.TABLE_CPU_S["query"] + scan_cpu,
                payload_mb=0.001,
                # Scan cost is dominated by data volume, not service
                # jitter, so it is deterministic per partition size.
                deterministic=True,
            )

        def commit() -> List[Entity]:
            return [] if rows is None else rows.matches(snapshot, predicate)

        result = yield from self.pipeline.execute(
            "table.scan",
            op,
            base_latency_s=cal.TABLE_BASE_LATENCY_S["query"],
            route=(table, partition_key),
            commit=commit,
        )
        return result


def make_entity(
    partition_key: str,
    row_key: str,
    size_kb: float = 1.0,
    **properties: Any,
) -> Entity:
    """Convenience constructor mirroring the paper's test schema:
    {int, int, String, String} plus the keys, with the last string sized
    to reach ``size_kb``."""
    return Entity(
        partition_key,
        row_key,
        {"f1": 0, "f2": 0, "f3": "meta", "payload_kb": size_kb, **properties},
        size_kb,
    )
