"""The Azure Table storage service model.

Tables are schemaless sets of entities addressed by (PartitionKey,
RowKey).  The paper's experiment (Section 3.2) drives four operations on
a single partition -- Insert, Query (keyed), Update (unconditional, same
entity from every client) and Delete -- with entity sizes 1-64 kB, and
additionally property-filter queries -- one OData ``$filter``
comparison -- that scan the partition (Section 6.1).  Administratively
seeded partitions can be stored as columns (:meth:`TableService.seed_columns`).
Each table partition is served by one :class:`PartitionServer`.

Every operation is one pass through the shared
:class:`~repro.service.pipeline.RequestPipeline`: base latency, routing
to the partition server for the (table, PartitionKey) range, the op's
:class:`OpSpec` on that server, then the commit that mutates table
state.  Ops that size themselves from current state (query/delete pay
for the bytes they touch) build their spec lazily, after the base
latency, exactly where the pre-pipeline code did.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from typing import (
    Any, Callable, Dict, Generator, Iterable, List, NamedTuple, Optional,
    Tuple,
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


@dataclass
class Entity:
    """One table row: property bag plus system columns.

    ``etag`` is 0 until the entity is stored; the service assigns it
    from its own counter at insert, batch, seeding and update commit.
    Once stored, an entity changes only through :class:`TableService`
    operations (insert, update, delete, batch, seeding): the property
    scan cache relies on every such change bumping the partition's
    epoch, so mutating a stored entity in place is unsupported.
    """

    partition_key: str
    row_key: str
    properties: Dict[str, Any] = field(default_factory=dict)
    size_kb: float = 1.0
    etag: int = 0
    timestamp: float = 0.0

    @property
    def key(self) -> Tuple[str, str]:
        return (self.partition_key, self.row_key)


#: A property filter ``(property, op, value)``: the one comparison of an
#: OData ``$filter`` such as ``f1 eq 13``, written ``("f1", "eq", 13)``.
PropertyFilter = Tuple[str, str, Any]

#: OData's comparison operators; each applies to Python scalars and,
#: elementwise, to numpy columns.
_OPS: Dict[str, Callable[[Any, Any], Any]] = {
    "eq": operator.eq,
    "ne": operator.ne,
    "lt": operator.lt,
    "le": operator.le,
    "gt": operator.gt,
    "ge": operator.ge,
}

_NUMBERS = (int, float, np.integer, np.floating)


def _kind(value: Any) -> Optional[str]:
    """``"n"`` for a number, ``"s"`` for a string, else ``None``.  A
    filter compares a property only with a value of the same kind."""
    if isinstance(value, str):
        return "s"
    if isinstance(value, _NUMBERS):
        return "n"
    return None


def check_filter(flt: Any) -> PropertyFilter:
    """``flt`` itself if it is a well-formed property filter.

    Raises :class:`TypeError` unless ``flt`` is a ``(property, op,
    value)`` tuple with a string property and a number or string value
    (so a callable is refused), and :class:`ValueError` for an
    op that is not one of OData's ``eq ne lt le gt ge``.
    """
    if not isinstance(flt, tuple) or len(flt) != 3:
        raise TypeError(
            f"a property filter is a (property, op, value) tuple, not {flt!r}"
        )
    name, op, value = flt
    if not isinstance(name, str) or not isinstance(op, str):
        raise TypeError(f"filter property and op must be strings: {flt!r}")
    if op not in _OPS:
        raise ValueError(
            f"unknown filter op {op!r}; choose from {', '.join(_OPS)}"
        )
    if _kind(value) is None:
        raise TypeError(f"filter value must be a number or a string: {flt!r}")
    return flt


def _holds(flt: PropertyFilter, entity: Entity) -> bool:
    """Whether ``entity`` passes ``flt``.  A row that lacks the property,
    or holds a value of the other kind, never matches."""
    name, op, value = flt
    have = entity.properties.get(name)
    return _kind(have) == _kind(value) and bool(_OPS[op](have, value))


def _properties(size_kb: float, overrides: Dict[str, Any]) -> Dict[str, Any]:
    """The paper's test schema {int, int, String, String}, the last
    string sized to reach ``size_kb``, with ``overrides`` applied."""
    return {"f1": 0, "f2": 0, "f3": "meta", "payload_kb": size_kb, **overrides}


@dataclass(eq=False)
class _SeededBlock:
    """The rows :meth:`TableService.seed_columns` seeded, as columns.

    Row ``i`` has RowKey ``f"{prefix}{i}"``; its properties are row
    ``i`` of ``columns`` (an array holds one value per row, any other
    value is every row's).  The :class:`Entity` of a row is built on
    first touch and kept in ``entities``; the columns never change, so
    an update stores the new entity in ``updated`` and a delete clears
    the row's ``alive`` bit.
    """

    partition_key: str
    prefix: str
    count: int
    size_kb: float
    timestamp: float
    etag_base: int
    columns: Dict[str, Any]
    alive: np.ndarray = field(init=False)
    live: int = field(init=False)
    entities: Dict[int, Entity] = field(init=False, default_factory=dict)
    updated: Dict[int, Entity] = field(init=False, default_factory=dict)

    def __post_init__(self) -> None:
        self.alive = np.ones(self.count, dtype=bool)
        self.live = self.count

    def index(self, row_key: str) -> Optional[int]:
        """The live row ``row_key`` names, else ``None``."""
        if not row_key.startswith(self.prefix):
            return None
        digits = row_key[len(self.prefix):]
        if not (digits.isascii() and digits.isdigit()) or (
            digits[0] == "0" and len(digits) > 1
        ):
            return None
        i = int(digits)
        return i if i < self.count and self.alive[i] else None

    def seeded(self, i: int) -> Entity:
        """Row ``i`` as seeded: built on first touch, then kept."""
        entity = self.entities.get(i)
        if entity is None:
            entity = self.entities[i] = Entity(
                self.partition_key,
                f"{self.prefix}{i}",
                {
                    name: (
                        column[i].item()
                        if isinstance(column, np.ndarray) else column
                    )
                    for name, column in self.columns.items()
                },
                self.size_kb,
                self.etag_base + i,
                self.timestamp,
            )
        return entity

    def row(self, i: int, updated: Dict[int, Entity]) -> Entity:
        """Row ``i`` given the ``updated`` rows of some epoch."""
        entity = updated.get(i)
        return self.seeded(i) if entity is None else entity

    def remove(self, i: int) -> None:
        self.alive[i] = False
        self.live -= 1
        self.updated.pop(i, None)

    def matches(
        self,
        flt: PropertyFilter,
        alive: np.ndarray,
        updated: Dict[int, Entity],
    ) -> List[Entity]:
        """The rows live in ``alive`` that pass ``flt``, in row order:
        one comparison over the column, then the ``updated`` rows
        checked one by one."""
        name, op, value = flt
        column = self.columns.get(name)
        if isinstance(column, np.ndarray):
            same_kind = (column.dtype.kind == "U") == (_kind(value) == "s")
            mask = (
                alive & _OPS[op](column, value) if same_kind
                else np.zeros(self.count, dtype=bool)
            )
        elif name in self.columns and _kind(column) == _kind(value) and (
            _OPS[op](column, value)
        ):
            mask = alive.copy()
        else:
            mask = np.zeros(self.count, dtype=bool)
        for i, entity in updated.items():
            mask[i] = _holds(flt, entity)
        return [self.row(i, updated) for i in np.flatnonzero(mask).tolist()]


class _Snapshot(NamedTuple):
    """A partition's rows as of one epoch, shared by every scan in it:
    the seeded block's live bits and updated rows, then the written
    rows."""

    epoch: int
    size: int
    block: Optional[_SeededBlock]
    alive: Optional[np.ndarray]
    updated: Dict[int, Entity]
    rows: Tuple[Entity, ...]

    def matches(self, flt: PropertyFilter) -> Tuple[Entity, ...]:
        found = (
            [] if self.block is None or self.alive is None
            else self.block.matches(flt, self.alive, self.updated)
        )
        found.extend(e for e in self.rows if _holds(flt, e))
        return tuple(found)


class _Partition:
    """One partition's rows in insertion order -- the seeded block, if
    any, then the written rows ``RowKey -> Entity`` -- plus its
    mutation epoch and the scan state valid for that epoch.

    Every committed write calls :meth:`bump`, which drops the scan
    state.  Within one epoch all property scans share one immutable
    snapshot, and the matches of the last filter run on it are kept --
    at most one entry, keyed on (epoch, filter).  A partition without a
    seeded block pays one attribute check for the block path.
    """

    __slots__ = ("rows", "block", "epoch", "_snapshot", "_match")

    def __init__(self) -> None:
        self.rows: Dict[str, Entity] = {}
        self.block: Optional[_SeededBlock] = None
        self.epoch = 0
        self._snapshot: Optional[_Snapshot] = None
        self._match: Optional[
            Tuple[int, PropertyFilter, Tuple[Entity, ...]]
        ] = None

    def __len__(self) -> int:
        block = self.block
        return len(self.rows) + (0 if block is None else block.live)

    def __contains__(self, row_key: str) -> bool:
        if row_key in self.rows:
            return True
        block = self.block
        return block is not None and block.index(row_key) is not None

    def get(self, row_key: str) -> Optional[Entity]:
        entity = self.rows.get(row_key)
        block = self.block
        if entity is None and block is not None:
            i = block.index(row_key)
            if i is not None:
                entity = block.row(i, block.updated)
        return entity

    def add(self, entity: Entity) -> None:
        """Store ``entity`` as the new last row (its key is absent)."""
        self.rows[entity.row_key] = entity

    def replace(self, entity: Entity) -> None:
        """Store ``entity`` in the place of the existing row it keys."""
        block = self.block
        if block is not None:
            i = block.index(entity.row_key)
            if i is not None:
                block.updated[i] = entity
                return
        self.rows[entity.row_key] = entity

    def remove(self, row_key: str) -> bool:
        """Delete the row; ``False`` if there is none."""
        if self.rows.pop(row_key, None) is not None:
            return True
        block = self.block
        if block is not None:
            i = block.index(row_key)
            if i is not None:
                block.remove(i)
                return True
        return False

    def bump(self) -> None:
        """Start a new mutation epoch (call after every write)."""
        self.epoch += 1
        self._snapshot = None
        self._match = None

    def snapshot(self) -> _Snapshot:
        """The rows as of now, shared by every scan in this epoch."""
        snap = self._snapshot
        if snap is None:
            rows = tuple(self.rows.values())
            block = self.block
            if block is None:
                snap = _Snapshot(self.epoch, len(rows), None, None, {}, rows)
            else:
                snap = _Snapshot(
                    self.epoch, block.live + len(rows), block,
                    block.alive.copy(), dict(block.updated), rows,
                )
            self._snapshot = snap
        return snap

    def matches(
        self, snapshot: _Snapshot, flt: PropertyFilter
    ) -> List[Entity]:
        """A fresh list of the ``snapshot`` rows that pass ``flt``.
        Only a snapshot of the current epoch is cached, so a scan that
        outlives a write re-filters its own snapshot, exactly as an
        uncached scan would."""
        hit = self._match
        if hit is not None and hit[0] == snapshot.epoch and hit[1] == flt:
            return list(hit[2])
        found = snapshot.matches(flt)
        if snapshot.epoch == self.epoch:
            self._match = (snapshot.epoch, flt, found)
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
        self._next_etag = 1
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

    def _etags(self, n: int = 1) -> int:
        """Reserve ``n`` consecutive etags; returns the first.  The
        counter is the service's own, so identical runs assign
        identical etags."""
        first = self._next_etag
        self._next_etag = first + n
        return first

    # -- administrative ------------------------------------------------------
    def create_table(self, table: str) -> None:
        self._tables.setdefault(table, {})

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
            entity.etag = self._etags()
            entity.timestamp = now
            rows.add(entity)

    def seed_columns(
        self,
        table: str,
        partition_key: str,
        count: int,
        row_key_prefix: str,
        size_kb: float = 1.0,
        **columns: Any,
    ) -> None:
        """Administratively seed ``count`` rows into an empty partition,
        stored as columns rather than entities.

        Row ``i`` has RowKey ``f"{row_key_prefix}{i}"`` and is the entity
        ``make_entity(partition_key, rowkey, size_kb, **row_i)``, where
        ``row_i`` takes each column's ``i``-th element (as a Python
        scalar) if the column is a numpy array of length ``count``
        (numbers or strings), else the column itself.  The rows are
        stamped now and reserve ``count`` etags (row ``i`` gets the
        first plus ``i``).  A row becomes an :class:`Entity` when a
        point op or a scan match first touches it.

        Like :meth:`seed_entities`: no events, no RNG, one epoch bump.
        Raises :class:`ValueError` if the partition holds any row, or
        for a malformed column.
        """
        if count < 1:
            raise ValueError("count must be >= 1")
        schema: Dict[str, Any] = {}
        for name, column in _properties(size_kb, columns).items():
            if isinstance(column, np.ndarray):
                if column.shape != (count,) or column.dtype.kind not in "biufU":
                    raise ValueError(
                        f"column {name!r} must be a 1-D array of {count}"
                        " numbers or strings"
                    )
                column = column.copy()
            elif isinstance(column, np.generic):
                column = column.item()
            schema[name] = column
        partitions = self._partitions(table)
        rows = self._partition(table, partitions, partition_key)
        if len(rows):
            raise ValueError(
                f"partition {partition_key!r} of table {table!r} is not empty"
            )
        rows.block = _SeededBlock(
            partition_key, row_key_prefix, count, size_kb, self.env.now,
            self._etags(count), schema,
        )
        rows.bump()

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
            entity.etag = self._etags()
            entity.timestamp = self.env.now
            rows.add(entity)
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
            entity.etag = self._etags()
            entity.timestamp = self.env.now
            rows.replace(entity)
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
            if found[0] is None or rows is None or not rows.remove(row_key):
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
            first = self._etags(len(entities))
            for k, entity in enumerate(entities):
                entity.etag = first + k
                entity.timestamp = self.env.now
                rows.add(entity)
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
        filter: PropertyFilter,
    ) -> Generator:
        """Property-filter query: ``filter`` is one OData comparison
        (``("f1", "eq", 13)`` is ``$filter=f1 eq 13``; see
        :func:`check_filter`, which runs before anything is scheduled).
        It scans the partition (no secondary indexes exist -- Section
        6.1), so cost grows with partition size and the scan occupies a
        CPU core for its duration.

        The result is a fresh list of the entities, in insertion order,
        that pass ``filter`` at commit time among those in the partition
        after the base latency.  Scans in one mutation epoch share the
        snapshot and, for an equal filter, the matches (see
        :class:`_Partition`).
        """
        flt = check_filter(filter)
        partitions = self._partitions(table)
        rows: Optional[_Partition] = None
        snapshot: Optional[_Snapshot] = None

        def op() -> OpSpec:
            # The scan set is captured after the base latency; its size
            # sets the CPU cost.
            nonlocal rows, snapshot
            rows = partitions.get(partition_key)
            size = 0
            if rows is not None:
                snapshot = rows.snapshot()
                size = snapshot.size
            scan_cpu = cal.TABLE_SCAN_S_PER_1K_ENTITIES * (size / 1000.0)
            return OpSpec(
                name="table.scan",
                cpu_s=cal.TABLE_CPU_S["query"] + scan_cpu,
                payload_mb=0.001,
                # Scan cost is dominated by data volume, not service
                # jitter, so it is deterministic per partition size.
                deterministic=True,
            )

        def commit() -> List[Entity]:
            if rows is None or snapshot is None:
                return []
            return rows.matches(snapshot, flt)

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
        partition_key, row_key, _properties(size_kb, properties), size_kb
    )
