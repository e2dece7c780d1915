"""The property-scan snapshot and match cache against an uncached oracle.

A random script interleaves inserts, updates, deletes and
administrative seeding (entities, or columns into an empty partition)
with concurrent property scans.  It runs twice with the same seed: once
on :class:`TableService`, once on :class:`_UncachedTables`, which seeds
every row as an :class:`Entity` and whose scan is the pre-index code --
a fresh list comprehension over a flat ``(PartitionKey, RowKey) ->
Entity`` dict, the filter evaluated in Python on each entity, per scan.
Every scan must return the same entities in the same order at the same
simulated instant, and every write the same outcome.
"""

import operator
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import calibration as cal
from repro.service.spec import OpSpec
from repro.simcore import Environment, RandomStreams
from repro.storage import TableService
from repro.storage.errors import StorageError
from repro.storage.table import make_entity

PARTITIONS = ("p0", "p1", "p2")
ROWS = tuple(f"r{i}" for i in range(8))
OPS = {
    "eq": operator.eq, "ne": operator.ne, "lt": operator.lt,
    "le": operator.le, "gt": operator.gt, "ge": operator.ge,
}
F1_IS_1 = ("f1", "eq", 1)
#: Every ``f1`` the script writes is 0, 1 or 2.
EVERY_ROW = ("f1", "ge", 0)


def _passes(flt, entity):
    name, op, value = flt
    return OPS[op](entity.properties[name], value)


class _UncachedTables(TableService):
    """The oracle: the scan as it was before the partition index."""

    def __init__(self, env, rng, flat):
        super().__init__(env, rng)
        self.flat = flat

    def query_by_property(self, table, partition_key, filter):
        rows = self.flat
        scanned = [[]]

        def op():
            scanned[0] = in_partition = [
                e for e in rows.values() if e.partition_key == partition_key
            ]
            scan_cpu = cal.TABLE_SCAN_S_PER_1K_ENTITIES * (
                len(in_partition) / 1000.0
            )
            return OpSpec(
                name="table.scan",
                cpu_s=cal.TABLE_CPU_S["query"] + scan_cpu,
                payload_mb=0.001,
                deterministic=True,
            )

        result = yield from self.pipeline.execute(
            "table.scan",
            op,
            base_latency_s=cal.TABLE_BASE_LATENCY_S["query"],
            route=(table, partition_key),
            commit=lambda: [e for e in scanned[0] if _passes(filter, e)],
        )
        return result


def _script(seed, n_steps=60):
    """``(start_s, action, args)`` steps; scans pick the shared filter
    object or build a fresh tuple."""
    rnd = random.Random(seed)
    steps = []
    for _ in range(n_steps):
        pk = rnd.choice(PARTITIONS)
        kind = rnd.choice(
            ("insert", "update", "delete", "seed", "columns", "scan", "scan")
        )
        # Columns seed only an empty partition, so mostly early on.
        start = rnd.uniform(0.0, 0.3 if kind == "columns" else 1.5)
        if kind in ("insert", "update", "seed"):
            args = (pk, rnd.choice(ROWS), rnd.randrange(3))
        elif kind == "delete":
            args = (pk, rnd.choice(ROWS))
        elif kind == "columns":
            # f1 as an array (one value per row) or as one scalar.
            count = rnd.randint(1, len(ROWS))
            f1 = (
                tuple(rnd.randrange(3) for _ in range(count))
                if rnd.random() < 0.75 else rnd.randrange(3)
            )
            args = (pk, count, f1)
        else:
            args = (
                pk, rnd.random() < 0.5, rnd.choice(tuple(OPS)),
                rnd.randrange(3),
            )
        steps.append((start, kind, args))
    return steps


def _play(steps, oracle):
    """Run ``steps``; returns (scan results, write outcomes, service,
    flat model)."""
    env = Environment()
    rng = RandomStreams(11).stream("table")
    flat = {}  # (pk, rk) -> Entity, updated at each write's commit
    svc = (
        _UncachedTables(env, rng, flat) if oracle else TableService(env, rng)
    )
    svc.create_table("t")
    scans = {}
    writes = {}

    def client(i, start, kind, args):
        yield env.timeout(start)
        pk = args[0]
        try:
            if kind == "scan":
                _, shared, op, value = args
                flt = F1_IS_1 if shared else tuple(["f1", op, value])
                found = yield from svc.query_by_property("t", pk, flt)
                scans[i] = (
                    env.now,
                    [
                        (e.partition_key, e.row_key, e.properties["f1"], e.etag)
                        for e in found
                    ],
                )
                # A caller may do what it likes with its list.
                found.append(None)
                found.clear()
                return
            if kind == "insert":
                entity = make_entity(pk, args[1], f1=args[2])
                yield from svc.insert("t", entity)
                flat[entity.key] = entity
            elif kind == "update":
                entity = make_entity(pk, args[1], f1=args[2])
                yield from svc.update("t", entity)
                flat[entity.key] = entity
            elif kind == "delete":
                yield from svc.delete("t", pk, args[1])
                del flat[(pk, args[1])]
            elif kind == "seed":
                entity = make_entity(pk, args[1], f1=args[2])
                svc.seed_entities("t", [entity])
                flat[entity.key] = entity
            elif kind == "columns":
                _, count, f1 = args
                values = f1 if isinstance(f1, tuple) else (f1,) * count
                rows = [
                    make_entity(pk, f"r{k}", f1=v) for k, v in enumerate(values)
                ]
                if svc.entity_count("t", pk):
                    with pytest.raises(ValueError, match="not empty"):
                        svc.seed_columns("t", pk, count, "r", f1=0)
                    writes[i] = (env.now, "not empty")
                    return
                if oracle:
                    svc.seed_entities("t", rows)
                else:
                    column = np.array(f1) if isinstance(f1, tuple) else f1
                    svc.seed_columns("t", pk, count, "r", f1=column)
                    for entity in rows:
                        entity.timestamp = env.now
                for entity in rows:
                    flat[entity.key] = entity
            writes[i] = (env.now, "ok")
        except StorageError as error:
            writes[i] = (env.now, type(error).__name__)

    for i, (start, kind, args) in enumerate(steps):
        env.process(client(i, start, kind, args))
    env.run()
    return scans, writes, svc, flat


def _row(entity):
    return (entity.key, entity.properties, entity.size_kb, entity.timestamp)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_cached_scans_match_the_uncached_oracle(seed):
    steps = _script(seed)
    scans, writes, svc, flat = _play(steps, oracle=False)
    want_scans, want_writes, _, _ = _play(steps, oracle=True)
    assert scans == want_scans
    assert writes == want_writes

    # The index keeps the flat dict's per-partition insertion order, and
    # every row -- seeded as columns or not -- equals the entity the
    # model stored.
    partitions = svc._tables["t"]
    for pk in PARTITIONS:
        in_flat = [_row(e) for e in flat.values() if e.partition_key == pk]
        part = partitions.get(pk)
        rows = (
            [] if part is None
            else part.matches(part.snapshot(), EVERY_ROW)
        )
        assert [_row(e) for e in rows] == in_flat
        assert svc.entity_count("t", pk) == len(in_flat)
        for e in rows:
            assert part.get(e.row_key) is e
    assert svc.entity_count("t") == len(flat)


def _seeded(n, columnar):
    """A partition of ``n`` rows ``r{i}`` with ``f1 = i % 3``."""
    env = Environment()
    svc = TableService(env, RandomStreams(0).stream("table"))
    svc.create_table("t")
    if columnar:
        svc.seed_columns("t", "pk", n, "r", f1=np.arange(n) % 3)
    else:
        svc.seed_entities(
            "t", (make_entity("pk", f"r{i}", f1=i % 3) for i in range(n))
        )
    return env, svc


def test_concurrent_scans_share_one_snapshot_and_match_list():
    for columnar in (False, True):
        _check_concurrent_scans(columnar)


def _check_concurrent_scans(columnar):
    env, svc = _seeded(300, columnar)
    results = []

    def scanner():
        # Each client builds its own, equal, filter tuple.
        flt = tuple(["f1", "eq", 1])
        found = yield from svc.query_by_property("t", "pk", flt)
        results.append(found)

    for _ in range(4):
        env.process(scanner())
    env.run()
    part = svc._tables["t"]["pk"]
    epoch, flt, matches = part._match
    assert epoch == part.epoch == part._snapshot.epoch
    assert flt == F1_IS_1
    assert len(matches) == 100
    # Each caller got its own list of the same entities.
    assert all(r == list(matches) for r in results)
    assert len({id(r) for r in results}) == 4
    results[0].clear()
    assert results[1] == list(matches)
    # Only the matches became entities.
    if columnar:
        assert len(part.block.entities) == 100


def test_each_partition_holds_at_most_one_cached_match():
    env, svc = _seeded(30, columnar=True)
    part = svc._tables["t"]["pk"]

    def scan(flt):
        box = []

        def proc():
            box.append((yield from svc.query_by_property("t", "pk", flt)))

        env.process(proc())
        env.run()
        return box[0]

    first = scan(("f1", "eq", 1))
    cached = part._match
    assert cached[1] == ("f1", "eq", 1)
    # A fresh, equal tuple hits the cache: the same matches, not a
    # re-filter.
    assert scan(tuple(["f1", "eq", 1])) == first
    assert part._match is cached
    # Another filter in the same epoch replaces the one entry.
    assert len(scan(("f1", "lt", 2))) == 20
    assert part._match[1] == ("f1", "lt", 2)
    assert part._match[0] == cached[0]

    # The key includes the epoch: a snapshot older than the cached
    # entry's re-filters its own rows.
    old = part.snapshot()
    svc.seed_entity("t", make_entity("pk", "x", f1=1))
    assert len(part.matches(part.snapshot(), F1_IS_1)) == 11
    assert part._match[0] == old.epoch + 1
    assert len(part.matches(old, F1_IS_1)) == 10


def test_every_write_kind_bumps_the_epoch_and_drops_the_cache():
    for columnar in (False, True):
        _check_every_write_kind(columnar)


def _check_every_write_kind(columnar):
    env, svc = _seeded(10, columnar)
    part = svc._tables["t"]["pk"]

    def scan():
        box = []

        def proc():
            box.append((yield from svc.query_by_property("t", "pk", F1_IS_1)))

        env.process(proc())
        env.run()
        assert part._match is not None
        return box[0]

    def run(gen):
        env.process(gen)
        env.run()

    writes = [
        lambda: run(svc.insert("t", make_entity("pk", "new", f1=1))),
        lambda: run(svc.update("t", make_entity("pk", "r0", f1=1))),
        lambda: run(svc.delete("t", "pk", "r1")),
        lambda: svc.seed_entity("t", make_entity("pk", "seeded", f1=1)),
    ]
    for write in writes:
        scan()
        epoch = part.epoch
        write()
        assert part.epoch == epoch + 1
        assert part._snapshot is None and part._match is None
    assert [e.row_key for e in scan()] == ["r0", "r4", "r7", "new", "seeded"]
