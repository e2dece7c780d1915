"""The property-scan snapshot and match cache against an uncached oracle.

A random script interleaves inserts, updates, deletes, batches and
administrative seeding with concurrent property scans.  It runs twice
with the same seed: once on :class:`TableService`, once on
:class:`_UncachedTables`, whose scan is the pre-index code -- a fresh
list comprehension over a flat ``(PartitionKey, RowKey) -> Entity``
dict and one predicate call per entity, per scan.  Every scan must
return the same entities in the same order at the same simulated
instant.
"""

import gc
import random
import weakref

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


def _f1_is_1(entity):
    return entity.properties["f1"] == 1


class _UncachedTables(TableService):
    """The oracle: the scan as it was before the partition index."""

    def __init__(self, env, rng, flat):
        super().__init__(env, rng)
        self.flat = flat

    def query_by_property(self, table, partition_key, predicate):
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
            commit=lambda: [e for e in scanned[0] if predicate(e)],
        )
        return result


def _script(seed, n_steps=60):
    """``(start_s, action, args)`` steps; scans pick a shared predicate
    or a fresh lambda."""
    rnd = random.Random(seed)
    steps = []
    for _ in range(n_steps):
        start = rnd.uniform(0.0, 1.5)
        pk = rnd.choice(PARTITIONS)
        kind = rnd.choice(
            ("insert", "update", "delete", "batch", "seed", "scan", "scan")
        )
        if kind in ("insert", "update", "seed"):
            args = (pk, rnd.choice(ROWS), rnd.randrange(3))
        elif kind == "delete":
            args = (pk, rnd.choice(ROWS))
        elif kind == "batch":
            rows = rnd.sample(ROWS, rnd.randint(1, 3))
            args = (pk, tuple((rk, rnd.randrange(3)) for rk in rows))
        else:
            args = (pk, rnd.random() < 0.5, rnd.randrange(3))
        steps.append((start, kind, args))
    return steps


def _play(steps, oracle):
    """Run ``steps``; returns (scan results, write outcomes, service,
    flat model, weak refs to every fresh-lambda predicate)."""
    env = Environment()
    rng = RandomStreams(11).stream("table")
    flat = {}  # (pk, rk) -> Entity, updated at each write's commit
    svc = (
        _UncachedTables(env, rng, flat) if oracle else TableService(env, rng)
    )
    svc.create_table("t")
    scans = {}
    writes = {}
    fresh = []

    def client(i, start, kind, args):
        yield env.timeout(start)
        pk = args[0]
        try:
            if kind == "scan":
                _, shared, value = args
                if shared:
                    predicate = _f1_is_1
                else:
                    predicate = lambda e, v=value: e.properties["f1"] == v  # noqa: E731
                    fresh.append(weakref.ref(predicate))
                found = yield from svc.query_by_property("t", pk, predicate)
                scans[i] = (
                    env.now,
                    [(e.partition_key, e.row_key, e.properties["f1"]) for e in found],
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
            elif kind == "batch":
                batch = [make_entity(pk, rk, f1=v) for rk, v in args[1]]
                yield from svc.insert_batch("t", batch)
                for entity in batch:
                    flat[entity.key] = entity
            elif kind == "seed":
                entity = make_entity(pk, args[1], f1=args[2])
                svc.seed_entities("t", [entity])
                flat[entity.key] = entity
            writes[i] = (env.now, "ok")
        except StorageError as error:
            writes[i] = (env.now, type(error).__name__)

    for i, (start, kind, args) in enumerate(steps):
        env.process(client(i, start, kind, args))
    env.run()
    return scans, writes, svc, flat, fresh


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_cached_scans_match_the_uncached_oracle(seed):
    steps = _script(seed)
    scans, writes, svc, flat, fresh = _play(steps, oracle=False)
    want_scans, want_writes, _, _, _ = _play(steps, oracle=True)
    assert scans == want_scans
    assert writes == want_writes

    # The index keeps the flat dict's per-partition insertion order.
    partitions = svc._tables["t"]
    for pk in PARTITIONS:
        in_flat = [e for e in flat.values() if e.partition_key == pk]
        assert list(partitions.get(pk, {}).values()) == in_flat
        assert svc.entity_count("t", pk) == len(in_flat)
    assert svc.entity_count("t") == len(flat)

    # At most one cached match list per partition; fresh lambdas are
    # not retained beyond the one slot.
    cached = [p._match for p in partitions.values() if p._match is not None]
    assert len(cached) <= len(partitions)
    gc.collect()
    assert sum(ref() is not None for ref in fresh) <= len(partitions)


def _seeded(n):
    env = Environment()
    svc = TableService(env, RandomStreams(0).stream("table"))
    svc.create_table("t")
    svc.seed_entities(
        "t", (make_entity("pk", f"r{i}", f1=i % 3) for i in range(n))
    )
    return env, svc


def test_concurrent_scans_share_one_snapshot_and_match_list():
    env, svc = _seeded(300)
    results = []

    def scanner():
        found = yield from svc.query_by_property("t", "pk", _f1_is_1)
        results.append(found)

    for _ in range(4):
        env.process(scanner())
    env.run()
    part = svc._tables["t"]["pk"]
    snapshot, predicate, matches = part._match
    assert snapshot is part._snapshot and predicate is _f1_is_1
    assert len(matches) == 100
    # Each caller got its own list of the same entities.
    assert all(r == list(matches) for r in results)
    assert len({id(r) for r in results}) == 4
    results[0].clear()
    assert results[1] == list(matches)


def test_every_write_kind_bumps_the_epoch_and_drops_the_cache():
    env, svc = _seeded(10)
    part = svc._tables["t"]["pk"]

    def scan():
        box = []

        def proc():
            box.append((yield from svc.query_by_property("t", "pk", _f1_is_1)))

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
        lambda: run(
            svc.insert_batch("t", [make_entity("pk", "b0"), make_entity("pk", "b1")])
        ),
        lambda: svc.seed_entity("t", make_entity("pk", "seeded", f1=1)),
    ]
    for write in writes:
        scan()
        epoch = part.epoch
        write()
        assert part.epoch == epoch + 1
        assert part._snapshot is None and part._match is None
    assert [e.row_key for e in scan()] == ["r0", "r4", "r7", "new", "seeded"]
