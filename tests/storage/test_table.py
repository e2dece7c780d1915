"""Unit tests for table-service semantics."""

import numpy as np
import pytest

from repro.client import TableClient
from repro.simcore import Environment, RandomStreams
from repro.storage import (
    EntityAlreadyExistsError,
    EntityNotFoundError,
    TableService,
)
from repro.storage.errors import PreconditionFailedError
from repro.storage.table import make_entity


def _svc(env, seed=0):
    return TableService(env, RandomStreams(seed).stream("table"))


def _run(env, gen):
    """Drive a service generator to completion; returns (result, error)."""
    box = {}

    def proc(env):
        try:
            box["result"] = yield from gen
        except Exception as exc:  # noqa: BLE001 - test harness
            box["error"] = exc

    env.process(proc(env))
    env.run()
    return box.get("result"), box.get("error")


def test_insert_then_query_roundtrip():
    env = Environment()
    svc = _svc(env)
    svc.create_table("t")
    entity = make_entity("p", "r1", size_kb=4.0)
    _, err = _run(env, svc.insert("t", entity))
    assert err is None
    found, err = _run(env, svc.query("t", "p", "r1"))
    assert err is None
    assert found is entity
    assert svc.entity_count("t") == 1


def test_insert_duplicate_key_fails():
    env = Environment()
    svc = _svc(env)
    svc.create_table("t")
    _run(env, svc.insert("t", make_entity("p", "r")))
    _, err = _run(env, svc.insert("t", make_entity("p", "r")))
    assert isinstance(err, EntityAlreadyExistsError)


def test_query_missing_entity_fails():
    env = Environment()
    svc = _svc(env)
    svc.create_table("t")
    _, err = _run(env, svc.query("t", "p", "nope"))
    assert isinstance(err, EntityNotFoundError)


def test_unconditional_update_replaces_and_bumps_etag():
    env = Environment()
    svc = _svc(env)
    svc.create_table("t")
    original = make_entity("p", "r")
    _run(env, svc.insert("t", original))
    first_etag = original.etag
    replacement = make_entity("p", "r", f1=99)
    _, err = _run(env, svc.update("t", replacement))
    assert err is None
    assert replacement.etag != first_etag
    found, _ = _run(env, svc.query("t", "p", "r"))
    assert found.properties["f1"] == 99


def test_conditional_update_enforces_etag():
    env = Environment()
    svc = _svc(env)
    svc.create_table("t")
    entity = make_entity("p", "r")
    _run(env, svc.insert("t", entity))
    stale = entity.etag
    _run(env, svc.update("t", make_entity("p", "r")))  # bumps etag
    _, err = _run(env, svc.update("t", make_entity("p", "r"), if_match=stale))
    assert isinstance(err, PreconditionFailedError)


def test_update_missing_entity_fails():
    env = Environment()
    svc = _svc(env)
    svc.create_table("t")
    _, err = _run(env, svc.update("t", make_entity("p", "ghost")))
    assert isinstance(err, EntityNotFoundError)


def test_delete_removes_entity():
    env = Environment()
    svc = _svc(env)
    svc.create_table("t")
    _run(env, svc.insert("t", make_entity("p", "r")))
    _, err = _run(env, svc.delete("t", "p", "r"))
    assert err is None
    assert svc.entity_count("t") == 0
    _, err = _run(env, svc.delete("t", "p", "r"))
    assert isinstance(err, EntityNotFoundError)


def test_query_by_property_scans_partition():
    env = Environment()
    svc = _svc(env)
    svc.create_table("t")
    for i in range(20):
        _run(env, svc.insert("t", make_entity("p", f"r{i}", f1=i)))
    hits, err = _run(env, svc.query_by_property("t", "p", ("f1", "lt", 10)))
    assert err is None
    assert [e.row_key for e in hits] == [f"r{i}" for i in range(10)]


def _scan_cost(n, seed):
    """Simulated latency of one scan matching nothing over ``n`` rows,
    inserted one by one (``"insert"``), seeded as entities or as
    columns."""
    env = Environment()
    svc = _svc(env)
    svc.create_table("t")
    if seed == "insert":
        for i in range(n):
            _run(env, svc.insert("t", make_entity("p", f"r{i}")))
    elif seed == "entities":
        svc.seed_entities("t", (make_entity("p", f"r{i}") for i in range(n)))
    else:
        svc.seed_columns("t", "p", n, "r")
    t0 = env.now
    hits, err = _run(env, svc.query_by_property("t", "p", ("f1", "eq", -1)))
    assert err is None and hits == []
    return env.now - t0


def test_property_scan_cost_grows_with_partition_size():
    assert _scan_cost(5000, "entities") > _scan_cost(50, "insert") * 5


def test_scan_cost_is_the_same_for_columnar_and_entity_seeding():
    # Same service RNG state at the scan, same row count: bit-equal.
    assert _scan_cost(5000, "columns") == _scan_cost(5000, "entities")


@pytest.mark.parametrize(
    "bad, error",
    [
        (lambda e: True, TypeError),
        ("f1 eq 13", TypeError),
        (("f1", "eq"), TypeError),
        (("f1", "eq", 13, 0), TypeError),
        ((1, "eq", 13), TypeError),
        (("f1", "eq", None), TypeError),
        (("f1", "like", 13), ValueError),
    ],
)
def test_query_by_property_rejects_malformed_filters(bad, error):
    env = Environment()
    svc = _svc(env)
    svc.create_table("t")
    svc.seed_columns("t", "p", 10, "r")
    with pytest.raises(error):
        next(svc.query_by_property("t", "p", bad))
    client = TableClient(svc)
    with pytest.raises(error):
        next(client.query_by_property("t", "p", bad))
    # Raised before anything was scheduled.
    assert env.peek() == float("inf")


def test_filter_ops_and_kinds():
    env = Environment()
    svc = _svc(env)
    svc.create_table("t")
    svc.seed_columns(
        "t", "p", 6, "r", f1=np.arange(6), f3=np.array(list("abcabc"))
    )
    svc.seed_entity("t", make_entity("p", "x", f1=2.5, f3="b", extra=1))

    def keys(flt):
        hits, err = _run(env, svc.query_by_property("t", "p", flt))
        assert err is None
        return [e.row_key for e in hits]

    assert keys(("f1", "eq", 2)) == ["r2"]
    assert keys(("f1", "ne", 2)) == ["r0", "r1", "r3", "r4", "r5", "x"]
    assert keys(("f1", "lt", 2)) == ["r0", "r1"]
    assert keys(("f1", "le", 2)) == ["r0", "r1", "r2"]
    assert keys(("f1", "gt", 2)) == ["r3", "r4", "r5", "x"]
    assert keys(("f1", "ge", 2.5)) == ["r3", "r4", "r5", "x"]
    assert keys(("f3", "eq", "b")) == ["r1", "r4", "x"]
    assert keys(("f3", "lt", "b")) == ["r0", "r3"]
    # A scalar column applies to every row.
    assert keys(("f2", "eq", 0)) == ["r0", "r1", "r2", "r3", "r4", "r5", "x"]
    # Another kind of value, or a property the row lacks, never matches.
    assert keys(("f1", "ne", "2")) == []
    assert keys(("f3", "ne", 0)) == []
    assert keys(("extra", "ge", 0)) == ["x"]
    assert keys(("missing", "ne", 0)) == []


def test_operations_on_missing_table_fail():
    env = Environment()
    svc = _svc(env)
    _, err = _run(env, svc.insert("ghost", make_entity("p", "r")))
    assert isinstance(err, EntityNotFoundError)


def test_partition_isolation():
    env = Environment()
    svc = _svc(env)
    svc.create_table("t")
    _run(env, svc.insert("t", make_entity("p1", "r")))
    _run(env, svc.insert("t", make_entity("p2", "r")))
    assert svc.entity_count("t", "p1") == 1
    assert svc.entity_count("t") == 2
    s1 = svc.server_for("t", "p1")
    s2 = svc.server_for("t", "p2")
    assert s1 is not s2
    assert svc.server_for("t", "p1") is s1


def test_entity_key_and_timestamp():
    env = Environment()
    svc = _svc(env)
    svc.create_table("t")
    e = make_entity("p", "r", size_kb=2.0)
    assert e.key == ("p", "r")
    _run(env, svc.insert("t", e))
    assert e.timestamp > 0
    assert e.size_kb == 2.0


def test_seed_entities_is_free_and_rejects_duplicates():
    env = Environment()
    svc = _svc(env)
    svc.create_table("t")
    state = svc.rng.bit_generator.state
    svc.seed_entities(
        "t", [make_entity("a", "r1"), make_entity("b", "r1"), make_entity("a", "r2")]
    )
    # No RNG draw, no scheduled event; servers exist for both partitions.
    assert svc.rng.bit_generator.state == state
    assert env.peek() == float("inf")
    assert [s.name for s in svc.servers()] == ["tables/t/a", "tables/t/b"]
    assert svc.entity_count("t", "a") == 2 and svc.entity_count("t") == 3
    with pytest.raises(EntityAlreadyExistsError):
        svc.seed_entities("t", [make_entity("c", "r1"), make_entity("a", "r2")])
    # Entities before the duplicate stay seeded; seed_entity delegates.
    assert svc.entity_count("t", "c") == 1
    with pytest.raises(EntityAlreadyExistsError):
        svc.seed_entity("t", make_entity("b", "r1"))
    found, err = _run(env, svc.query("t", "b", "r1"))
    assert err is None and found.partition_key == "b"


def test_seed_columns_rows_are_the_entities_make_entity_builds():
    env = Environment()
    svc = _svc(env)
    svc.create_table("t")
    env.run(until=2.0)
    state = svc.rng.bit_generator.state
    svc.seed_entity("t", make_entity("other", "x"))
    svc.seed_columns(
        "t", "p", 5, "row-", size_kb=4.0,
        f1=np.arange(5) * 10, f2=np.array([0.5] * 5), f3=np.int64(7),
        tag="fixed",
    )
    # No RNG draw, no scheduled event, one epoch bump.
    assert svc.rng.bit_generator.state == state
    assert env.peek() == float("inf")
    assert svc._tables["t"]["p"].epoch == 1
    assert svc.entity_count("t", "p") == 5 and svc.entity_count("t") == 6
    assert [s.name for s in svc.servers()] == ["tables/t/other", "tables/t/p"]
    for i in range(5):
        got, err = _run(env, svc.query("t", "p", f"row-{i}"))
        assert err is None
        want = make_entity(
            "p", f"row-{i}", size_kb=4.0, f1=10 * i, f2=0.5, f3=7, tag="fixed"
        )
        assert got.key == want.key and got.size_kb == 4.0
        assert list(got.properties.items()) == list(want.properties.items())
        assert [type(v) for v in got.properties.values()] == [
            int, float, int, float, str,
        ]
        # Stamped at the seeding instant; the etags follow the one
        # seed_entity took, row i at base + i.
        assert got.timestamp == 2.0
        assert got.etag == 2 + i
    for key in ("row-5", "row-01", "row-", "row--1", "row-x", "p-1"):
        _, err = _run(env, svc.query("t", "p", key))
        assert isinstance(err, EntityNotFoundError), key


def test_seed_columns_refuses_a_non_empty_partition_and_bad_columns():
    env = Environment()
    svc = _svc(env)
    svc.create_table("t")
    svc.seed_entity("t", make_entity("p", "x"))
    with pytest.raises(ValueError, match="not empty"):
        svc.seed_columns("t", "p", 3, "r")
    svc.seed_columns("t", "q", 3, "r")
    with pytest.raises(ValueError, match="not empty"):
        svc.seed_columns("t", "q", 3, "s")
    with pytest.raises(ValueError, match="count"):
        svc.seed_columns("t", "z", 0, "r")
    with pytest.raises(ValueError, match="f1"):
        svc.seed_columns("t", "z", 3, "r", f1=np.arange(4))
    with pytest.raises(ValueError, match="f1"):
        svc.seed_columns("t", "z", 2, "r", f1=np.array([object(), 1]))
    with pytest.raises(EntityNotFoundError):
        svc.seed_columns("ghost", "z", 3, "r")
    assert svc.entity_count("t", "z") == 0


def test_seeded_rows_keep_the_partition_contract():
    env = Environment()
    svc = _svc(env)
    svc.create_table("t")
    svc.seed_columns("t", "p", 4, "r", f1=np.arange(4))

    first, _ = _run(env, svc.query("t", "p", "r1"))
    again, _ = _run(env, svc.query("t", "p", "r1"))
    assert first is again
    # A scan match is that same object.
    hits, _ = _run(env, svc.query_by_property("t", "p", ("f1", "eq", 1)))
    assert hits[0] is first

    _, err = _run(env, svc.insert("t", make_entity("p", "r2")))
    assert isinstance(err, EntityAlreadyExistsError)
    assert svc.entity_count("t", "p") == 4

    # An update keeps the row's place; a delete removes it; a deleted
    # key can be inserted again, as the last row.
    _, err = _run(env, svc.update("t", make_entity("p", "r1", f1=7), if_match=first.etag))
    assert err is None
    _, err = _run(env, svc.update("t", make_entity("p", "r1"), if_match=first.etag))
    assert isinstance(err, PreconditionFailedError)
    _, err = _run(env, svc.delete("t", "p", "r0"))
    assert err is None
    assert svc.entity_count("t", "p") == 3
    _, err = _run(env, svc.query("t", "p", "r0"))
    assert isinstance(err, EntityNotFoundError)
    _, err = _run(env, svc.delete("t", "p", "r0"))
    assert isinstance(err, EntityNotFoundError)
    _, err = _run(env, svc.insert("t", make_entity("p", "r0", f1=9)))
    assert err is None
    hits, _ = _run(env, svc.query_by_property("t", "p", ("f2", "eq", 0)))
    assert [(e.row_key, e.properties["f1"]) for e in hits] == [
        ("r1", 7), ("r2", 2), ("r3", 3), ("r0", 9),
    ]
    assert svc.entity_count("t", "p") == 4


def _etag_script():
    """Insert, seed and update on a fresh service; returns the
    etags of the rows it stored, in scan order."""
    env = Environment()
    svc = _svc(env)
    svc.create_table("t")
    _run(env, svc.insert("t", make_entity("p", "a")))
    _run(env, svc.insert("t", make_entity("p", "b")))
    _run(env, svc.insert("t", make_entity("p", "c")))
    svc.seed_entity("t", make_entity("p", "d"))
    _run(env, svc.update("t", make_entity("p", "b", f1=1)))
    hits, _ = _run(env, svc.query_by_property("t", "p", ("f2", "eq", 0)))
    return [e.etag for e in hits]


def test_etags_repeat_across_identical_runs_in_one_process():
    first = _etag_script()
    assert first == _etag_script()
    assert first == [1, 5, 3, 4]
