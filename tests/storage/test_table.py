"""Unit tests for table-service semantics."""

import pytest

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
    hits, err = _run(
        env,
        svc.query_by_property("t", "p", lambda e: e.properties["f1"] % 2 == 0),
    )
    assert err is None
    assert len(hits) == 10


def test_property_scan_cost_grows_with_partition_size():
    env = Environment()
    svc = _svc(env)
    svc.create_table("t")
    for i in range(50):
        _run(env, svc.insert("t", make_entity("p", f"r{i}")))
    t0 = env.now
    _run(env, svc.query_by_property("t", "p", lambda e: False))
    small_cost = env.now - t0

    env2 = Environment()
    svc2 = _svc(env2)
    svc2.create_table("t")
    svc2.seed_entities("t", (make_entity("p", f"r{i}") for i in range(5000)))
    t0 = env2.now
    _run(env2, svc2.query_by_property("t", "p", lambda e: False))
    large_cost = env2.now - t0
    assert large_cost > small_cost * 5


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
