"""The table and queue services' interned op specs.

Insert, query and delete requests share one frozen :class:`OpSpec` per
(kind, entity size, latch key); update latches its own entity, so each
update builds a fresh spec.  A routed spec must be exactly the spec a
fresh build gives.
"""

import dataclasses

import pytest

from repro import calibration as cal
from repro.service.spec import OpSpec
from repro.simcore import Environment, RandomStreams
from repro.storage import EntityNotFoundError, TableService
from repro.storage.table import make_entity

SIZES_KB = (1.0, 4.0, 16.0, 64.0)
LATCH = {"insert": "index", "query": None, "delete": "index"}


def _fresh(kind, size_kb, latch_key):
    return OpSpec(
        name=f"table.{kind}",
        cpu_s=cal.TABLE_CPU_S[kind] + cal.TABLE_CPU_PER_KB_S * size_kb,
        exclusive_s=cal.TABLE_EXCLUSIVE_S[kind],
        latch_key=latch_key,
        payload_mb=size_kb / 1024.0,
    )


def _routed_specs(ops):
    """Run ``ops(svc)`` (a list of request generators) one after another
    and return the specs the partition server received, in order (a
    request that finds no entity still routes its spec)."""
    env = Environment()
    svc = TableService(env, RandomStreams(0).stream("table"))
    svc.create_table("t")
    server = svc.server_for("t", "p")
    seen = []
    execute = server.execute

    def recording(op, observer=None):
        seen.append(op)
        return execute(op, observer)

    server.execute = recording

    def driver(env):
        for request in ops(svc):
            try:
                yield from request
            except EntityNotFoundError:
                pass

    env.process(driver(env))
    env.run()
    return seen


def _every_kind(svc):
    for i, size in enumerate(SIZES_KB):
        yield svc.insert("t", make_entity("p", f"r{i}", size_kb=size))
    for i in range(len(SIZES_KB)):
        yield svc.query("t", "p", f"r{i}")
    for i, size in enumerate(SIZES_KB):
        yield svc.update("t", make_entity("p", f"r{i}", size_kb=size))
    for i in range(len(SIZES_KB)):
        yield svc.delete("t", "p", f"r{i}")


def test_routed_specs_equal_fresh_specs_field_for_field():
    seen = _routed_specs(lambda svc: list(_every_kind(svc)))
    expected = [
        _fresh(kind, size, LATCH[kind] if kind != "update" else
               ("entity", ("p", f"r{i}")))
        for kind in ("insert", "query", "update", "delete")
        for i, size in enumerate(SIZES_KB)
    ]
    assert [dataclasses.astuple(s) for s in seen] == [
        dataclasses.astuple(e) for e in expected
    ]


def test_shared_kinds_intern_one_spec_per_size():
    def twice(svc):
        return list(_every_kind(svc)) + [
            request for i, size in enumerate(SIZES_KB) for request in (
                svc.insert("t", make_entity("p", f"s{i}", size_kb=size)),
                svc.query("t", "p", f"s{i}"),
                svc.delete("t", "p", f"s{i}"),
            )
        ]

    seen = _routed_specs(twice)
    n = len(SIZES_KB)
    first = {
        kind: seen[k * n:(k + 1) * n]
        for k, kind in enumerate(("insert", "query", "update", "delete"))
    }
    again = seen[4 * n:]
    for i in range(n):
        insert, query, delete = again[3 * i:3 * i + 3]
        assert insert is first["insert"][i]
        assert query is first["query"][i]
        assert delete is first["delete"][i]
    for kind, specs in first.items():
        # Two sizes never share a spec.
        assert len({id(s) for s in specs}) == n
        assert [s.payload_mb for s in specs] == [
            size / 1024.0 for size in SIZES_KB
        ]


def test_update_keeps_its_entity_latch_and_a_fresh_spec():
    def updates(svc):
        entity = make_entity("p", "r", size_kb=4.0)
        return [
            svc.insert("t", entity),
            svc.update("t", make_entity("p", "r", size_kb=4.0)),
            svc.update("t", make_entity("p", "r", size_kb=4.0)),
        ]

    _, first, second = _routed_specs(updates)
    assert first.latch_key == ("entity", ("p", "r"))
    assert first == second and first is not second


@pytest.mark.parametrize("kind", ["query", "delete"])
def test_a_missing_entity_is_sized_at_half_a_kilobyte(kind):
    seen = _routed_specs(
        lambda svc: [getattr(svc, kind)("t", "p", "absent")]
    )
    assert seen == [_fresh(kind, 0.5, LATCH[kind])]


def test_the_spec_table_is_bounded():
    from repro.storage import table

    memo = table._interned_op
    assert memo.cache_info().maxsize == 1024
    specs = [memo("insert", float(k), "index") for k in range(1100)]
    assert memo.cache_info().currsize <= 1024
    assert [s.payload_mb for s in specs] == [k / 1024.0 for k in range(1100)]


def test_queue_specs_use_the_same_bounded_memo():
    from repro.storage import queue

    assert queue._op.cache_info().maxsize == 1024
    first = queue._op("add", 4.0)
    assert queue._op("add", 4.0) is first
    assert first == OpSpec(
        name="queue.add",
        cpu_s=cal.QUEUE_CPU_S["add"] + cal.QUEUE_CPU_PER_KB_S * 4.0,
        exclusive_s=cal.QUEUE_EXCLUSIVE_S["add"],
        latch_key="replica-commit",
        payload_mb=4.0 / 1024.0,
        frontend_scale=1.0,
    )
