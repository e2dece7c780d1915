"""Unit tests for queue-service semantics (visibility, receipts)."""

import pytest

from repro.simcore import Environment, RandomStreams
from repro.storage import QueueEmptyError, QueueService
from repro.storage.errors import MessageNotFoundError


def _svc(env, seed=0):
    svc = QueueService(env, RandomStreams(seed).stream("queue"))
    svc.create_queue("q")
    return svc


def _run(env, gen):
    box = {}

    def proc(env):
        try:
            box["result"] = yield from gen
        except Exception as exc:  # noqa: BLE001 - test harness
            box["error"] = exc

    env.process(proc(env))
    env.run()
    return box.get("result"), box.get("error")


def test_add_then_receive_fifo_order():
    env = Environment()
    svc = _svc(env)
    _run(env, svc.add("q", "first"))
    _run(env, svc.add("q", "second"))
    m1, _ = _run(env, svc.receive("q"))
    m2, _ = _run(env, svc.receive("q"))
    assert m1.payload == "first"
    assert m2.payload == "second"


def test_peek_does_not_consume():
    env = Environment()
    svc = _svc(env)
    _run(env, svc.add("q", "only"))
    p1, _ = _run(env, svc.peek("q"))
    p2, _ = _run(env, svc.peek("q"))
    assert p1.payload == p2.payload == "only"
    assert svc.queue_length("q") == 1
    assert p1.dequeue_count == 0


def test_receive_hides_message_for_visibility_timeout():
    env = Environment()
    svc = _svc(env)
    _run(env, svc.add("q", "m"))
    msg, _ = _run(env, svc.receive("q", visibility_timeout_s=100.0))
    assert msg.dequeue_count == 1
    # Immediately after, nothing is visible.
    _, err = _run(env, svc.receive("q"))
    assert isinstance(err, QueueEmptyError)


def test_message_reappears_after_visibility_timeout():
    env = Environment()
    svc = _svc(env)
    results = {}

    def scenario(env):
        yield from svc.add("q", "retry-me")
        msg = yield from svc.receive("q", visibility_timeout_s=10.0)
        results["first"] = msg.id
        # Simulate a crashed worker: never delete; wait out the timeout.
        yield env.timeout(11.0)
        again = yield from svc.receive("q", visibility_timeout_s=10.0)
        results["second"] = again.id
        results["dequeues"] = again.dequeue_count

    env.process(scenario(env))
    env.run()
    assert results["first"] == results["second"]
    assert results["dequeues"] == 2


def test_delete_with_valid_receipt_removes_message():
    env = Environment()
    svc = _svc(env)
    results = {}

    def scenario(env):
        yield from svc.add("q", "done")
        msg = yield from svc.receive("q")
        yield from svc.delete("q", msg, msg.pop_receipt)
        results["len"] = svc.queue_length("q")

    env.process(scenario(env))
    env.run()
    assert results["len"] == 0


def test_delete_with_stale_receipt_fails():
    """The Section 5.2 hazard: a slow worker's delete races a retry."""
    env = Environment()
    svc = _svc(env)
    results = {}

    def scenario(env):
        yield from svc.add("q", "contested")
        slow = yield from svc.receive("q", visibility_timeout_s=5.0)
        stale_receipt = slow.pop_receipt
        yield env.timeout(6.0)  # visibility expires
        fast = yield from svc.receive("q", visibility_timeout_s=60.0)
        assert fast.id == slow.id
        try:
            yield from svc.delete("q", slow, stale_receipt)
        except MessageNotFoundError:
            results["stale_rejected"] = True
        yield from svc.delete("q", fast, fast.pop_receipt)
        results["len"] = svc.queue_length("q")

    env.process(scenario(env))
    env.run()
    assert results == {"stale_rejected": True, "len": 0}


def test_receive_empty_queue_raises():
    env = Environment()
    svc = _svc(env)
    _, err = _run(env, svc.receive("q"))
    assert isinstance(err, QueueEmptyError)
    _, err = _run(env, svc.peek("q"))
    assert isinstance(err, QueueEmptyError)


def test_unknown_queue_raises():
    env = Environment()
    svc = _svc(env)
    _, err = _run(env, svc.add("ghost", "x"))
    assert isinstance(err, QueueEmptyError)


def test_visibility_timeout_validation():
    env = Environment()
    svc = _svc(env)
    with pytest.raises(ValueError):
        # The 2-hour maximum from Section 5.2.
        next(iter(()), None)  # placeholder to keep flake quiet
        _run_gen = svc.receive("q", visibility_timeout_s=7201.0)
        next(_run_gen)
    with pytest.raises(ValueError):
        next(svc.receive("q", visibility_timeout_s=0.0))


def test_queue_length_counts_only_undeleted():
    env = Environment()
    svc = _svc(env)

    def scenario(env):
        for i in range(5):
            yield from svc.add("q", i)
        msg = yield from svc.receive("q")
        yield from svc.delete("q", msg, msg.pop_receipt)

    env.process(scenario(env))
    env.run()
    assert svc.queue_length("q") == 4


def test_operation_cost_independent_of_queue_depth():
    """Section 3.3: no variation from 200k to 2M messages.

    The model must keep per-op cost O(log n); we verify add+receive
    latency does not grow measurably with a deep backlog.
    """
    env = Environment()
    svc = _svc(env)
    state = svc._queues["q"]
    # Pre-fill cheaply (bypassing the data plane's simulated latency).
    from repro.storage.queue import QueueMessage

    for i in range(50_000):
        state.push(QueueMessage(payload=i, size_kb=0.5, visible_at=0.0))
    t0 = env.now
    _run(env, svc.receive("q"))
    deep_latency = env.now - t0

    env2 = Environment()
    svc2 = _svc(env2)
    _run(env2, svc2.add("q", "solo"))
    t0 = env2.now
    _run(env2, svc2.receive("q"))
    shallow_latency = env2.now - t0
    assert deep_latency < shallow_latency * 3
