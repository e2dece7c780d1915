"""Unit tests for Resource and Store."""

import pytest

from repro.simcore import Environment, Resource, Store


def test_resource_serializes_holders():
    env = Environment()
    res = Resource(env, capacity=1)
    log = []

    def user(env, tag):
        with res.request() as req:
            yield req
            log.append((tag, "in", env.now))
            yield env.timeout(2.0)
        log.append((tag, "out", env.now))

    env.process(user(env, "a"))
    env.process(user(env, "b"))
    env.run()
    assert log == [
        ("a", "in", 0.0), ("a", "out", 2.0),
        ("b", "in", 2.0), ("b", "out", 4.0),
    ]


def test_resource_capacity_allows_parallelism():
    env = Environment()
    res = Resource(env, capacity=2)
    done = []

    def user(env, tag):
        with res.request() as req:
            yield req
            yield env.timeout(1.0)
        done.append((tag, env.now))

    for tag in "abc":
        env.process(user(env, tag))
    env.run()
    assert done == [("a", 1.0), ("b", 1.0), ("c", 2.0)]


def test_resource_fifo_order():
    env = Environment()
    res = Resource(env, capacity=1)
    order = []

    def user(env, tag, arrive):
        yield env.timeout(arrive)
        with res.request() as req:
            yield req
            order.append(tag)
            yield env.timeout(1.0)

    env.process(user(env, "first", 0.0))
    env.process(user(env, "second", 0.1))
    env.process(user(env, "third", 0.2))
    env.run()
    assert order == ["first", "second", "third"]


def test_release_without_hold_raises():
    env = Environment()
    res = Resource(env, capacity=1)
    req = res.request()
    env.run()
    res.release(req)
    with pytest.raises(RuntimeError):
        res.release(req)


def test_cancel_removes_queued_request():
    env = Environment()
    res = Resource(env, capacity=1)
    hold = res.request()
    queued = res.request()
    env.run()
    assert not queued.triggered
    queued.cancel()
    res.release(hold)
    env.run()
    assert not queued.triggered
    assert res.count == 0


def test_resource_capacity_validation():
    env = Environment()
    with pytest.raises(ValueError):
        Resource(env, capacity=0)


def test_store_fifo_put_get():
    env = Environment()
    store = Store(env)
    got = []

    def producer(env):
        for i in range(3):
            yield store.put(i)
            yield env.timeout(1.0)

    def consumer(env):
        for _ in range(3):
            item = yield store.get()
            got.append((item, env.now))

    env.process(producer(env))
    env.process(consumer(env))
    env.run()
    assert [g[0] for g in got] == [0, 1, 2]


def test_store_get_blocks_until_item():
    env = Environment()
    store = Store(env)
    got = []

    def consumer(env):
        item = yield store.get()
        got.append((item, env.now))

    def producer(env):
        yield env.timeout(5.0)
        yield store.put("late")

    env.process(consumer(env))
    env.process(producer(env))
    env.run()
    assert got == [("late", 5.0)]


def test_store_put_resumes_before_the_getter_it_wakes():
    env = Environment()
    store = Store(env)
    log = []

    def consumer(env, tag):
        item = yield store.get()
        log.append((tag, item, env.now))

    def producer(env):
        yield env.timeout(1.0)
        for item in ("x", "y", "z"):
            yield store.put(item)
            log.append(("put", item, env.now))

    env.process(consumer(env, "a"))
    env.process(consumer(env, "b"))
    env.process(producer(env))
    env.run()
    # Waiting getters are served FIFO; each put's own event fires first.
    assert log == [
        ("put", "x", 1.0), ("a", "x", 1.0),
        ("put", "y", 1.0), ("b", "y", 1.0),
        ("put", "z", 1.0),
    ]
    assert list(store.items) == ["z"]
