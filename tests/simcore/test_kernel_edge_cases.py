"""Kernel robustness: interrupts interacting with resources/conditions."""

from repro.simcore import (
    AllOf,
    AnyOf,
    Environment,
    Interrupt,
    Resource,
    Store,
)


def test_interrupt_while_waiting_on_resource_releases_cleanly():
    env = Environment()
    res = Resource(env, capacity=1)
    log = []

    def holder(env):
        with res.request() as req:
            yield req
            yield env.timeout(10.0)
        log.append(("holder-out", env.now))

    def waiter(env):
        try:
            with res.request() as req:
                yield req
                log.append("waiter-acquired")
        except Interrupt:
            log.append(("waiter-interrupted", env.now))
        # The context manager cancelled the queued request on exit...
        yield env.timeout(0.0)

    def interrupter(env, victim):
        yield env.timeout(2.0)
        victim.interrupt()

    env.process(holder(env))
    victim = env.process(waiter(env))
    env.process(interrupter(env, victim))
    env.run()
    assert ("waiter-interrupted", 2.0) in log
    # ...so the resource's queue is clean and nothing leaked.
    assert res.count == 0
    assert res.queue == []


def test_interrupt_while_holding_resource_still_releases_via_context():
    env = Environment()
    res = Resource(env, capacity=1)
    order = []

    def victim(env):
        try:
            with res.request() as req:
                yield req
                order.append("victim-in")
                yield env.timeout(100.0)
        except Interrupt:
            order.append("victim-interrupted")

    def successor(env):
        yield env.timeout(1.0)
        with res.request() as req:
            yield req
            order.append(("successor-in", env.now))

    v = env.process(victim(env))

    def interrupter(env):
        yield env.timeout(5.0)
        v.interrupt()

    env.process(successor(env))
    env.process(interrupter(env))
    env.run()
    assert order == ["victim-in", "victim-interrupted", ("successor-in", 5.0)]
    assert res.count == 0


def test_condition_of_conditions():
    env = Environment()
    results = []

    def proc(env):
        inner_a = AllOf(env, [env.timeout(1.0, "a1"), env.timeout(2.0, "a2")])
        inner_b = AnyOf(env, [env.timeout(5.0, "b1"), env.timeout(9.0, "b2")])
        got = yield AllOf(env, [inner_a, inner_b])
        results.append((env.now, len(got)))

    env.process(proc(env))
    env.run()
    assert results == [(5.0, 2)]


def test_store_get_cancellation_on_interrupt():
    env = Environment()
    store = Store(env)
    log = []

    def consumer(env):
        get = store.get()
        try:
            item = yield get
            log.append(("got", item))
        except Interrupt:
            get.cancel()
            log.append("cancelled")

    def interrupter(env, victim):
        yield env.timeout(1.0)
        victim.interrupt()

    victim = env.process(consumer(env))
    env.process(interrupter(env, victim))
    env.run()
    assert log == ["cancelled"]
    assert store._getters == []

    # A later put is NOT consumed by the cancelled getter.
    def producer(env):
        yield store.put("orphan")

    env.process(producer(env))
    env.run()
    assert list(store.items) == ["orphan"]


def test_failed_process_as_condition_child_defused():
    env = Environment()
    caught = []

    def failer(env):
        yield env.timeout(1.0)
        raise RuntimeError("inner failure")

    def waiter(env):
        p = env.process(failer(env))
        try:
            yield AnyOf(env, [p, env.timeout(10.0)])
        except RuntimeError as exc:
            caught.append(str(exc))

    env.process(waiter(env))
    env.run()  # must not crash with an unhandled failure
    assert caught == ["inner failure"]


def test_process_waiting_on_failed_already_processed_event():
    env = Environment()
    caught = []

    def failer(env):
        yield env.timeout(1.0)
        raise KeyError("early")

    p = env.process(failer(env))
    p.defuse()  # nobody watches yet; don't crash the run
    env.run()
    assert p.processed and not p.ok

    def late_waiter(env):
        try:
            yield p
        except KeyError as exc:
            caught.append(exc.args[0])

    env.process(late_waiter(env))
    env.run()
    assert caught == ["early"]


def test_multiple_interrupts_queue_up():
    env = Environment()
    hits = []

    def victim(env):
        for _ in range(2):
            try:
                yield env.timeout(100.0)
            except Interrupt as i:
                hits.append((env.now, i.cause))
        yield env.timeout(1.0)

    v = env.process(victim(env))

    def interrupter(env, cause, at):
        yield env.timeout(at)
        if v.is_alive:
            v.interrupt(cause=cause)

    env.process(interrupter(env, "one", 1.0))
    env.process(interrupter(env, "two", 2.0))
    env.run()
    assert hits == [(1.0, "one"), (2.0, "two")]
