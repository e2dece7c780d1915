"""Unit tests for process semantics: waiting, returning, interrupting."""

import pytest

from repro.simcore import Environment, Interrupt


def test_process_return_value_propagates_to_waiter():
    env = Environment()
    out = []

    def child(env):
        yield env.timeout(2.0)
        return 17

    def parent(env):
        out.append((yield env.process(child(env))))

    env.process(parent(env))
    env.run()
    assert out == [17]


def test_process_exception_propagates_to_waiter():
    env = Environment()
    caught = []

    def child(env):
        yield env.timeout(1.0)
        raise KeyError("gone")

    def parent(env):
        try:
            yield env.process(child(env))
        except KeyError as exc:
            caught.append(exc.args[0])

    env.process(parent(env))
    env.run()
    assert caught == ["gone"]


def test_unhandled_process_exception_crashes_run():
    env = Environment()

    def child(env):
        yield env.timeout(1.0)
        raise RuntimeError("unwatched")

    env.process(child(env))
    with pytest.raises(RuntimeError, match="unwatched"):
        env.run()


def test_interrupt_wakes_sleeping_process():
    env = Environment()
    log = []

    def sleeper(env):
        try:
            yield env.timeout(100.0)
            log.append("overslept")
        except Interrupt as i:
            log.append(("interrupted", env.now, i.cause))
            yield env.timeout(1.0)
            log.append(("resumed", env.now))

    def interrupter(env, victim):
        yield env.timeout(3.0)
        victim.interrupt(cause="wakeup")

    victim = env.process(sleeper(env))
    env.process(interrupter(env, victim))
    env.run()
    assert log == [("interrupted", 3.0, "wakeup"), ("resumed", 4.0)]


def test_interrupt_finished_process_raises():
    env = Environment()

    def quick(env):
        yield env.timeout(1.0)

    p = env.process(quick(env))
    env.run()
    with pytest.raises(RuntimeError):
        p.interrupt()


def test_self_interrupt_rejected():
    env = Environment()
    errors = []

    def proc(env):
        me = env.active_process
        try:
            me.interrupt()
        except RuntimeError:
            errors.append("rejected")
        yield env.timeout(0.0)

    env.process(proc(env))
    env.run()
    assert errors == ["rejected"]


def test_original_event_does_not_double_resume_after_interrupt():
    env = Environment()
    log = []

    def sleeper(env):
        try:
            yield env.timeout(5.0)
            log.append("timeout-fired")
        except Interrupt:
            log.append("interrupted")
        # Sleep past the original timeout to catch a double resume.
        yield env.timeout(10.0)
        log.append("done")

    def interrupter(env, victim):
        yield env.timeout(1.0)
        victim.interrupt()

    victim = env.process(sleeper(env))
    env.process(interrupter(env, victim))
    env.run()
    assert log == ["interrupted", "done"]


def test_yield_non_event_fails_process():
    env = Environment()

    def bad(env):
        yield 42

    env.process(bad(env))
    with pytest.raises(RuntimeError, match="non-event"):
        env.run()


def test_yield_foreign_event_fails_process():
    env1, env2 = Environment(), Environment()

    def bad(env):
        yield env2.timeout(1.0)

    env1.process(bad(env1))
    with pytest.raises(RuntimeError, match="another environment"):
        env1.run()


def test_process_requires_generator():
    env = Environment()
    with pytest.raises(TypeError):
        env.process(lambda: None)  # type: ignore[arg-type]


def test_is_alive_transitions():
    env = Environment()

    def proc(env):
        yield env.timeout(2.0)

    p = env.process(proc(env))
    assert p.is_alive
    env.run()
    assert not p.is_alive


def test_waiting_on_already_processed_event_resumes_same_timestep():
    env = Environment()
    log = []

    def proc(env):
        ev = env.timeout(0.0, "v")
        yield env.timeout(1.0)
        # ev processed long ago; yielding it must resume immediately.
        got = yield ev
        log.append((env.now, got))

    env.process(proc(env))
    env.run()
    assert log == [(1.0, "v")]


def test_two_processes_interleave_deterministically():
    env = Environment()
    log = []

    def proc(env, tag, period):
        while env.now < 4:
            yield env.timeout(period)
            log.append((tag, env.now))

    env.process(proc(env, "a", 1.0))
    env.process(proc(env, "b", 2.0))
    env.run(until=5.0)
    # Simultaneous events fire in schedule order: b's t=2 timeout was
    # scheduled at t=0, before a rescheduled at t=1, so b logs first at 2.0.
    assert log == [
        ("a", 1.0), ("b", 2.0), ("a", 2.0), ("a", 3.0),
        ("b", 4.0), ("a", 4.0),
    ]


def test_finished_processes_are_not_cyclic_garbage():
    """A finished process is freed by reference counting: with the cyclic
    collector off, running many short processes to completion leaves
    no ``Process`` for ``gc.collect()`` to find."""
    import gc

    from repro.simcore.process import Process

    def child(env):
        yield env.timeout(1.0)
        return 1

    def parent(env):
        yield env.timeout(0.5)
        value = yield env.process(child(env))
        return value

    def bad_yield(env):
        yield env.timeout(0.5)
        yield "not an event"

    gc.collect()
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        env = Environment()
        for _ in range(200):
            env.process(parent(env))
        for _ in range(20):
            env.process(bad_yield(env)).defuse()
        env.run()
        gc.set_debug(gc.DEBUG_SAVEALL)
        gc.collect()
        leaked = [obj for obj in gc.garbage if isinstance(obj, Process)]
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        if was_enabled:
            gc.enable()
    assert leaked == []
