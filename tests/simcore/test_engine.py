"""Unit tests for the discrete-event engine."""

import pytest

from repro.simcore import Environment


def test_clock_starts_at_initial_time():
    assert Environment().now == 0.0
    assert Environment(initial_time=42.5).now == 42.5


def test_timeout_advances_clock():
    env = Environment()
    done = []

    def proc(env):
        yield env.timeout(3.0)
        done.append(env.now)

    env.process(proc(env))
    env.run()
    assert done == [3.0]
    assert env.now == 3.0


def test_run_until_time_stops_clock_exactly():
    env = Environment()

    def ticker(env):
        while True:
            yield env.timeout(1.0)

    env.process(ticker(env))
    env.run(until=5.5)
    assert env.now == 5.5


def test_run_until_time_with_no_events_advances_clock():
    env = Environment()
    env.run(until=10.0)
    assert env.now == 10.0


def test_run_until_past_time_raises():
    env = Environment(initial_time=5.0)
    with pytest.raises(ValueError):
        env.run(until=1.0)


def test_run_until_event_returns_value():
    env = Environment()

    def proc(env):
        yield env.timeout(2.0)
        return "payload"

    p = env.process(proc(env))
    assert env.run(until=p) == "payload"
    assert env.now == 2.0


def test_run_until_event_never_fires_raises():
    env = Environment()
    orphan = env.event()

    def proc(env):
        yield env.timeout(1.0)

    env.process(proc(env))
    with pytest.raises(RuntimeError, match="never triggered"):
        env.run(until=orphan)


def test_simultaneous_events_fire_in_schedule_order():
    env = Environment()
    order = []

    def proc(env, tag):
        yield env.timeout(1.0)
        order.append(tag)

    for tag in ("a", "b", "c"):
        env.process(proc(env, tag))
    env.run()
    assert order == ["a", "b", "c"]


def test_step_with_empty_queue_raises():
    env = Environment()
    with pytest.raises(RuntimeError):
        env.step()


def test_peek_reports_next_event_time():
    env = Environment()
    assert env.peek() == float("inf")
    env.timeout(7.0)
    assert env.peek() == 7.0


def test_negative_timeout_rejected():
    env = Environment()
    with pytest.raises(ValueError):
        env.timeout(-1.0)


def test_schedule_at_absolute_time():
    env = Environment()
    ev = env.event()
    ev._ok = True
    ev._value = "x"
    env.schedule_at(9.0, ev)
    env.run()
    assert env.now == 9.0
    assert ev.processed


def test_schedule_at_past_raises():
    env = Environment(initial_time=5.0)
    with pytest.raises(ValueError):
        env.schedule_at(4.0, env.event())


def test_unhandled_event_failure_propagates():
    env = Environment()
    ev = env.event()
    ev.fail(ValueError("boom"))
    with pytest.raises(ValueError, match="boom"):
        env.run()


def test_defused_failure_does_not_propagate():
    env = Environment()
    ev = env.event()
    ev.fail(ValueError("boom"))
    ev.defuse()
    env.run()  # does not raise
