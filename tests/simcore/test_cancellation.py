"""Lazy timeout cancellation and the Race fast path.

The kernel discards cancelled events at pop time instead of eagerly
re-heapifying, but still advances the clock to the cancelled entry's
time -- the clock trajectory is identical to processing a no-op, which
keeps serial results bit-identical to the pre-fast-path kernel.
"""

import pytest

from repro.simcore import Environment, Race


def test_cancelled_timeout_never_fires():
    env = Environment()
    fired = []
    timer = env.timeout(5.0)
    timer.add_callback(lambda ev: fired.append(ev))
    timer.cancel()
    env.run()
    assert fired == []
    assert timer.cancelled
    # A Timeout is triggered (scheduled) at construction; cancellation
    # guarantees it is never *processed*.
    assert not timer.processed


def test_cancelled_timeout_still_advances_clock():
    env = Environment()
    timer = env.timeout(5.0)
    timer.cancel()
    env.run()
    assert env.now == 5.0


def test_cancel_after_processed_raises():
    env = Environment()
    timer = env.timeout(1.0)
    env.run()
    with pytest.raises(RuntimeError):
        timer.cancel()


def test_add_callback_on_cancelled_event_is_dropped():
    env = Environment()
    timer = env.timeout(1.0)
    timer.cancel()
    timer.add_callback(lambda ev: pytest.fail("must never run"))
    env.run()


def test_process_yielding_cancelled_event_fails():
    env = Environment()
    timer = env.timeout(3.0)
    timer.cancel()

    def proc(env):
        yield timer

    p = env.process(proc(env))
    with pytest.raises(RuntimeError, match="cancelled event"):
        env.run()
    assert not p.ok


def test_peek_skips_cancelled_head():
    env = Environment()
    first = env.timeout(1.0)
    env.timeout(2.0)
    first.cancel()
    assert env.peek() == 2.0


def test_peek_leaves_the_heap_and_the_run_end_alone():
    env = Environment()
    env.timeout(5.0).cancel()
    assert env.peek() == float("inf")
    assert len(env._queue) == 1
    env.run()
    # The same end as a run without the peek.
    assert env.now == 5.0


def test_step_skips_cancelled_entries():
    env = Environment()
    first = env.timeout(1.0)
    second = env.timeout(2.0)
    first.cancel()
    env.step()
    assert second.triggered
    assert env.now == 2.0


def test_remove_callback_detaches_single_and_promoted():
    env = Environment()
    timer = env.timeout(1.0)
    hits = []

    def cb_a(ev):
        hits.append("a")

    def cb_b(ev):
        hits.append("b")

    timer.add_callback(cb_a)
    timer.add_callback(cb_b)
    timer.remove_callback(cb_a)
    timer.remove_callback(lambda ev: None)  # absent: silently ignored
    env.run()
    assert hits == ["b"]


def test_race_contender_wins_cancels_deadline():
    env = Environment()

    def op(env):
        yield env.timeout(1.0)
        return "fast"

    def waiter(env):
        proc = env.process(op(env))
        race = Race(env, proc, 10.0)
        deadline = race.deadline
        yield race
        assert proc.processed and proc.ok
        # A settled race holds nothing, and its cancelled deadline no
        # longer refers back to it while the dead slot waits its turn.
        assert race.contender is None and race.deadline is None
        assert deadline.cancelled and deadline._cb1 is None
        return proc.value

    p = env.process(waiter(env))
    env.run()
    assert p.value == "fast"
    # The dead 10s deadline must not hold the clock hostage ...
    # but it does advance the clock when popped (trajectory parity).
    assert env.now == 10.0


def test_race_deadline_wins_yields_none():
    env = Environment()

    def op(env):
        yield env.timeout(30.0)
        return "slow"

    def waiter(env):
        proc = env.process(op(env))
        race = Race(env, proc, 2.0)
        result = yield race
        assert result is None
        assert race.contender is None and race.deadline is None
        assert not proc.processed
        proc.defuse()
        return "timed-out"

    p = env.process(waiter(env))
    env.run()
    assert p.value == "timed-out"


def test_env_race_factory():
    env = Environment()

    def op(env):
        yield env.timeout(1.0)
        return 42

    def waiter(env):
        proc = env.process(op(env))
        yield env.race(proc, 5.0)
        return proc.value

    p = env.process(waiter(env))
    env.run()
    assert p.value == 42


def test_run_ends_on_the_last_cancelled_race_deadline():
    # Pinned on purpose: exact-mode phase ends move when the clock stops
    # at the last live event instead (a deliberate re-golden).
    env = Environment()

    def work(env):
        yield env.timeout(1.0)
        return "done"

    def client(env):
        proc = env.process(work(env))
        result = yield Race(env, proc, 30.0)
        assert result == "done" and env.now == 1.0

    env.process(client(env))
    env.run()
    # The contender won at t=1; the cancelled deadline is the heap's
    # last entry and the clock still lands on its time.
    assert env.now == 30.0
    assert env.peek() == float("inf")


def test_step_advances_the_clock_through_a_cancelled_entry():
    env = Environment()
    dead = env.timeout(2.0)
    live = env.timeout(3.0)
    dead.cancel()
    env.step()
    assert live.processed and env.now == 3.0


def test_now_is_a_plain_attribute():
    env = Environment(initial_time=4.0)
    assert "now" in vars(env) and env.now == 4.0
    assert not hasattr(type(env), "now")
    env.timeout(1.5)
    env.run()
    assert vars(env)["now"] == 5.5
