"""Schedule-order properties of the event heap.

Randomized schedules are replayed through :class:`Environment` and
checked against reference orders computed outside the kernel: firing
order is ``(time, schedule order)``, cancelled entries are discarded
lazily (the clock still advances to them), and ``peek``/``step``/``run``
agree on that order.  Some test names still say "identically",
"both", "sharded" or "bucket": they are kept so that test ids stay
stable, and each test checks the one heap scheduler against its
reference.
"""

import pytest

from repro.simcore import Environment, RandomStreams


def _run_trace(env, delays):
    """Schedule ``delays`` as timeouts, run, record (time, tag) firings."""
    trace = []

    def waiter(env, delay, tag):
        yield env.timeout(delay)
        trace.append((env.now, tag))

    for tag, delay in enumerate(delays):
        env.process(waiter(env, delay, tag))
    env.run()
    return trace, env.now


@pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
def test_random_schedules_fire_identically(seed):
    """Property: any random mix of delays (ties and zero included)
    fires in ``(delay, schedule order)`` order at exactly the scheduled
    times, and the clock ends on the largest delay."""
    rng = RandomStreams(seed).stream("delays")
    delays = [float(d) for d in rng.uniform(0.0, 37.0, size=200)]
    delays += [1.0, 1.0, 1.0, 0.0, 36.999]  # forced ties and edges
    trace, now = _run_trace(Environment(), delays)
    expected = sorted((d, tag) for tag, d in enumerate(delays))
    assert trace == expected
    assert now == max(delays)


@pytest.mark.parametrize("seed", [10, 11, 12])
def test_random_cancellations_discard_identically(seed):
    """Property: cancelling a random subset leaves the survivors firing
    in ``(delay, schedule order)`` order — and the clock still advances
    past the cancelled entries' times (lazy discard)."""
    streams = RandomStreams(seed)
    delays = [
        float(d) for d in streams.stream("delays").uniform(0.0, 20.0, size=100)
    ]
    doomed_mask = [
        bool(x)
        for x in streams.stream("cancel").uniform(0.0, 1.0, size=100) < 0.4
    ]
    env = Environment()
    events = [env.timeout(d) for d in delays]
    for event, kill in zip(events, doomed_mask):
        if kill:
            event.cancel()
    fired = []
    for idx, event in enumerate(events):
        if not doomed_mask[idx]:
            event.add_callback(lambda e, idx=idx: fired.append((env.now, idx)))
    env.run()
    assert any(doomed_mask) and not all(doomed_mask)
    assert fired == sorted(
        (d, idx) for idx, d in enumerate(delays) if not doomed_mask[idx]
    )
    assert env.now == max(delays)
    assert all(not e.processed for e, kill in zip(events, doomed_mask) if kill)


def test_cancel_discard_still_advances_clock_sharded():
    env = Environment()
    keep = env.timeout(1.0)
    late = env.timeout(9.0)
    late.cancel()
    env.run()
    # The cancelled 9.0 entry is discarded lazily but the clock
    # advances to it on drain.
    assert env.now == 9.0
    assert keep.processed
    assert not late.processed


def test_peek_skips_cancelled_heads_identically():
    env = Environment()
    first = env.timeout(1.0)
    second = env.timeout(2.0)
    env.timeout(3.0)
    first.cancel()
    second.cancel()
    assert env.peek() == 3.0
    assert env.now == 0.0  # peeking never moves the clock


def test_step_identical_including_empty_error():
    env = Environment()
    env.timeout(2.0)
    env.step()
    assert env.now == 2.0
    with pytest.raises(RuntimeError):
        env.step()


def test_run_until_time_stops_clock_identically():
    env = Environment()
    ticks = []

    def ticker(env):
        while True:
            yield env.timeout(1.0)
            ticks.append(env.now)

    env.process(ticker(env))
    env.run(until=10.5)
    assert env.now == 10.5
    assert ticks == [float(i) for i in range(1, 11)]


def test_run_until_event_with_horizon_identical():
    env = Environment()

    def slow(env):
        yield env.timeout(100.0)
        return "late"

    proc = env.process(slow(env))
    assert env.run(until=proc, horizon=5.0) is None
    assert env.now == 5.0
    assert not proc.processed
    # The detached stop callback does not end the next run early.
    env.run()
    assert proc.processed and proc.value == "late"
    assert env.now == 100.0


def test_process_chains_identical_under_both():
    """A multi-stage process graph (spawn, wait, re-spawn) follows the
    schedule its delays imply."""
    env = Environment()
    log = []

    def child(env, n):
        yield env.timeout(0.5 * n)
        log.append(("child", n, env.now))
        return n * 2

    def parent(env):
        for n in range(5):
            got = yield env.process(child(env, n))
            log.append(("parent", got, env.now))

    env.process(parent(env))
    env.run()
    expected = []
    now = 0.0
    for n in range(5):
        now += 0.5 * n
        expected += [("child", n, now), ("parent", 2 * n, now)]
    assert log == expected
    assert env.now == 5.0


def test_inf_delay_parks_in_inf_bucket():
    """An unreachable timeout parks at +inf: a bounded run ignores it
    while still running the finite work, lands on its bound, and leaves
    the parked entry pending."""
    env = Environment()
    fired = []
    env.timeout(2.0).add_callback(lambda e: fired.append(env.now))
    parked = env.timeout(float("inf"))
    env.run(until=10.0)
    assert fired == [2.0]
    assert env.now == 10.0
    assert not parked.processed
    assert env.peek() == float("inf")
