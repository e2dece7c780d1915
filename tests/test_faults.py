"""Tests for the fault-injection framework."""

import pytest

from repro.client import QueueClient, TableClient
from repro.resilience.backoff import NO_RETRY, RetryPolicy
from repro.faults import FaultInjector, FaultWindow
from repro.simcore import Environment, RandomStreams
from repro.storage import TableService
from repro.storage.errors import ConnectionFailureError, ServerBusyError
from repro.storage.table import make_entity


def _setup(seed=0):
    env = Environment()
    streams = RandomStreams(seed)
    svc = TableService(env, streams.stream("t"))
    svc.create_table("t")
    injector = FaultInjector(env, streams.stream("faults"))
    injector.attach(svc.server_for("t", "p"))
    return env, svc, injector


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


def _attempt(gen):
    """Run a client call inside a scenario: ``(result, error)``."""
    try:
        result = yield from gen
    except Exception as exc:  # noqa: BLE001 - test harness
        return None, exc
    return result, None


def test_window_validation():
    with pytest.raises(ValueError):
        FaultWindow(0.0, 10.0, "meteor_strike")
    with pytest.raises(ValueError):
        FaultWindow(0.0, 0.0, "blackout")
    with pytest.raises(ValueError):
        FaultWindow(0.0, 1.0, "server_busy_storm", magnitude=1.5)
    with pytest.raises(ValueError):
        FaultWindow(0.0, 1.0, "latency_spike", magnitude=0.0)


def test_window_coverage():
    w = FaultWindow(10.0, 5.0, "blackout")
    assert not w.covers(9.9)
    assert w.covers(10.0)
    assert w.covers(14.9)
    assert not w.covers(15.0)


def test_no_faults_outside_windows():
    env, svc, injector = _setup()
    injector.add_window(1000.0, 10.0, "blackout")
    client = TableClient(svc, retry=NO_RETRY)
    _, err = _run(env, client.insert("t", make_entity("p", "r")))
    assert err is None
    assert injector.stats.blackout_failures == 0


def test_blackout_fails_everything():
    env, svc, injector = _setup()
    injector.add_window(0.0, 1e9, "blackout")
    client = TableClient(svc, retry=NO_RETRY)
    _, err = _run(env, client.insert("t", make_entity("p", "r")))
    assert isinstance(err, ConnectionFailureError)
    assert injector.stats.blackout_failures >= 1


def test_storm_rejections_absorbed_by_retries():
    env, svc, injector = _setup()
    injector.add_window(0.0, 1e9, "server_busy_storm", magnitude=0.4)
    client = TableClient(svc, retry=RetryPolicy(max_retries=8))
    errors = 0
    for i in range(30):
        _, err = _run(env, client.insert("t", make_entity("p", f"r{i}")))
        if err is not None:
            errors += 1
    # A 40% storm with 8 retries: essentially every op lands.
    assert errors == 0
    assert injector.stats.rejections > 0
    assert svc.entity_count("t") == 30


def test_storm_without_retries_surfaces_server_busy():
    env, svc, injector = _setup(seed=2)
    injector.add_window(0.0, 1e9, "server_busy_storm", magnitude=0.9)
    client = TableClient(svc, retry=NO_RETRY)
    failures = 0
    for i in range(20):
        _, err = _run(env, client.insert("t", make_entity("p", f"r{i}")))
        if isinstance(err, ServerBusyError):
            failures += 1
    assert failures >= 12  # ~90% of ops rejected


def test_latency_spike_stretches_operations():
    env, svc, injector = _setup()
    client = TableClient(svc, retry=NO_RETRY)
    t0 = env.now
    _run(env, client.query("t", "p", "nope"))  # miss; latency still paid
    baseline = env.now - t0

    injector.add_window(env.now, 1e9, "latency_spike", magnitude=2.0)
    t0 = env.now
    _run(env, client.query("t", "p", "nope"))
    spiked = env.now - t0
    assert injector.stats.delays_applied == 1
    assert injector.stats.extra_delay_s > 0
    # The measured stretch is the injected delay (modulo base jitter).
    extra = spiked - baseline
    assert extra == pytest.approx(
        injector.stats.extra_delay_s, abs=0.1 + baseline
    )


def test_double_attach_rejected():
    env, svc, injector = _setup()
    other = FaultInjector(env, RandomStreams(1).stream("f2"))
    with pytest.raises(ValueError):
        other.attach(svc.server_for("t", "p"))


def test_queue_drill_end_to_end():
    """A 503 storm on the queue: consumers retry and drain everything."""
    env = Environment()
    streams = RandomStreams(5)
    from repro.storage import QueueService

    qsvc = QueueService(env, streams.stream("q"))
    qsvc.create_queue("q")
    injector = FaultInjector(env, streams.stream("faults"))
    injector.attach(qsvc.server_for("q"))
    injector.add_window(0.0, 30.0, "server_busy_storm", magnitude=0.5)
    client = QueueClient(qsvc, retry=RetryPolicy(max_retries=10))
    drained = []

    def scenario(env):
        for i in range(10):
            yield from client.add("q", i)
        for _ in range(10):
            msg = yield from client.receive("q")
            yield from client.delete("q", msg, msg.pop_receipt)
            drained.append(msg.payload)

    env.process(scenario(env))
    env.run()
    assert sorted(drained) == list(range(10))
    assert injector.stats.rejections > 0


def test_crash_restart_fails_with_connection_error():
    env, svc, injector = _setup()
    window = injector.add_window(0.0, 1e9, "crash_restart")
    client = TableClient(svc, retry=NO_RETRY)
    _, err = _run(env, client.insert("t", make_entity("p", "r")))
    assert isinstance(err, ConnectionFailureError)
    # Counted separately from blackouts, so drills can tell server loss
    # from network loss.
    assert injector.stats.crash_failures == 1
    assert injector.stats.blackout_failures == 0
    assert injector.stats_for(window).crash_failures == 1


def test_error_burst_is_probabilistic_and_retryable():
    env, svc, injector = _setup(seed=4)
    injector.add_window(0.0, 1e9, "error_burst", magnitude=0.5)
    client = TableClient(svc, retry=RetryPolicy(max_retries=8))
    for i in range(20):
        _, err = _run(env, client.insert("t", make_entity("p", f"r{i}")))
        assert err is None  # retries absorb the burst
    assert injector.stats.error_failures > 0
    assert svc.entity_count("t") == 20


def test_error_burst_magnitude_is_validated():
    with pytest.raises(ValueError):
        FaultWindow(0.0, 1.0, "error_burst", magnitude=1.5)


def test_per_window_stats_attribution():
    """Non-overlapping windows: each decision lands on its own window."""
    env, svc, injector = _setup()
    crash = injector.add_window(0.0, 10.0, "crash_restart")
    blackout = injector.add_window(20.0, 10.0, "blackout")
    client = TableClient(svc, retry=NO_RETRY)

    def scenario(env):
        _, err1 = yield from _attempt(client.insert("t", make_entity("p", "a")))
        yield env.timeout(25.0 - env.now)
        _, err2 = yield from _attempt(client.insert("t", make_entity("p", "b")))
        return err1, err2

    env.process(scenario(env))
    env.run()
    assert injector.stats_for(crash).crash_failures == 1
    assert injector.stats_for(crash).blackout_failures == 0
    assert injector.stats_for(blackout).blackout_failures == 1
    assert injector.stats.crash_failures == 1
    assert injector.stats.blackout_failures == 1


def test_overlapping_windows_single_decision_in_schedule_order():
    """The earlier-starting window decides; the later one is not consulted,
    regardless of insertion order."""
    env, svc, injector = _setup()
    # Inserted out of order: the blackout starts later but is added first.
    blackout = injector.add_window(5.0, 100.0, "blackout")
    crash = injector.add_window(0.0, 100.0, "crash_restart")
    # The injector keeps its windows in decision order as they are added.
    assert [w.kind for w in injector.windows] == ["crash_restart", "blackout"]
    assert injector.window_stats[0] is injector.stats_for(crash)
    client = TableClient(svc, retry=NO_RETRY)

    def scenario(env):
        yield env.timeout(10.0)  # both windows active
        yield from _attempt(client.insert("t", make_entity("p", "r")))

    env.process(scenario(env))
    env.run()
    assert injector.stats_for(crash).crash_failures == 1
    assert injector.stats_for(blackout).blackout_failures == 0


def test_overlapping_spike_then_storm_applies_only_the_delay():
    """A firing latency_spike ends the pass: the 100% storm behind it in
    the schedule never fires, and the op succeeds (slowly)."""
    env, svc, injector = _setup()
    injector.add_window(0.0, 1e9, "latency_spike", magnitude=0.5)
    injector.add_window(10.0, 1e9, "server_busy_storm", magnitude=1.0)
    client = TableClient(svc, retry=NO_RETRY)

    def scenario(env):
        yield env.timeout(20.0)  # both windows active
        result = yield from client.insert("t", make_entity("p", "r"))
        return result

    env.process(scenario(env))
    env.run()
    assert injector.stats.delays_applied == 1
    assert injector.stats.rejections == 0
    assert svc.entity_count("t") == 1


def test_aggregate_stats_sum_window_stats():
    env, svc, injector = _setup(seed=9)
    first = injector.add_window(0.0, 1e9, "server_busy_storm", magnitude=1.0)
    second = injector.add_window(0.0, 1e9, "server_busy_storm", magnitude=1.0)
    client = TableClient(svc, retry=NO_RETRY)
    for i in range(5):
        _run(env, client.insert("t", make_entity("p", f"r{i}")))
    # All five rejections charged to the first window of the schedule.
    assert injector.stats_for(first).rejections == 5
    assert injector.stats_for(second).rejections == 0
    assert injector.stats.rejections == 5


# -- direct intercept-semantics tests (no client in the loop) ---------------

def _pass(injector, server):
    """Drive one admission pass of ``intercept`` directly; returns the
    raised fault error, or None for a clean (decision-free) pass."""
    gen = injector.intercept(server, None)
    try:
        next(gen)
    except StopIteration:
        return None
    except Exception as exc:  # noqa: BLE001 - test harness
        return exc
    raise AssertionError("intercept yielded a delay unexpectedly")


def test_intercept_direct_pass_charges_exactly_one_window():
    """Two identical overlapping blackouts: every pass raises once and
    charges exactly one window — always the first in schedule order."""
    env, svc, injector = _setup()
    server = svc.server_for("t", "p")
    first = injector.add_window(0.0, 100.0, "blackout")
    second = injector.add_window(0.0, 100.0, "blackout")
    for expected in (1, 2, 3):
        err = _pass(injector, server)
        assert isinstance(err, ConnectionFailureError)
        assert injector.stats_for(first).blackout_failures == expected
        assert injector.stats_for(second).blackout_failures == 0
        # The aggregate equals the pass count: one decision per pass.
        assert injector.stats.blackout_failures == expected


def test_intercept_same_start_resolves_by_insertion_order():
    """Equal start times fall back to insertion order, so the schedule
    is a total order and replays are deterministic."""
    env, svc, injector = _setup()
    server = svc.server_for("t", "p")
    crash = injector.add_window(0.0, 50.0, "crash_restart")
    blackout = injector.add_window(0.0, 50.0, "blackout")
    err = _pass(injector, server)
    assert isinstance(err, ConnectionFailureError)
    assert injector.stats_for(crash).crash_failures == 1
    assert injector.stats_for(blackout).blackout_failures == 0


def test_intercept_crash_and_blackout_attributed_separately():
    """crash_restart and blackout both surface as connection failures
    but are charged to distinct counters on distinct windows."""
    env, svc, injector = _setup()
    server = svc.server_for("t", "p")
    crash = injector.add_window(0.0, 10.0, "crash_restart")
    blackout = injector.add_window(20.0, 10.0, "blackout")
    assert isinstance(_pass(injector, server), ConnectionFailureError)
    env.run(until=25.0)  # queue is empty: the clock jumps to 25 s
    assert isinstance(_pass(injector, server), ConnectionFailureError)
    env.run(until=50.0)  # both windows have expired
    assert _pass(injector, server) is None
    assert injector.stats_for(crash).crash_failures == 1
    assert injector.stats_for(crash).blackout_failures == 0
    assert injector.stats_for(blackout).blackout_failures == 1
    assert injector.stats_for(blackout).crash_failures == 0
