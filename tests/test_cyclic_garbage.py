"""Client calls, flows and campaign cells are freed by reference
counting.

Each test runs its workload with the cyclic collector off, then
collects once with ``DEBUG_SAVEALL`` and looks at what only the
collector could free.  Objects in a reference cycle outlive their use
until a collection finds them, and every collection traces all the
objects it tracks; a failed attempt's traceback also reaches its
callers' frames, so a cycle there keeps their locals alive too.
"""

import gc
import types
from dataclasses import replace

from repro.client import TableClient
from repro.faults import FaultInjector
from repro.network import FlowNetwork, Link
from repro.network.flows import Flow
from repro.resilience import HedgePolicy, hedged_call
from repro.resilience.backoff import LinearBackoff, RetryPolicy
from repro.resilience.campaign import day_campaign_spec, run_campaign
from repro.simcore import Environment, Event, Race, RandomStreams, Timeout
from repro.simcore.process import Process
from repro.storage import StorageAccount
from repro.storage.errors import ServerBusyError
from repro.storage.table import make_entity
from repro.workloads import build_platform
from repro.workloads.table_bench import run_table_test

#: What one client call creates: the race, its deadline, the attempt
#: process and generator, and a failed attempt's exception.
_CALL_KINDS = (Race, Timeout, Process, types.GeneratorType, BaseException)


def _cyclic_garbage(run, kinds):
    """Names of the ``kinds`` objects that only the cyclic collector
    frees after ``run()``.  What ``run`` returns stays alive meanwhile,
    so a world that is one cycle by design is not counted."""
    gc.collect()
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        keep = run()
        gc.set_debug(gc.DEBUG_SAVEALL)
        gc.collect()
        found = sorted({
            type(obj).__name__ for obj in gc.garbage if isinstance(obj, kinds)
        })
        del keep
        return found
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        if was_enabled:
            gc.enable()


def _table_world(window=None):
    env = Environment()
    account = StorageAccount(env, RandomStreams(5))
    account.tables.create_table("t")
    if window is not None:
        injector = FaultInjector(env, RandomStreams(6).stream("faults"))
        injector.attach(account.tables.server_for("t", "p"))
        injector.add_window(*window)
    return env, account


def _table_calls(env, client, n, outcomes):
    """``n`` inserts then ``n`` keyed queries, outcomes counted by
    error type (``None`` for success)."""

    def loop():
        for op in range(2 * n):
            try:
                if op < n:
                    yield from client.insert("t", make_entity("p", f"r{op}"))
                else:
                    yield from client.query("t", "p", f"r{op - n}")
            except Exception as error:  # noqa: BLE001 - counted below
                outcomes.append(type(error).__name__)
            else:
                outcomes.append(None)

    env.process(loop())
    env.run()


def test_successful_table_calls_leave_no_cyclic_garbage():
    outcomes = []

    def run():
        env, account = _table_world()
        client = TableClient(account.tables, timeout_s=30.0)
        _table_calls(env, client, 40, outcomes)
        return env, account, client

    assert _cyclic_garbage(run, _CALL_KINDS) == []
    assert outcomes == [None] * 80


def test_failed_and_retried_table_calls_leave_no_cyclic_garbage():
    outcomes = []

    def run():
        # Half the requests are shed with 503s: some calls succeed on a
        # retry, some exhaust their retries and raise.
        env, account = _table_world((0.0, 1e9, "server_busy_storm", 0.5))
        client = TableClient(
            account.tables, timeout_s=30.0,
            retry=RetryPolicy(max_retries=1, strategy=LinearBackoff(0.1)),
        )
        _table_calls(env, client, 40, outcomes)
        return env, account, client

    assert _cyclic_garbage(run, _CALL_KINDS) == []
    assert "ServerBusyError" in outcomes and None in outcomes


def test_timed_out_table_calls_leave_no_cyclic_garbage():
    outcomes = []

    def run():
        # Every request sits out an exponential delay with a 1 s mean
        # against a 0.3 s client timeout: the deadline usually wins and
        # the abandoned attempt finishes later as an orphan.
        env, account = _table_world((0.0, 1e9, "latency_spike", 1.0))
        client = TableClient(
            account.tables, timeout_s=0.3,
            retry=RetryPolicy(max_retries=1, strategy=LinearBackoff(0.1)),
        )
        _table_calls(env, client, 40, outcomes)
        return env, account, client

    assert _cyclic_garbage(run, _CALL_KINDS) == []
    assert "ClientTimeoutError" in outcomes and None in outcomes


def _read(env, duration, error=None):
    yield env.timeout(duration)
    if error is not None:
        raise error(f"busy at {env.now}")
    return "done"


def _hedged_reads(attempts):
    """Hedged reads, each with the (primary, backup) attempt specs given
    as ``(duration, error)``; returns the outcomes and the policy."""
    outcomes = []
    policy = HedgePolicy(default_delay_s=0.5, warmup=10**6)

    def run():
        env = Environment()

        def loop():
            for primary, backup in attempts:
                specs = iter((primary, backup))

                def make():
                    duration, error = next(specs)
                    return _read(env, duration, error)

                try:
                    outcomes.append((yield from hedged_call(env, make, policy)))
                except ServerBusyError:
                    outcomes.append("busy")

        env.process(loop())
        env.run()
        return env

    return run, outcomes, policy


def test_hedged_reads_won_by_the_primary_leave_no_cyclic_garbage():
    # Before the hedge fires, and after it fires but before the backup.
    run, outcomes, policy = _hedged_reads(
        [((0.2, None), (9.0, None))] * 10 + [((0.7, None), (9.0, None))] * 10
    )
    assert _cyclic_garbage(run, _CALL_KINDS) == []
    assert outcomes == ["done"] * 20
    assert policy.launched == 10 and policy.wins == 0


def test_hedged_reads_with_a_failed_primary_leave_no_cyclic_garbage():
    busy = ServerBusyError
    # Fails before the hedge fires (raised), after it fires with the
    # backup then winning, and with both attempts failing (raised).
    run, outcomes, policy = _hedged_reads(
        [((0.2, busy), (9.0, None))] * 10
        + [((1.0, busy), (2.0, None))] * 10
        + [((1.0, busy), (2.0, busy))] * 10
    )
    assert _cyclic_garbage(run, _CALL_KINDS) == []
    assert outcomes == ["busy"] * 10 + ["done"] * 10 + ["busy"] * 10
    assert policy.launched == 20 and policy.wins == 10


def test_hedged_reads_won_by_the_backup_leave_no_cyclic_garbage():
    run, outcomes, policy = _hedged_reads([((9.0, None), (0.3, None))] * 20)
    assert _cyclic_garbage(run, _CALL_KINDS) == []
    assert outcomes == ["done"] * 20
    assert policy.launched == 20 and policy.wins == 20


def test_campaign_cells_leave_no_environment_behind():
    spec = replace(day_campaign_spec(seed=3, scale=0.02),
                   modes=("none", "automatic"))
    for fast in (False, True):
        assert _cyclic_garbage(
            lambda: run_campaign(spec, fast=fast), (Environment,)
        ) == [], f"fast={fast}"


def _tracked_from(root):
    """How many collector-tracked objects ``root`` reaches (classes and
    modules aside), counted after a collection has untracked the tuples
    that hold only atoms."""
    gc.collect()
    seen = set()
    stack = [root]
    while stack:
        obj = stack.pop()
        if (id(obj) in seen or isinstance(obj, (type, types.ModuleType))
                or not gc.is_tracked(obj)):
            continue
        seen.add(id(obj))
        stack.extend(gc.get_referents(obj))
    return len(seen)


def test_table_bench_keeps_no_request_traces_by_default():
    """The account tracer holds aggregates only: what it reaches does
    not grow with the number of requests it counted."""
    reached = []
    for scale in (1, 4):
        ops = {"insert": 5 * scale, "query": 3 * scale,
               "update": 2 * scale, "delete": 5 * scale}
        platform = build_platform(seed=0, n_clients=4)
        run_table_test(4, ops_per_client=ops, platform=platform)
        tracer = platform.tracer
        assert tracer.total == tracer.client_total == 60 * scale
        reached.append(_tracked_from(tracer))
    assert reached[0] == reached[1]


def test_flow_churn_leaves_no_cyclic_garbage():
    done = []

    def run():
        env = Environment()
        net = FlowNetwork(env)
        links = [Link(f"l{i}", 10.0 * (i + 1)) for i in range(3)]

        def sender(env, i):
            for k in range(20):
                flow = net.transfer(
                    links[i % 3:], 1.0 + (i + k) % 4, label=f"s{i}"
                )
                yield flow.done
                done.append(env.now)

        for i in range(6):
            env.process(sender(env, i))
        env.run()
        return env, net

    assert _cyclic_garbage(run, (Flow, Event)) == []
    assert len(done) == 120
