"""Unit tests for the event-driven flow transfer engine."""

import itertools
import math
import random

import pytest

from repro.network import FairShareState, FlowNetwork, Link
from repro.simcore import Environment


def _run_transfer(env, net, links, size, cap=None, results=None, tag=None):
    def proc(env):
        flow = net.transfer(links, size, cap=cap, label=tag or "t")
        yield flow.done
        if results is not None:
            results.append((tag, env.now))

    return env.process(proc(env))


def test_single_flow_duration_is_size_over_capacity():
    env = Environment()
    net = FlowNetwork(env)
    link = Link("l", 10.0)
    results = []
    _run_transfer(env, net, [link], 100.0, results=results, tag="f")
    env.run()
    assert results == [("f", pytest.approx(10.0))]


def test_flow_cap_binds_below_link():
    env = Environment()
    net = FlowNetwork(env)
    link = Link("l", 100.0)
    results = []
    _run_transfer(env, net, [link], 50.0, cap=5.0, results=results, tag="f")
    env.run()
    assert results == [("f", pytest.approx(10.0))]


def test_two_flows_share_then_speed_up():
    # Two equal flows on a 10 MB/s link: 100 MB each.  They share at 5
    # until t=20 when both finish together.
    env = Environment()
    net = FlowNetwork(env)
    link = Link("l", 10.0)
    results = []
    _run_transfer(env, net, [link], 100.0, results=results, tag="a")
    _run_transfer(env, net, [link], 100.0, results=results, tag="b")
    env.run()
    assert [t for _, t in results] == [pytest.approx(20.0)] * 2


def test_short_flow_finishes_then_long_flow_accelerates():
    # a=30 MB, b=90 MB on a 10 MB/s link.  Share at 5 until a finishes at
    # t=6; b then has 60 MB left at 10 MB/s -> done at t=12.
    env = Environment()
    net = FlowNetwork(env)
    link = Link("l", 10.0)
    results = []
    _run_transfer(env, net, [link], 30.0, results=results, tag="a")
    _run_transfer(env, net, [link], 90.0, results=results, tag="b")
    env.run()
    assert dict(results) == {
        "a": pytest.approx(6.0),
        "b": pytest.approx(12.0),
    }


def test_late_arrival_slows_existing_flow():
    # a starts alone (10 MB/s); b arrives at t=4.  a: 100 MB -> 40 MB done
    # by t=4, 60 left shared at 5 -> 12 more seconds -> t=16.
    env = Environment()
    net = FlowNetwork(env)
    link = Link("l", 10.0)
    results = []

    def late(env):
        yield env.timeout(4.0)
        flow = net.transfer([link], 1000.0, label="b")
        yield flow.done

    _run_transfer(env, net, [link], 100.0, results=results, tag="a")
    env.process(late(env))
    env.run(until=50.0)
    assert dict(results)["a"] == pytest.approx(16.0)


def test_abort_releases_bandwidth():
    env = Environment()
    net = FlowNetwork(env)
    link = Link("l", 10.0)
    results = []

    def victim(env):
        flow = net.transfer([link], 1000.0, label="victim")
        yield env.timeout(2.0)
        net.abort(flow)

    env.process(victim(env))
    _run_transfer(env, net, [link], 100.0, results=results, tag="survivor")
    env.run()
    # survivor: 2 s at 5 MB/s (10 MB) then 90 MB at 10 MB/s -> t=11.
    assert dict(results)["survivor"] == pytest.approx(11.0)


def test_dynamic_cap_depends_on_concurrency():
    env = Environment()
    net = FlowNetwork(env)
    link = Link("l", 1000.0)
    # Front-end curve: each flow capped at 20/n.
    net.add_cap_hook(lambda flow, n: 20.0 / n)
    results = []
    _run_transfer(env, net, [link], 10.0, results=results, tag="a")
    _run_transfer(env, net, [link], 10.0, results=results, tag="b")
    env.run()
    # Both capped at 10 MB/s while together (until t=1.0 when both finish).
    assert [t for _, t in results] == [pytest.approx(1.0)] * 2


def test_transfer_validation():
    env = Environment()
    net = FlowNetwork(env)
    link = Link("l", 1.0)
    with pytest.raises(ValueError):
        net.transfer([link], 0.0)
    with pytest.raises(ValueError):
        net.transfer([], 5.0)


def test_many_flows_conservation():
    env = Environment()
    net = FlowNetwork(env)
    link = Link("l", 7.0)
    results = []
    sizes = [10.0, 20.0, 5.0, 40.0, 25.0]
    for i, size in enumerate(sizes):
        _run_transfer(env, net, [link], size, results=results, tag=i)
    env.run()
    # Work conservation: the link runs at capacity until the final byte.
    assert max(t for _, t in results) == pytest.approx(sum(sizes) / 7.0)
    assert net.active_count == 0
    assert net.completed_count == len(sizes)


def test_completed_count_and_snapshot():
    env = Environment()
    net = FlowNetwork(env)
    link = Link("l", 10.0)
    flow = net.transfer([link], 10.0, label="x")
    assert "x#" in list(net.snapshot().keys())[0]
    env.run()
    assert flow.done.processed
    assert net.completed_count == 1


# -- the per-flow loop engine as an oracle ---------------------------------
#
# The scalar engine FlowNetwork ran on before its flow state moved into
# numpy arrays: one Python pass over every flow to drain, one for the
# next completion and one for finish detection.  The array engine must
# reproduce it float for float.

class _LoopFlow:
    _ids = itertools.count()

    def __init__(self, env, links, size_mb, cap, label):
        self.id = next(_LoopFlow._ids)
        self.links = tuple(links)
        self.cap = cap
        self.remaining_mb = float(size_mb)
        self.rate_mbps = 0.0
        self.done = env.event()
        self.label = label
        self.cap_key = None
        self.eff_cap = None


class _LoopFlowNetwork:
    def __init__(self, env):
        self.env = env
        self.flows = set()
        self.state = FairShareState()
        self.last_update = env.now
        self.timer = None
        self.completed_count = 0
        self.hooks = []
        self.epoch = 0

    def transfer(self, links, size_mb, cap=None, label=""):
        self._advance()
        flow = _LoopFlow(self.env, links, size_mb, cap, label)
        self.flows.add(flow)
        self.state.add_flow(flow, flow.links, cap)
        self._reschedule()
        return flow

    def abort(self, flow):
        if flow in self.flows:
            self._advance()
            self.flows.discard(flow)
            self.state.remove_flow(flow)
            self._reschedule()

    def add_cap_hook(self, hook):
        self.hooks.append(hook)
        self.poke()

    def poke(self):
        self.epoch += 1
        if self.flows:
            self._advance()
            self._reschedule()

    def _advance(self):
        elapsed = self.env.now - self.last_update
        if elapsed > 0:
            for flow in self.flows:
                flow.remaining_mb -= flow.rate_mbps * elapsed
        self.last_update = self.env.now

    def _reschedule(self):
        if self.timer is not None:
            if not self.timer.processed:
                self.timer.cancel()
            self.timer = None
        if not self.flows:
            return
        if self.hooks:
            key = (self.epoch, len(self.flows))
            for flow in self.flows:
                if flow.cap_key != key:
                    flow.cap_key = key
                    cap = flow.cap
                    for hook in self.hooks:
                        dyn = hook(flow, key[1])
                        if dyn is not None:
                            cap = dyn if cap is None else min(cap, dyn)
                    flow.eff_cap = cap
                self.state.set_cap(flow, flow.eff_cap)
        for flow in self.state.recompute():
            flow.rate_mbps = self.state.rates[flow]
        next_done = math.inf
        for flow in self.flows:
            if flow.rate_mbps > 0:
                next_done = min(next_done, flow.remaining_mb / flow.rate_mbps)
        if not math.isinf(next_done):
            self.timer = self.env.timeout(max(next_done, 0.0))
            self.timer.add_callback(self._on_timer)

    def _on_timer(self, _timer):
        self._advance()
        finished = sorted(
            (f for f in self.flows if f.remaining_mb <= 1e-9),
            key=lambda f: f.id,
        )
        for flow in finished:
            self.flows.discard(flow)
            self.state.remove_flow(flow)
            flow.remaining_mb = 0.0
            self.completed_count += 1
            flow.done.succeed(flow)
        self._reschedule()


def _churn_script(seed, n_links=5, steps=160):
    """A seeded list of (delay, action) steps, engine-independent."""
    rng = random.Random(seed)
    capacities = [rng.choice([10.0, 40.0, 100.0, 125.0]) for _ in range(n_links)]
    script = []
    for _ in range(steps):
        # Zero delays and equal sizes make arrivals and completions tie.
        delay = rng.choice([0.0, 0.0, 0.5, rng.uniform(0.0, 3.0)])
        roll = rng.random()
        if roll < 0.6:
            if rng.random() < 0.1:
                path, cap = (), rng.choice([12.5, 40.0, 0.0])
            else:
                path = tuple(rng.sample(range(n_links), rng.randint(1, 4)))
                cap = rng.choice(
                    [None, None, 0.0, 12.5, 12.5, 40.0, rng.uniform(1.0, 60.0)]
                )
            size = rng.choice([10.0, 10.0, 25.0, rng.uniform(0.5, 80.0)])
            hooked = rng.random() < 0.3
            script.append((delay, ("arrive", path, size, cap, hooked)))
        elif roll < 0.85:
            script.append((delay, ("abort", rng.randrange(1 << 30))))
        else:
            script.append((delay, ("poke", rng.choice([5.0, 20.0, 55.0]))))
    return capacities, script


def _replay(engine_cls, capacities, script):
    env = Environment()
    net = engine_cls(env)
    links = [Link(f"l{i}", capacity) for i, capacity in enumerate(capacities)]
    ceiling = {"cap": 20.0}
    net.add_cap_hook(
        lambda flow, n: ceiling["cap"] * 4.0 / n
        if flow.label == "hooked" else None
    )
    flows, completions, trace = [], [], []

    def wait(env, index, flow):
        yield flow.done
        completions.append((index, env.now))

    def driver(env):
        for delay, action in script:
            if delay:
                yield env.timeout(delay)
            if action[0] == "arrive":
                _, path, size, cap, hooked = action
                flow = net.transfer(
                    [links[i] for i in path], size, cap=cap,
                    label="hooked" if hooked else "plain",
                )
                env.process(wait(env, len(flows), flow))
                flows.append(flow)
            elif action[0] == "abort" and flows:
                net.abort(flows[action[1] % len(flows)])
            elif action[0] == "poke":
                ceiling["cap"] = action[1]
                net.poke()
            trace.append([(f.rate_mbps, f.remaining_mb) for f in flows])

    env.process(driver(env))
    env.run()
    final = [(f.rate_mbps, f.remaining_mb) for f in flows]
    return completions, net.completed_count, trace, final


@pytest.mark.parametrize("seed", [0, 1, 2, 7, 42])
def test_array_engine_matches_per_flow_loop_bit_for_bit(seed):
    capacities, script = _churn_script(seed)
    expected = _replay(_LoopFlowNetwork, capacities, script)
    actual = _replay(FlowNetwork, capacities, script)
    completions, count, trace, final = actual
    assert count == expected[1] and count > 20
    # Exact float equality throughout: completion instants, every
    # flow's rate and residual after each step, and the final state.
    assert completions == expected[0]
    assert trace == expected[2]
    assert final == expected[3]
    assert any(
        a[1] == b[1] for a, b in zip(completions, completions[1:])
    ), "script should produce simultaneous completions"
