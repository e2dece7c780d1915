"""Unit tests for the event-driven flow transfer engine."""

import itertools
import math
import random

import pytest

from repro.network import FlowNetwork, Link
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
# next completion and one for finish detection.  Its allocator is
# textbook progressive filling, per flow and from scratch on every
# event, over each connected component (the unit FairShareState solves).
# The array engine on the incremental allocator, with its single-link
# shortcuts and skipped untouched components, must reproduce it float
# for float.

_TEXTBOOK_EPS = 1e-12


class _TextbookAllocator:
    """Per-flow progressive filling of every component on each call."""

    def __init__(self):
        self.rates = {}
        self.flows = {}  # fid -> (deduplicated links, cap; inf = none)

    def add_flow(self, fid, links, cap):
        self.flows[fid] = (
            tuple(dict.fromkeys(links)), math.inf if cap is None else cap
        )

    def remove_flow(self, fid):
        del self.flows[fid]

    def set_cap(self, fid, cap):
        self.add_flow(fid, self.flows[fid][0], cap)

    def recompute(self):
        self.rates = {}
        for component in self._components():
            self.rates.update(self._fill(component))
        return list(self.flows)

    def _components(self):
        by_link = {}
        for fid, (links, _) in self.flows.items():
            for link in links:
                by_link.setdefault(link, []).append(fid)
        seen = set()
        for fid in self.flows:
            if fid in seen:
                continue
            seen.add(fid)
            component = [fid]
            i = 0
            while i < len(component):
                for link in self.flows[component[i]][0]:
                    for other in by_link[link]:
                        if other not in seen:
                            seen.add(other)
                            component.append(other)
                i += 1
            yield component

    def _fill(self, component):
        flows = self.flows
        alloc = dict.fromkeys(component, 0.0)
        unfrozen = [f for f in component if flows[f][1] > _TEXTBOOK_EPS]
        left = {
            link: link.capacity_mbps for f in component for link in flows[f][0]
        }
        while unfrozen:
            crossing = dict.fromkeys(left, 0)
            for f in unfrozen:
                for link in flows[f][0]:
                    crossing[link] += 1
            increment = min(
                [left[link] / k for link, k in crossing.items() if k]
                + [flows[f][1] - alloc[f] for f in unfrozen]
            )
            for f in unfrozen:
                alloc[f] = alloc[f] + increment
            for link, k in crossing.items():
                if k:
                    left[link] -= increment * k
            saturated = {
                link for link, cap_left in left.items()
                if cap_left <= _TEXTBOOK_EPS * max(link.capacity_mbps, 1.0)
            }
            still = [
                f for f in unfrozen
                if alloc[f] < flows[f][1] - _TEXTBOOK_EPS
                and saturated.isdisjoint(flows[f][0])
            ]
            if len(still) == len(unfrozen):
                still = []  # numerical guard, as in the allocator
            unfrozen = still
        return alloc


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
        self.state = _TextbookAllocator()
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


def _arrive(path, size, cap=None, hooked=False, delay=0.0):
    return (delay, ("arrive", path, size, cap, hooked))


def _starved_script():
    """Starved flows (cap 0.0, or a hook cap of 0.0) beside moving ones,
    including one starved at a residual of exactly 0.0: the next
    completion must skip them, not divide by their zero rate."""
    script = [
        _arrive((0,), 10.0, cap=0.0),  # alone and starved: no timer
        _arrive((0,), 10.0, delay=0.5),
        _arrive((0, 1), 25.0),
        _arrive((1,), 30.0, cap=12.5, delay=0.3),
        _arrive((0,), 5.0, cap=0.0, hooked=True, delay=0.2),
        (1.0, ("abort", 0)),
        # Hooked A drains to exactly 0.0 at t=5 (C's completion at 4.5
        # re-arms A's timer after the driver's wake-up), then a poke
        # starves it there; D arrives beside it and both finish at 7.9.
        _arrive((2,), 10.0, hooked=True, delay=1.0),
        _arrive((3,), 5.0),
        (1.0, ("poke", 0.0)),
        _arrive((2,), 4.0, delay=0.5),
        (1.0, ("poke", 20.0)),
        _arrive((0,), 8.0, cap=0.0, delay=0.5),
        _arrive((1,), 8.0, delay=0.0),
    ]
    return [10.0, 40.0, 10.0, 10.0], script


def _arrival_at_zero_residual_script():
    """A transfer arrives at the instant another flow's residual reaches
    0.0, before that flow's completion timer fires (C's completion
    re-armed it after the driver's wake-up was scheduled)."""
    script = []
    for t0_link in (0, 2):
        script += [
            _arrive((t0_link,), 10.0),
            _arrive((1,), 5.0),
            _arrive((t0_link,), 10.0, delay=1.0),
            _arrive((t0_link, 1), 3.0, delay=0.0),
            (4.0, ("poke", 20.0)),
        ]
    return [10.0, 10.0, 10.0], script


def _capped_group_crossing_script():
    """Flows capped at 40 MB/s on a 500 MB/s link cross n = 12 <-> 13:
    every member freezes at its cap below 13 and at the link's equal
    share from 13 on; a multi-link flow joins and leaves the group."""
    script = [_arrive((0,), 40.0 + 7.0 * i, cap=40.0) for i in range(12)]
    script += [
        _arrive((0,), 30.0, cap=40.0, delay=0.1),  # n = 13
        (0.1, ("abort", 12)),  # back to 12
        _arrive((0,), 90.0, cap=40.0, delay=0.1),
        _arrive((0,), 90.0, cap=40.0, delay=0.1),  # n = 14
        _arrive((0, 1), 60.0, delay=0.2),  # the group joins a component
        (0.3, ("abort", 15)),  # and is on its own again
        _arrive((0,), 20.0, cap=40.0, delay=0.2),
    ]
    return [500.0, 125.0], script


def _capped_group_with_inert_script():
    """A capped single-link group with inert (cap 0.0) members through
    the equal-share, common-cap and mixed-cap solutions."""
    script = [
        _arrive((0,), 60.0, cap=40.0),
        _arrive((0,), 10.0, cap=0.0),
        _arrive((0,), 45.0, cap=40.0),
        _arrive((0,), 10.0, cap=0.0),
        _arrive((0,), 70.0, cap=40.0),  # share 33.3 <= 40
        (0.5, ("abort", 4)),  # share 50 > 40: common cap
        _arrive((0,), 25.0, cap=12.5, delay=0.5),  # mixed caps
        _arrive((0,), 25.0, delay=0.5),  # and one uncapped
        _arrive((0,), 15.0, cap=0.0, hooked=True, delay=0.2),
        (0.5, ("poke", 5.0)),
        (0.5, ("abort", 0)),
        _arrive((0,), 30.0, cap=40.0, hooked=True, delay=0.5),
    ]
    return [100.0], script


def _shared_path_script():
    """Many transfers over one path tuple, including a path that lists a
    link twice, among single-link and hooked flows."""
    script = []
    for i in range(36):
        path = [(0, 1, 2), (0, 2, 0), (1,), (0, 1, 2)][i % 4]
        cap = [None, 40.0, None, 12.5][i % 3]
        script.append(
            _arrive(path, 20.0 + (i * 7) % 30, cap=cap, hooked=i % 5 == 0,
                    delay=[0.0, 0.25, 0.0, 0.6][i % 4])
        )
        if i % 6 == 5:
            script.append((0.1, ("abort", 3 * i)))
    return [100.0, 40.0, 125.0], script


_EDGE_SCRIPTS = {
    "starved-beside-moving": _starved_script,
    "arrival-at-zero-residual": _arrival_at_zero_residual_script,
    "capped-group-crossing-12-13": _capped_group_crossing_script,
    "capped-group-with-inert": _capped_group_with_inert_script,
    "shared-path-tuple": _shared_path_script,
}


def _replay(engine_cls, capacities, script):
    env = Environment()
    net = engine_cls(env)
    links = [Link(f"l{i}", capacity) for i, capacity in enumerate(capacities)]
    # One tuple object per distinct path, as the topology hands out.
    routes = {}
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
                route = routes.get(path)
                if route is None:
                    route = routes[path] = tuple(links[i] for i in path)
                flow = net.transfer(
                    route, size, cap=cap,
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


@pytest.mark.parametrize("script_id", [0, 1, 2, 7, 42, *_EDGE_SCRIPTS])
def test_array_engine_matches_per_flow_loop_bit_for_bit(script_id):
    if isinstance(script_id, int):
        capacities, script = _churn_script(script_id)
    else:
        capacities, script = _EDGE_SCRIPTS[script_id]()
    expected = _replay(_LoopFlowNetwork, capacities, script)
    actual = _replay(FlowNetwork, capacities, script)
    completions, count, trace, final = actual
    # Exact float equality throughout: completion instants, every
    # flow's rate and residual after each step, and the final state.
    assert count == expected[1]
    assert completions == expected[0]
    assert trace == expected[2]
    assert final == expected[3]
    if isinstance(script_id, int):
        assert count > 20
        assert any(
            a[1] == b[1] for a, b in zip(completions, completions[1:])
        ), "script should produce simultaneous completions"
