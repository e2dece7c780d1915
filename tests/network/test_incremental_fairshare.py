"""The incremental allocator vs the batch oracle, plus timer hygiene.

The contract under test is *exact* (bitwise) agreement: after any
sequence of arrivals, removals, and cap changes, ``FairShareState``
must produce float-for-float the same rates as a from-scratch
``max_min_fair`` over the surviving flow set — that is what makes the
engine swap invisible to the golden experiment outputs.
"""

import math
import random

import pytest

from repro.network import FairShareState, FlowNetwork, Link, max_min_fair
from repro.network.fairshare import verify_allocation
from repro.simcore import Environment


# -- property test: randomized mutation sequences -------------------------

def _random_topology(rng):
    """A pool of links with varied capacities (several natural
    components once flows pick disjoint subsets)."""
    n_links = rng.randint(1, 8)
    return [
        Link(f"l{i}", rng.choice([10.0, 40.0, 100.0, 125.0, 500.0]))
        for i in range(n_links)
    ]


def _random_cap(rng):
    return rng.choice(
        [None, None, None, 12.5, 40.0, rng.uniform(0.5, 200.0), 0.0]
    )


def _check_exact(state, specs):
    state.recompute()
    expected = max_min_fair(specs.values())
    assert state.rates == expected, (
        "incremental allocation diverged from batch oracle"
    )
    verify_allocation(specs.values(), state.rates)


@pytest.mark.parametrize("seed", [0, 1, 2, 3, 17])
def test_incremental_matches_batch_after_every_mutation(seed):
    rng = random.Random(seed)
    links = _random_topology(rng)
    state = FairShareState()
    specs = {}  # fid -> (fid, links, cap), the batch oracle's input
    next_fid = 0

    for _ in range(120):
        roll = rng.random()
        if not specs or roll < 0.55:
            # arrival: random path over the link pool (or linkless+cap)
            if rng.random() < 0.1:
                path, cap = (), rng.uniform(0.5, 50.0)
            else:
                path = tuple(
                    rng.sample(links, rng.randint(1, min(3, len(links))))
                )
                cap = _random_cap(rng)
            fid = f"f{next_fid}"
            next_fid += 1
            specs[fid] = (fid, path, cap)
            state.add_flow(fid, path, cap)
        elif roll < 0.8:
            fid = rng.choice(sorted(specs))
            del specs[fid]
            state.remove_flow(fid)
        else:
            fid = rng.choice(sorted(specs))
            old = specs[fid]
            cap = _random_cap(rng)
            if not old[1] and cap is None:
                cap = rng.uniform(0.5, 50.0)  # linkless + uncapped: unbounded
            specs[fid] = (fid, old[1], cap)
            state.set_cap(fid, cap)
        _check_exact(state, specs)


@pytest.mark.parametrize("seed", [5, 11])
def test_incremental_matches_batch_shared_links(seed):
    """Heavily shared small topologies: one big component, lots of
    freeze interleavings."""
    rng = random.Random(seed)
    links = [Link("a", 100.0), Link("b", 40.0)]
    state = FairShareState()
    specs = {}
    for i in range(60):
        fid = f"f{i}"
        path = tuple(rng.sample(links, rng.randint(1, 2)))
        cap = _random_cap(rng)
        specs[fid] = (fid, path, cap)
        state.add_flow(fid, path, cap)
        if specs and rng.random() < 0.3:
            victim = rng.choice(sorted(specs))
            del specs[victim]
            state.remove_flow(victim)
        _check_exact(state, specs)


def test_untouched_component_rates_are_reused():
    """Mutating one component must not re-solve (nor perturb) another."""
    state = FairShareState()
    a, b = Link("a", 100.0), Link("b", 100.0)
    state.add_flow("a1", (a,), None)
    state.add_flow("a2", (a,), 30.0)
    state.add_flow("b1", (b,), None)
    state.recompute()
    before = {fid: state.rates[fid] for fid in ("a1", "a2")}

    state.add_flow("b2", (b,), None)
    affected = state.recompute()
    assert set(affected) == {"b1", "b2"}
    assert {fid: state.rates[fid] for fid in ("a1", "a2")} == before


def test_component_merge_and_split():
    """A multi-link flow joins two components; removing it splits them."""
    a, b = Link("a", 100.0), Link("b", 10.0)
    state = FairShareState()
    specs = {
        "a1": ("a1", (a,), None),
        "b1": ("b1", (b,), None),
    }
    for fid, path, cap in specs.values():
        state.add_flow(fid, path, cap)
    _check_exact(state, specs)

    specs["ab"] = ("ab", (a, b), None)
    state.add_flow("ab", (a, b), None)
    _check_exact(state, specs)

    del specs["ab"]
    state.remove_flow("ab")
    _check_exact(state, specs)


def test_duplicate_links_in_one_path_count_once():
    link = Link("a", 100.0)
    state = FairShareState()
    state.add_flow("f", (link, link), None)
    state.add_flow("g", (link,), None)
    state.recompute()
    assert state.rates == max_min_fair(
        [("f", (link, link), None), ("g", (link,), None)]
    )


# -- timer hygiene regressions --------------------------------------------

def test_set_flow_ceiling_without_flows_arms_no_timer():
    env = Environment()
    net = FlowNetwork(env)
    net.set_flow_ceiling(Link("l", 100.0), 10.0)
    net.poke()
    assert math.isinf(env.peek())
    assert not env._queue


def test_poke_without_flows_arms_no_timer():
    env = Environment()
    net = FlowNetwork(env)
    net.poke()
    assert math.isinf(env.peek())
    assert not env._queue


def test_abort_last_flow_cancels_timer():
    env = Environment()
    net = FlowNetwork(env)
    flow = net.transfer([Link("l", 100.0)], 10.0)
    assert not math.isinf(env.peek())
    net.abort(flow)
    assert math.isinf(env.peek())


def test_superseded_timers_are_cancelled():
    """Each reschedule cancels the previous completion timer, so at most
    one live timer exists no matter how much churn preceded it."""
    env = Environment()
    net = FlowNetwork(env)
    link = Link("l", 100.0)
    for i in range(10):
        net.transfer([link], 10.0 + i)
    live = [ev for _, _, ev in env._queue if not ev._cancelled]
    assert len(live) == 1


def test_changed_ceiling_applies_at_poke():
    """poke() re-caps a changed ceiling's flows even when concurrency is
    unchanged."""
    env = Environment()
    net = FlowNetwork(env)
    link = Link("l", 100.0)
    net.set_flow_ceiling(link, 50.0)
    flow = net.transfer([link], 10.0)
    assert flow.rate_mbps == 50.0
    net.set_flow_ceiling(link, 25.0)
    assert flow.rate_mbps == 50.0  # schedules nothing by itself
    net.poke()
    assert flow.rate_mbps == 25.0


# -- single-link components with caps -------------------------------------

_TEXTBOOK_EPS = 1e-12


def _textbook_single_link(capacity, caps):
    """Per-flow progressive filling on one link, written from scratch.

    Every unfrozen flow's allocation grows by the same increment each
    round; a round ends when the link saturates or the smallest
    remaining cap is reached.  Flows whose cap is (near) zero never
    take rate.
    """
    caps = [math.inf if cap is None else cap for cap in caps]
    alloc = [0.0] * len(caps)
    unfrozen = [i for i, cap in enumerate(caps) if cap > _TEXTBOOK_EPS]
    left = capacity
    tolerance = _TEXTBOOK_EPS * max(capacity, 1.0)
    while unfrozen:
        increment = min(
            left / len(unfrozen), min(caps[i] - alloc[i] for i in unfrozen)
        )
        for i in unfrozen:
            alloc[i] = alloc[i] + increment
        left -= increment * len(unfrozen)
        if left <= tolerance:
            break
        still = [i for i in unfrozen if alloc[i] < caps[i] - _TEXTBOOK_EPS]
        if len(still) == len(unfrozen):
            break  # numerical guard, as in the allocator
        unfrozen = still
    return alloc


_CAPPED_GROUPS = {
    "below_and_above_share": (100.0, [10.0, 25.0, 60.0, None, 90.0]),
    "inert_zero_caps": (100.0, [0.0, 40.0, 0.0, None, 1e-13]),
    "all_caps_equal_below_share": (100.0, [12.5] * 5),
    "all_caps_equal_above_share": (40.0, [40.0] * 7),
    "caps_tie_with_share": (100.0, [20.0, 20.0, 20.0, 20.0, 20.0]),
    "odd_capacity": (125.0, [7.3, 41.0, None, None, 19.9, 0.0]),
    "only_inert": (100.0, [0.0, 0.0]),
    "uncapped_inexact_share": (0.3, [None] * 7),
}


@pytest.mark.parametrize("name", sorted(_CAPPED_GROUPS))
def test_capped_single_link_group_matches_textbook(name):
    capacity, caps = _CAPPED_GROUPS[name]
    link = Link("uplink", capacity)
    state = FairShareState()
    for i, cap in enumerate(caps):
        state.add_flow(i, (link,), cap)
    state.recompute()
    assert [state.rates[i] for i in range(len(caps))] == (
        _textbook_single_link(capacity, caps)
    )


def test_capped_group_keeps_rates_while_multi_link_flow_joins_and_leaves():
    """A multi-link flow bottlenecked elsewhere does not move a capped
    group, and after it leaves the group is solved without traversal
    to the same bits again."""
    a, b = Link("a", 100.0), Link("b", 4.0)
    state = FairShareState()
    group = {"c10": 10.0, "c20": 20.0, "inert": 0.0, "c20b": 20.0}
    for fid, cap in group.items():
        state.add_flow(fid, (a,), cap)
    state.recompute()
    alone = {fid: state.rates[fid] for fid in group}
    assert alone == {"c10": 10.0, "c20": 20.0, "inert": 0.0, "c20b": 20.0}

    state.add_flow("ab", (a, b), None)
    assert state._multi[a] == 1 and state._capped[a] == len(group)
    assert set(state.recompute()) == set(group) | {"ab"}
    assert {fid: state.rates[fid] for fid in group} == alone
    assert state.rates["ab"] == 4.0

    state.remove_flow("ab")
    assert state._multi[a] == 0  # back on the traversal-free path
    assert set(state.recompute()) == set(group)
    assert {fid: state.rates[fid] for fid in group} == alone
    specs = [(fid, (a,), cap) for fid, cap in group.items()]
    assert max_min_fair(specs) == alone


def test_allocation_independent_of_insertion_order_and_link_identity():
    """Links hash by identity, so set and dict orders follow object
    addresses; the allocation must not.  Rebuild the same flow set over
    fresh link objects in permuted orders and compare bit for bit."""
    rng = random.Random(23)
    capacities = [10.0, 40.0, 100.0, 125.0, 100.0, 3.0]
    specs = []
    for i in range(70):
        path = tuple(rng.sample(range(len(capacities)), rng.randint(1, 3)))
        specs.append((f"f{i}", path, _random_cap(rng)))

    def allocate(order):
        links = [Link(f"l{i}", c) for i, c in enumerate(capacities)]
        state = FairShareState()
        for fid, path, cap in order:
            state.add_flow(fid, tuple(links[i] for i in path), cap)
        state.recompute()
        return state.rates

    reference = allocate(specs)
    for _ in range(6):
        order = specs[:]
        rng.shuffle(order)
        assert allocate(order) == reference
