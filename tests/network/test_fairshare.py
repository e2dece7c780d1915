"""Unit + property tests for the max-min fair allocator."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.network import Link, max_min_fair
from repro.network.fairshare import verify_allocation


def test_single_flow_gets_full_link():
    link = Link("l", 100.0)
    alloc = max_min_fair([("f", [link], None)])
    assert alloc["f"] == pytest.approx(100.0)


def test_equal_flows_split_evenly():
    link = Link("l", 90.0)
    flows = [(i, [link], None) for i in range(3)]
    alloc = max_min_fair(flows)
    assert all(alloc[i] == pytest.approx(30.0) for i in range(3))


def test_flow_cap_redistributes_to_others():
    link = Link("l", 100.0)
    alloc = max_min_fair([("capped", [link], 10.0), ("free", [link], None)])
    assert alloc["capped"] == pytest.approx(10.0)
    assert alloc["free"] == pytest.approx(90.0)


def test_bottleneck_identified_across_links():
    narrow = Link("narrow", 10.0)
    wide = Link("wide", 100.0)
    # f1 crosses both; f2 only the wide link.
    alloc = max_min_fair([
        ("f1", [narrow, wide], None),
        ("f2", [wide], None),
    ])
    assert alloc["f1"] == pytest.approx(10.0)
    assert alloc["f2"] == pytest.approx(90.0)


def test_classic_three_link_example():
    # Textbook max-min: flows A (l1,l2), B (l1), C (l2); l1=10, l2=20.
    l1, l2 = Link("l1", 10.0), Link("l2", 20.0)
    alloc = max_min_fair([
        ("A", [l1, l2], None),
        ("B", [l1], None),
        ("C", [l2], None),
    ])
    assert alloc["A"] == pytest.approx(5.0)
    assert alloc["B"] == pytest.approx(5.0)
    assert alloc["C"] == pytest.approx(15.0)


def test_large_cap_freezes_its_group_when_the_level_rounds_below_it():
    # On a 1e8 MB/s link, B's cap sets the second increment, but
    # ``level + (cap - level)`` lands one ulp below B's cap, and
    # ``cap - 1e-12`` rounds back to the cap.  B must still freeze
    # there and leave C the rest of the link, not stop C with it.
    link = Link("l", 1e8)
    alloc = max_min_fair([
        ("A", (link,), 3103922.891089503),
        ("B", (link,), 8030044.774671094),
        ("C", (link,), None),
    ])
    assert alloc["A"] == 3103922.891089503
    assert alloc["B"] == 8030044.774671093  # one ulp below its cap
    assert alloc["C"] == 88866032.33423941


def test_cap_only_flow_allowed():
    alloc = max_min_fair([("nolink", [], 7.0)])
    assert alloc["nolink"] == pytest.approx(7.0)


def test_uncapped_unlinked_flow_rejected():
    with pytest.raises(ValueError):
        max_min_fair([("bad", [], None)])


def test_zero_cap_flow_gets_zero():
    link = Link("l", 100.0)
    alloc = max_min_fair([("off", [link], 0.0), ("on", [link], None)])
    assert alloc["off"] == 0.0
    assert alloc["on"] == pytest.approx(100.0)


def test_negative_cap_rejected():
    link = Link("l", 10.0)
    with pytest.raises(ValueError):
        max_min_fair([("f", [link], -1.0)])


def test_empty_flowset():
    assert max_min_fair([]) == {}


def test_link_validation():
    with pytest.raises(ValueError):
        Link("bad", 0.0)


@st.composite
def _flow_scenarios(draw):
    n_links = draw(st.integers(min_value=1, max_value=5))
    links = [
        Link(f"L{i}", draw(st.floats(min_value=1.0, max_value=1000.0)))
        for i in range(n_links)
    ]
    n_flows = draw(st.integers(min_value=1, max_value=8))
    flows = []
    for f in range(n_flows):
        crossed_idx = draw(
            st.lists(
                st.integers(min_value=0, max_value=n_links - 1),
                min_size=1, max_size=n_links, unique=True,
            )
        )
        cap = draw(
            st.one_of(st.none(), st.floats(min_value=0.5, max_value=500.0))
        )
        flows.append((f, [links[i] for i in crossed_idx], cap))
    return flows


@given(_flow_scenarios())
@settings(max_examples=200, deadline=None)
def test_property_allocation_feasible_and_pareto(flows):
    alloc = max_min_fair(flows)
    # Feasible: no link or cap exceeded.
    verify_allocation(flows, alloc)
    # Pareto/bottleneck property: every flow is blocked by a saturated
    # link or by its own cap.
    link_load = {}
    for fid, links, cap in flows:
        for link in links:
            link_load[link] = link_load.get(link, 0.0) + alloc[fid]
    for fid, links, cap in flows:
        at_cap = cap is not None and alloc[fid] >= cap - 1e-6
        on_saturated = any(
            link_load[l] >= l.capacity_mbps - 1e-6 for l in links
        )
        assert at_cap or on_saturated, (
            f"flow {fid} rate {alloc[fid]} is not blocked by anything"
        )


@given(
    capacity=st.floats(min_value=1.0, max_value=1e4),
    n=st.integers(min_value=1, max_value=50),
)
@settings(max_examples=100, deadline=None)
def test_property_single_link_split_is_exact(capacity, n):
    link = Link("l", capacity)
    alloc = max_min_fair([(i, [link], None) for i in range(n)])
    for i in range(n):
        assert math.isclose(alloc[i], capacity / n, rel_tol=1e-9)
