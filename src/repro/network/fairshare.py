"""Max-min fair bandwidth allocation (progressive filling).

Given flows, each crossing a set of links and optionally carrying its own
rate cap, raise all unfrozen flows' rates at the same pace; whenever a
link saturates (or a flow hits its cap) freeze the flows it constrains.
The result is the unique max-min fair allocation: no flow's rate can be
increased without decreasing that of a flow with an already-smaller rate.

Two entry points share one solver:

* :func:`max_min_fair` — the batch oracle: solve a complete flow set
  from scratch.  Kept as the reference the property tests compare
  against (via :func:`verify_allocation` and exact rate equality).
* :class:`FairShareState` — the incremental engine
  :class:`~repro.network.flows.FlowNetwork` runs on.  It keeps
  persistent per-link flow membership; a mutation (arrival, removal,
  cap change) dirties only the links it touches, and
  :meth:`~FairShareState.recompute` re-solves just the connected
  component(s) of links/flows reachable from the dirty set, reusing
  the stored rates of untouched components.

Each link also counts its members by shape: ``_multi`` counts flows
crossing more than one distinct link, ``_capped`` single-link flows with
a finite cap.  A link with no multi-link members is a component on its
own — exactly its membership — so :meth:`FairShareState._solve_link`
solves it straight from that membership, with no graph traversal:
uncapped members share the capacity equally in one pass; with caps,
inert members (cap ≤ ``_EPS``) get 0.0 and the one-iteration share and
uniform-cap cases are stamped directly before falling back to
progressive filling.  Only components spanning several links are
collected by breadth-first search.

Bit-identity contract: the allocation is solved **per connected
component**, and a component's rates are a pure function of that
component's members, caps and link capacities.  The per-component
solver accumulates one shared "water level" instead of per-flow
allocations — every unfrozen flow's allocation in classic progressive
filling equals the running sum of increments, so stamping the level at
freeze time executes the *same float additions* the per-flow loop
would.  Incremental and batch results are therefore bitwise equal by
construction, and skipping an untouched component is exact, not
approximate.
"""

from __future__ import annotations

import math
from heapq import heapify as _heapify, heappop as _heappop
from typing import (
    Dict,
    Hashable,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.network.links import Link

FlowSpec = Tuple[Hashable, Sequence[Link], Optional[float]]

#: Rates below this are treated as zero when checking saturation.
_EPS = 1e-12

_INF = math.inf


class FairShareState:
    """Incremental max-min fair allocator over a mutable flow set.

    Flow ids may be any hashable (the transfer engine uses
    :class:`~repro.network.flows.Flow` objects directly).  Rates live
    in :attr:`rates` and are refreshed by :meth:`recompute`, which
    returns the flows whose component was re-solved.
    """

    __slots__ = (
        "rates", "_members", "_flow_links", "_flow_linkset", "_flow_caps",
        "_multi", "_capped", "_dirty_flows", "_dirty_links",
    )

    def __init__(self) -> None:
        #: flow id -> allocated rate (MB/s); valid after recompute().
        self.rates: Dict[Hashable, float] = {}
        #: link -> set of member flow ids (persistent membership).
        self._members: Dict[Link, Set[Hashable]] = {}
        #: flow id -> links exactly as registered (equality semantics).
        self._flow_links: Dict[Hashable, Tuple[Link, ...]] = {}
        #: flow id -> links deduplicated in order (traversal/counting).
        self._flow_linkset: Dict[Hashable, Tuple[Link, ...]] = {}
        #: flow id -> cap as float (math.inf = uncapped).
        self._flow_caps: Dict[Hashable, float] = {}
        #: link -> count of members crossing several distinct links.
        #: Zero means the link is a component on its own (_solve_link).
        self._multi: Dict[Link, int] = {}
        #: link -> count of single-link members with a finite cap.  Zero
        #: as well means every member is uncapped — the dominant shape
        #: under churn — and one pass stamps the equal share.
        self._capped: Dict[Link, int] = {}
        self._dirty_flows: Set[Hashable] = set()
        self._dirty_links: Set[Link] = set()

    # -- mutations ---------------------------------------------------------
    def add_flow(
        self,
        fid: Hashable,
        links: Sequence[Link],
        cap: Optional[float],
    ) -> None:
        """Register a flow; its component is re-solved on recompute()."""
        links = tuple(links)
        if fid in self._flow_links:
            if links != self._flow_links[fid]:
                raise ValueError(f"duplicate flow id {fid!r}")
            self.set_cap(fid, cap)
            return
        cap_f = _INF if cap is None else float(cap)
        if cap_f < 0:
            raise ValueError(f"flow {fid!r}: negative cap")
        self._flow_links[fid] = links
        linkset = tuple(dict.fromkeys(links))
        self._flow_linkset[fid] = linkset
        self._flow_caps[fid] = cap_f
        multi = len(linkset) > 1
        capped = not multi and cap_f != _INF
        members = self._members
        multis = self._multi
        cappeds = self._capped
        for link in linkset:
            group = members.get(link)
            if group is None:
                members[link] = {fid}
                multis[link] = 1 if multi else 0
                cappeds[link] = 1 if capped else 0
            else:
                group.add(fid)
                if multi:
                    multis[link] += 1
                elif capped:
                    cappeds[link] += 1
        self._dirty_flows.add(fid)

    def remove_flow(self, fid: Hashable) -> None:
        """Drop a flow; the links it crossed are re-solved on recompute()."""
        linkset = self._flow_linkset.pop(fid)
        del self._flow_links[fid]
        cap_f = self._flow_caps.pop(fid)
        self.rates.pop(fid, None)
        self._dirty_flows.discard(fid)
        multi = len(linkset) > 1
        capped = not multi and cap_f != _INF
        members = self._members
        multis = self._multi
        cappeds = self._capped
        dirty_links = self._dirty_links
        for link in linkset:
            group = members[link]
            group.discard(fid)
            if group:
                if multi:
                    multis[link] -= 1
                elif capped:
                    cappeds[link] -= 1
                dirty_links.add(link)
            else:
                del members[link]
                del multis[link]
                del cappeds[link]
                dirty_links.discard(link)

    def set_cap(self, fid: Hashable, cap: Optional[float]) -> None:
        """Update a flow's cap; no-op when the value is bit-unchanged."""
        cap_f = _INF if cap is None else float(cap)
        if cap_f < 0:
            raise ValueError(f"flow {fid!r}: negative cap")
        old = self._flow_caps[fid]
        if cap_f != old:
            self._flow_caps[fid] = cap_f
            self._dirty_flows.add(fid)
            linkset = self._flow_linkset[fid]
            if len(linkset) == 1 and (cap_f == _INF) != (old == _INF):
                self._capped[linkset[0]] += -1 if cap_f == _INF else 1

    # -- solving -----------------------------------------------------------
    def recompute(self) -> List[Hashable]:
        """Re-solve every component touched since the last call.

        Returns the flows whose component was re-solved (their
        :attr:`rates` entries are fresh; all others are untouched).
        """
        if not self._dirty_flows and not self._dirty_links:
            return []
        affected: List[Hashable] = []
        seen_flows: Set[Hashable] = set()
        seen_links: Set[Link] = set()
        flow_linkset = self._flow_linkset
        for fid in self._dirty_flows:
            linkset = flow_linkset.get(fid)
            if linkset is None:
                continue  # removed after being dirtied
            # A solved component covers *all* links of each member, so a
            # flow is covered iff its first link is (or, linkless, iff
            # the flow itself was seen).
            if linkset:
                if linkset[0] in seen_links:
                    continue
            elif fid in seen_flows:
                continue
            self._solve_component(fid, seen_flows, seen_links, affected)
        members = self._members
        for link in self._dirty_links:
            if link in seen_links:
                continue
            group = members.get(link)
            if not group:
                continue
            self._solve_component(
                next(iter(group)), seen_flows, seen_links, affected
            )
        self._dirty_flows.clear()
        self._dirty_links.clear()
        return affected

    def recompute_all(self) -> None:
        """Solve every component from scratch (the batch entry point)."""
        self._dirty_flows.update(self._flow_links)
        self.recompute()

    # -- the component solver ---------------------------------------------
    def _solve_component(
        self,
        seed: Hashable,
        seen_flows: Set[Hashable],
        seen_links: Set[Link],
        affected: List[Hashable],
    ) -> None:
        """Collect the connected component containing ``seed`` and solve it."""
        seed_links = self._flow_linkset[seed]
        if len(seed_links) == 1:
            link = seed_links[0]
            if not self._multi[link]:
                seen_links.add(link)
                self._solve_link(link, affected)
                return

        members = self._members
        flow_linkset = self._flow_linkset
        flow_caps = self._flow_caps
        rates = self.rates
        comp_flows: List[Hashable] = [seed]
        seen_flows.add(seed)
        comp_links: List[Link] = []
        # BFS over the flow/link bipartite graph; comp_flows doubles as
        # the traversal queue.
        i = 0
        while i < len(comp_flows):
            fid = comp_flows[i]
            i += 1
            for link in flow_linkset[fid]:
                if link not in seen_links:
                    seen_links.add(link)
                    comp_links.append(link)
                    for other in members[link]:
                        if other not in seen_flows:
                            seen_flows.add(other)
                            comp_flows.append(other)
        affected.extend(comp_flows)

        # A traversed component spans several links (one-link components
        # went to _solve_link above) or is a lone linkless flow.
        # Active = flows that can take rate at all; others are inert.
        active: Set[Hashable] = set()
        for fid in comp_flows:
            if flow_caps[fid] > _EPS:
                active.add(fid)
            else:
                rates[fid] = 0.0
        if active:
            self._fill(comp_flows, comp_links, active)

    def _solve_link(self, link: Link, affected: List[Hashable]) -> None:
        """Solve a component that is exactly ``link``'s membership.

        Computes what progressive filling would for one link, taking
        the one-iteration cases without building any set: the link
        saturates at the equal share (when that is no larger than every
        cap), or every active member freezes at one common cap.
        """
        group = self._members[link]
        affected.extend(group)
        rates = self.rates
        flow_caps = self._flow_caps
        capacity = link.capacity_mbps
        tolerance = _EPS * (capacity if capacity > 1.0 else 1.0)
        if not self._capped[link]:
            # Every member uncapped: one iteration saturates the link
            # and the equal share is exact — stamp it in one pass.
            share = capacity / len(group)
            if capacity - share * len(group) <= tolerance:
                for fid in group:
                    rates[fid] = share
                return
            self._fill(group, [link], set(group))
            return

        n = 0
        min_cap = _INF
        for fid in group:
            cap = flow_caps[fid]
            if cap > _EPS:
                n += 1
                if cap < min_cap:
                    min_cap = cap
            else:
                rates[fid] = 0.0  # inert: can take no rate at all
        if not n:
            return
        share = capacity / n
        if share <= min_cap:
            # One progressive-filling iteration: the link saturates (or
            # ties with the smallest cap) and freezes everyone.  Guard
            # the exactness condition rather than assume it.
            if capacity - share * n <= tolerance:
                for fid in group:
                    if flow_caps[fid] > _EPS:
                        rates[fid] = share
                return
        else:
            for fid in group:
                cap = flow_caps[fid]
                if cap > _EPS and cap != min_cap:
                    break
            else:
                # One iteration again: every active flow cap-freezes at
                # the same level (0.0 + min_cap == min_cap exactly).
                for fid in group:
                    if flow_caps[fid] > _EPS:
                        rates[fid] = min_cap
                return
        self._fill(
            group, [link], {fid for fid in group if flow_caps[fid] > _EPS}
        )

    def _fill(
        self,
        comp_flows: Iterable[Hashable],
        comp_links: List[Link],
        active: Set[Hashable],
    ) -> None:
        """Progressive filling via a shared water level.

        Replicates the classic per-flow loop bit-for-bit: every active
        flow's allocation is the same running sum of increments, so one
        ``level`` accumulator stands in for all of them and is stamped
        onto flows as they freeze.
        """
        members = self._members
        flow_linkset = self._flow_linkset
        flow_caps = self._flow_caps
        rates = self.rates

        remaining: Dict[Link, float] = {}
        n_active: Dict[Link, int] = {}
        for link in comp_links:
            remaining[link] = link.capacity_mbps
            n = 0
            for fid in members[link]:
                if fid in active:
                    n += 1
            n_active[link] = n

        # Lazy min-heap of finite caps; stale entries (flows frozen by a
        # link) are discarded at pop time.
        cap_heap: List[Tuple[float, int, Hashable]] = [
            (flow_caps[fid], idx, fid)
            for idx, fid in enumerate(comp_flows)
            if fid in active and flow_caps[fid] != _INF
        ]
        _heapify(cap_heap)

        level = 0.0
        while active:
            while cap_heap and cap_heap[0][2] not in active:
                _heappop(cap_heap)
            increment = _INF
            for link, cap_left in remaining.items():
                n = n_active[link]
                if n:
                    slack = cap_left / n
                    if slack < increment:
                        increment = slack
            if cap_heap:
                cap_slack = cap_heap[0][0] - level
                if cap_slack < increment:
                    increment = cap_slack

            if math.isinf(increment):
                # No link constrains the remaining flows and they are
                # uncapped; this cannot happen for flows crossing links.
                for fid in active:
                    if not flow_linkset[fid]:
                        raise ValueError(
                            f"flow {fid!r} has no links and no cap; "
                            "rate unbounded"
                        )
                raise AssertionError("unbounded increment with linked flows")

            level = level + increment
            for link in remaining:
                n = n_active[link]
                if n:
                    remaining[link] -= increment * n

            # Freeze flows on saturated links and flows at their cap.
            frozen: Set[Hashable] = set()
            for link, cap_left in remaining.items():
                capacity = link.capacity_mbps
                if cap_left <= _EPS * (capacity if capacity > 1.0 else 1.0):
                    for fid in members[link]:
                        if fid in active:
                            frozen.add(fid)
            while cap_heap:
                cap, _, fid = cap_heap[0]
                if fid not in active:
                    _heappop(cap_heap)
                elif level >= cap - _EPS:
                    _heappop(cap_heap)
                    frozen.add(fid)
                else:
                    break
            if not frozen:
                # Numerical guard: freeze everything rather than loop
                # forever.
                frozen = set(active)
            for fid in frozen:
                rates[fid] = level
                for link in flow_linkset[fid]:
                    n_active[link] -= 1
            active -= frozen


def max_min_fair(
    flows: Iterable[FlowSpec],
) -> Dict[Hashable, float]:
    """Compute the max-min fair rate for every flow (batch oracle).

    Parameters
    ----------
    flows:
        Iterable of ``(flow_id, links, cap)`` where ``links`` is the
        sequence of links the flow crosses and ``cap`` an optional
        per-flow rate ceiling (MB/s); ``None`` means uncapped.

    Returns
    -------
    dict mapping flow_id -> allocated rate (MB/s).
    """
    state = FairShareState()
    for fid, links, cap in flows:
        state.add_flow(fid, links, cap)
    state.recompute_all()
    return dict(state.rates)


def verify_allocation(
    flows: Iterable[FlowSpec],
    alloc: Mapping[Hashable, float],
    tolerance: float = 1e-6,
) -> None:
    """Assert feasibility of an allocation (used by property tests).

    Checks every link's load does not exceed capacity and no flow exceeds
    its cap.  Raises AssertionError on violation.
    """
    load: Dict[Link, float] = {}
    for fid, links, cap in flows:
        rate = alloc[fid]
        assert rate >= -tolerance, f"flow {fid!r} has negative rate {rate}"
        if cap is not None:
            assert rate <= cap + tolerance, f"flow {fid!r} exceeds cap"
        for link in links:
            load[link] = load.get(link, 0.0) + rate
    for link, total in load.items():
        assert total <= link.capacity_mbps * (1 + tolerance) + tolerance, (
            f"link {link.name} overloaded: {total} > {link.capacity_mbps}"
        )
