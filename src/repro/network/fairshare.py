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

Rates live in one float array: each registered flow owns a slot, given
in registration order and kept dense by swap-remove, and the solver
writes a re-rated flow's rate straight into it.  The transfer engine
registers flows in the order it gives them its own slots, so it reads
the array directly; :attr:`FairShareState.rates` is the same data as a
``{flow id: rate}`` dict, built on request for the batch oracle and the
tests.

Each link also keeps its members by shape, updated by
:meth:`~FairShareState.add_flow`, :meth:`~FairShareState.remove_flow`
and :meth:`~FairShareState.set_cap`: ``_multi`` holds the members
crossing more than one distinct link, and ``_caps`` counts the finite
caps of the single-link members as a ``{cap: count}`` multiset.  A link
with no multi-link members is a component on its own — exactly its
membership — so :meth:`FairShareState._solve_link` solves it with no
graph traversal: uncapped members share the capacity equally in one
pass; with caps, the multiset gives the active count (cap > ``_EPS``;
the rest are inert and get 0.0) and the smallest and largest cap without
a pass over the members, and one stamping pass writes the equal share or
the common cap when a single iteration decides every member, before
falling back to progressive filling.  Only components spanning several
links are collected by breadth-first search, over their multi-link
members alone, enqueueing each newly reached link's unseen ones as one
set difference.  The fill counts single-link members rather than
visiting them while the water level rises.  Each path's deduplicated
link tuple is computed once per distinct path.

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

import numpy as np

from repro.network.links import Link

FlowSpec = Tuple[Hashable, Sequence[Link], Optional[float]]

#: Rates below this are treated as zero when checking saturation.
_EPS = 1e-12

_INF = math.inf

#: Initial length of the rate slot array (doubled when full).
_INITIAL_SLOTS = 64


class FairShareState:
    """Incremental max-min fair allocator over a mutable flow set.

    Flow ids may be any hashable (the transfer engine uses
    :class:`~repro.network.flows.Flow` objects directly).  Rates live
    in :attr:`rate_array`, one slot per flow, and are refreshed by
    :meth:`recompute`, which returns the flows whose component was
    re-solved; :attr:`rates` maps flow ids to them.
    """

    __slots__ = (
        "rate_array", "rate_view", "inert_count", "_slot", "_fids",
        "_members", "_flow_links", "_flow_linkset", "_flow_caps", "_multi",
        "_caps", "_dirty_flows", "_dirty_links", "_linksets",
    )

    def __init__(self) -> None:
        #: slot -> allocated rate (MB/s), valid after recompute().  Each
        #: registered flow owns a slot, kept dense by swap-remove: flows
        #: take slots in registration order, and a removal moves the
        #: last flow into the freed slot.
        self.rate_array = np.zeros(_INITIAL_SLOTS)
        self.rate_view = memoryview(self.rate_array)
        #: Registered flows with a cap <= ``_EPS``.  Exactly these get
        #: rate 0.0 from recompute(); every other flow gets a positive
        #: rate.
        self.inert_count = 0
        #: flow id -> slot, and slot -> flow id.
        self._slot: Dict[Hashable, int] = {}
        self._fids: List[Hashable] = []
        #: link -> set of member flow ids (persistent membership).
        self._members: Dict[Link, Set[Hashable]] = {}
        #: flow id -> links exactly as registered (equality semantics).
        self._flow_links: Dict[Hashable, Tuple[Link, ...]] = {}
        #: flow id -> links deduplicated in order (traversal/counting).
        self._flow_linkset: Dict[Hashable, Tuple[Link, ...]] = {}
        #: flow id -> cap as float (math.inf = uncapped).
        self._flow_caps: Dict[Hashable, float] = {}
        #: link -> its members that cross several distinct links, for
        #: links with at least one.  A link without an entry is a
        #: component on its own (_solve_link).
        self._multi: Dict[Link, Set[Hashable]] = {}
        #: link -> {cap: count} over its single-link members with a
        #: finite cap, for links with at least one.
        self._caps: Dict[Link, Dict[float, int]] = {}
        self._dirty_flows: Set[Hashable] = set()
        self._dirty_links: Set[Link] = set()
        #: path tuple -> its links deduplicated in order.  Paths repeat
        #: (a host pair's route, a background source's links), so each
        #: distinct path is deduplicated once.
        self._linksets: Dict[Tuple[Link, ...], Tuple[Link, ...]] = {}

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
        slot = len(self._fids)
        if slot == len(self.rate_array):
            self._grow()
        self._fids.append(fid)
        self._slot[fid] = slot
        self.rate_view[slot] = 0.0
        self._flow_links[fid] = links
        linkset = self._linksets.get(links)
        if linkset is None:
            linkset = self._linksets[links] = tuple(dict.fromkeys(links))
        self._flow_linkset[fid] = linkset
        self._flow_caps[fid] = cap_f
        if cap_f <= _EPS:
            self.inert_count += 1
        members = self._members
        for link in linkset:
            group = members.get(link)
            if group is None:
                members[link] = {fid}
            else:
                group.add(fid)
        if len(linkset) > 1:
            multis = self._multi
            for link in linkset:
                crossing = multis.get(link)
                if crossing is None:
                    multis[link] = {fid}
                else:
                    crossing.add(fid)
        elif linkset and cap_f != _INF:
            _count(self._caps, linkset[0], cap_f)
        self._dirty_flows.add(fid)

    def remove_flow(self, fid: Hashable) -> None:
        """Drop a flow; the links it crossed are re-solved on recompute()."""
        linkset = self._flow_linkset.pop(fid)
        del self._flow_links[fid]
        cap_f = self._flow_caps.pop(fid)
        if cap_f <= _EPS:
            self.inert_count -= 1
        slot = self._slot.pop(fid)
        fids = self._fids
        last = fids.pop()
        if slot != len(fids):
            fids[slot] = last
            self._slot[last] = slot
            self.rate_view[slot] = self.rate_view[len(fids)]
        self._dirty_flows.discard(fid)
        if len(linkset) > 1:
            multis = self._multi
            for link in linkset:
                crossing = multis[link]
                if len(crossing) > 1:
                    crossing.remove(fid)
                else:
                    del multis[link]
        elif linkset and cap_f != _INF:
            _uncount(self._caps, linkset[0], cap_f)
        members = self._members
        dirty_links = self._dirty_links
        for link in linkset:
            group = members[link]
            if len(group) > 1:
                group.remove(fid)
                dirty_links.add(link)
            else:
                del members[link]
                dirty_links.discard(link)

    def _grow(self) -> None:
        self.rate_array = np.resize(self.rate_array, 2 * len(self.rate_array))
        self.rate_view = memoryview(self.rate_array)

    def set_cap(self, fid: Hashable, cap: Optional[float]) -> None:
        """Update a flow's cap; no-op when the value is bit-unchanged."""
        cap_f = _INF if cap is None else float(cap)
        if cap_f < 0:
            raise ValueError(f"flow {fid!r}: negative cap")
        old = self._flow_caps[fid]
        if cap_f != old:
            self._flow_caps[fid] = cap_f
            self._dirty_flows.add(fid)
            self.inert_count += (cap_f <= _EPS) - (old <= _EPS)
            linkset = self._flow_linkset[fid]
            if len(linkset) == 1:
                if old != _INF:
                    _uncount(self._caps, linkset[0], old)
                if cap_f != _INF:
                    _count(self._caps, linkset[0], cap_f)

    def members(self, link: Link) -> Iterable[Hashable]:
        """The flows registered across ``link`` (empty when none)."""
        return self._members.get(link, ())

    # -- solving -----------------------------------------------------------
    @property
    def rates(self) -> Dict[Hashable, float]:
        """Flow id -> allocated rate (MB/s), as a new dict; valid after
        :meth:`recompute`."""
        view = self.rate_view
        return {fid: view[slot] for fid, slot in self._slot.items()}

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
            # flow is covered iff its first link is.  A linkless flow is
            # a component on its own.
            if linkset:
                if linkset[0] not in seen_links:
                    self._solve_component(
                        linkset[0], seen_flows, seen_links, affected
                    )
            else:
                self._solve_linkless(fid)
                affected.append(fid)
        members = self._members
        for link in self._dirty_links:
            if link not in seen_links and link in members:
                self._solve_component(link, seen_flows, seen_links, affected)
        self._dirty_flows.clear()
        self._dirty_links.clear()
        return affected

    def recompute_all(self) -> None:
        """Solve every component from scratch (the batch entry point)."""
        self._dirty_flows.update(self._flow_links)
        self.recompute()

    # -- the component solver ---------------------------------------------
    def _solve_linkless(self, fid: Hashable) -> None:
        """A flow crossing no link runs at its cap (0.0 when inert)."""
        cap = self._flow_caps[fid]
        if cap == _INF:
            raise ValueError(
                f"flow {fid!r} has no links and no cap; rate unbounded"
            )
        self.rate_view[self._slot[fid]] = cap if cap > _EPS else 0.0

    def _solve_component(
        self,
        seed: Link,
        seen_flows: Set[Hashable],
        seen_links: Set[Link],
        affected: List[Hashable],
    ) -> None:
        """Collect the connected component containing ``seed`` and solve it."""
        seen_links.add(seed)
        multis = self._multi
        if seed not in multis:
            self._solve_link(seed, affected)
            return

        # Breadth-first over links, through their multi-link members: a
        # single-link member adds no link to the component.  A reached
        # link enqueues its unseen multi-link members as one set
        # difference; a link crossed only by the flow it was reached
        # from (a host NIC, say) has none.  Each link gets its fill row
        # (see _fill) as it is reached.
        members = self._members
        flow_linkset = self._flow_linkset
        comp_links: List[Link] = [seed]
        rows: Dict[Link, list] = {}
        single_rows: List[list] = []
        multi_flows: List[Hashable] = []
        i = 0
        while i < len(comp_links):
            link = comp_links[i]
            crossing = multis[link]
            group = members[link]
            capacity = link.capacity_mbps
            singles = len(group) - len(crossing)
            rows[link] = row = [
                capacity, len(group),
                _EPS * (capacity if capacity > 1.0 else 1.0),
                singles, None, _INF, link,
            ]
            if singles:
                single_rows.append(row)
                affected.extend(group - crossing)
            if len(crossing) > 1 or not i:
                new = crossing - seen_flows
                if new:
                    seen_flows.update(new)
                    multi_flows.extend(new)
                    for fid in new:
                        for other in flow_linkset[fid]:
                            if other not in seen_links:
                                seen_links.add(other)
                                comp_links.append(other)
            i += 1
        affected.extend(multi_flows)
        self._fill(rows, single_rows, multi_flows)

    def _solve_link(self, link: Link, affected: List[Hashable]) -> None:
        """Solve a component that is exactly ``link``'s membership.

        Computes what progressive filling would for one link, taking
        the one-iteration cases without building any set: the link
        saturates at the equal share (when that is no larger than every
        cap), or every active member freezes at one common cap.  The
        link's kept ``{cap: count}`` (none: every member uncapped) gives
        the active count and the smallest and largest active cap; one
        stamping pass writes the result.  Anything else goes to
        :meth:`_fill`.
        """
        group = self._members[link]
        affected.extend(group)
        rate_view = self.rate_view
        slot = self._slot
        size = len(group)
        capacity = link.capacity_mbps
        tolerance = _EPS * (capacity if capacity > 1.0 else 1.0)
        n = size
        min_cap = max_cap = _INF
        caps = self._caps.get(link)
        if caps is not None:
            capped = 0
            max_cap = 0.0
            for cap, count in caps.items():
                capped += count
                if cap > _EPS:
                    if cap < min_cap:
                        min_cap = cap
                    if cap > max_cap:
                        max_cap = cap
                else:
                    n -= count
            if capped < size:
                max_cap = _INF  # uncapped members are active too
        share = capacity / n if n else 0.0
        # One progressive-filling iteration decides every member when
        # the link saturates at the equal share (or ties with the
        # smallest cap; the exactness condition is guarded, not
        # assumed), or when every active flow cap-freezes at the same
        # level (0.0 + min_cap == min_cap exactly).
        if n and share > min_cap:
            decided = min_cap == max_cap
            share = min_cap
        else:
            decided = not n or capacity - share * n <= tolerance
        if decided:
            if n == size:
                for fid in group:
                    rate_view[slot[fid]] = share
            else:
                # Inert members (cap <= _EPS) can take no rate.
                flow_caps = self._flow_caps
                for fid in group:
                    rate_view[slot[fid]] = (
                        share if flow_caps[fid] > _EPS else 0.0
                    )
            return
        row = [capacity, size, tolerance, size, None, _INF, link]
        self._fill({link: row}, [row], ())

    def _fill(
        self,
        rows: Dict[Link, list],
        single_rows: List[list],
        multi_flows: Sequence[Hashable],
    ) -> None:
        """Progressive filling of a component via a shared water level.

        ``rows`` holds one row per link of the component: ``[capacity
        left, active members, saturation tolerance, active single-link
        members, {cap: how many of those hold it} or None, level at
        saturation, link]``, filled in here past the member counts.
        ``single_rows`` are the rows of links with single-link members,
        ``multi_flows`` the members crossing several links.

        Replicates the classic per-flow loop bit-for-bit: every active
        flow's allocation is the same running sum of increments, so one
        ``level`` accumulator stands in for all of them.  Single-link
        members are counted, never visited, while the level rises: a
        link that saturates freezes its remaining ones, and a cap that
        binds freezes every flow holding it.  ``level`` only grows, so a
        single-link member ends at the smaller of the levels at which
        its link and its cap froze, stamped at the end.  Multi-link
        members freeze as sets and are stamped as they freeze.  Inert
        flows (cap <= ``_EPS``) get 0.0.
        """
        members = self._members
        multis = self._multi
        caps_by_link = self._caps
        flow_caps = self._flow_caps
        flow_linkset = self._flow_linkset
        rate_view = self.rate_view
        slot = self._slot

        # cap -> active flows holding it, over the component.
        holders: Dict[float, int] = {}
        active = len(multi_flows)  # active flows, less the inert below
        capped_rows = []
        for row in single_rows:
            caps = caps_by_link.get(row[6])
            if caps:
                active_caps: Dict[float, int] = {}
                for cap, count in caps.items():
                    if cap > _EPS:
                        active_caps[cap] = count
                        holders[cap] = holders.get(cap, 0) + count
                    else:
                        row[1] -= count  # inert
                        row[3] -= count
                if active_caps:
                    row[4] = active_caps
                    capped_rows.append(row)
            active += row[3]
        # The active multi-link members, and those holding each cap.
        active_multi = set(multi_flows)
        multi_caps: Dict[float, Set[Hashable]] = {}
        for fid in multi_flows:
            cap = flow_caps[fid]
            if cap == _INF:
                continue
            if cap > _EPS:
                holding = multi_caps.get(cap)
                if holding is None:
                    multi_caps[cap] = {fid}
                else:
                    holding.add(fid)
            else:
                rate_view[slot[fid]] = 0.0
                active_multi.remove(fid)
                active -= 1
                for link in flow_linkset[fid]:
                    rows[link][1] -= 1
        for cap, holding in multi_caps.items():
            holders[cap] = holders.get(cap, 0) + len(holding)
        # A link without active members constrains nothing.
        live = [row for row in rows.values() if row[1]]
        cap_order = sorted(holders)
        n_caps = len(cap_order)
        # cap -> level at which its holders froze.
        cap_level: Dict[float, float] = {}

        # cap_order[g:] are the caps that may still hold active flows; a
        # cap whose holders all froze on links is skipped lazily.
        g = 0
        level = 0.0
        while active:
            while g < n_caps and not holders[cap_order[g]]:
                g += 1
            increment = _INF
            for row in live:
                slack = row[0] / row[1]
                if slack < increment:
                    increment = slack
            # Whether cap g sets this increment: it then freezes
            # whatever ``level`` rounds to (see below).
            cap_bound = False
            if g < n_caps:
                cap_slack = cap_order[g] - level
                if cap_slack <= increment:
                    increment = cap_slack
                    cap_bound = True

            level = level + increment
            # Drain the links and find the saturated ones, then the caps
            # that bind.  Cap g still has holders here (the link-frozen
            # flows are not subtracted yet), so a cap-bound increment
            # freezes it first.  The test alone could miss it: above
            # ~4096 MB/s ``level + (cap - level)`` can round one ulp
            # below the cap while ``cap - _EPS`` rounds back to the cap.
            saturated = []
            for row in live:
                left = row[0] - increment * row[1]
                row[0] = left
                if left <= row[2]:
                    saturated.append(row)
            frozen_caps = []
            while g < n_caps:
                cap = cap_order[g]
                if not holders[cap]:
                    g += 1
                elif cap_bound or level >= cap - _EPS:
                    frozen_caps.append(cap)
                    g += 1
                    cap_bound = False
                else:
                    break
            if not saturated and not frozen_caps:
                # Numerical guard: freeze everything rather than loop
                # forever.  Every increment is set by a link (frozen
                # within its tolerance) or a cap (frozen above), so
                # this is not expected to run.
                saturated = live

            # Freeze the flows on the saturated links and those holding
            # a binding cap: the multi-link ones as a set, the
            # single-link ones by count.
            frozen: Set[Hashable] = set()
            if active_multi:
                for row in saturated:
                    crossing = multis.get(row[6])
                    if crossing:
                        frozen |= crossing & active_multi
                for cap in frozen_caps:
                    holding = multi_caps.get(cap)
                    if holding:
                        frozen |= holding & active_multi
                active_multi -= frozen
            active -= len(frozen)
            for row in saturated:
                row[5] = level
                active -= row[3]
                row[1] -= row[3]
                row[3] = 0
                caps = row[4]
                if caps:
                    for cap, count in caps.items():
                        holders[cap] -= count
                    row[4] = None
            for cap in frozen_caps:
                cap_level[cap] = level
                for row in capped_rows:
                    caps = row[4]
                    if caps:
                        count = caps.pop(cap, 0)
                        if count:
                            active -= count
                            row[1] -= count
                            row[3] -= count
            for fid in frozen:
                rate_view[slot[fid]] = level
            if not active:
                break
            for fid in frozen:
                for link in flow_linkset[fid]:
                    rows[link][1] -= 1
                cap = flow_caps[fid]
                if cap != _INF:
                    holders[cap] -= 1
            live = [row for row in live if row[1]]

        # Stamp the single-link members link by link.
        for row in single_rows:
            link = row[6]
            group = members[link]
            crossing = multis.get(link)
            if crossing:
                group = group - crossing
            link_level = row[5]
            # Uniform unless a member is inert or froze at its cap
            # before its link saturated.
            uniform = True
            caps = caps_by_link.get(link)
            if caps is not None:
                for cap in caps:
                    if cap <= _EPS or cap_level.get(cap, _INF) < link_level:
                        uniform = False
                        break
            if uniform:
                for fid in group:
                    rate_view[slot[fid]] = link_level
            else:
                for fid in group:
                    cap = flow_caps[fid]
                    if cap <= _EPS:
                        rate_view[slot[fid]] = 0.0
                    else:
                        frozen_at = cap_level.get(cap, _INF)
                        rate_view[slot[fid]] = (
                            frozen_at if frozen_at < link_level
                            else link_level
                        )


def _count(caps_by_link: Dict[Link, Dict[float, int]], link: Link,
           cap: float) -> None:
    """Add one ``cap`` to ``link``'s ``{cap: count}``."""
    caps = caps_by_link.get(link)
    if caps is None:
        caps_by_link[link] = {cap: 1}
    else:
        caps[cap] = caps.get(cap, 0) + 1


def _uncount(caps_by_link: Dict[Link, Dict[float, int]], link: Link,
             cap: float) -> None:
    """Take one ``cap`` out of ``link``'s ``{cap: count}``."""
    caps = caps_by_link[link]
    count = caps[cap] - 1
    if count:
        caps[cap] = count
    elif len(caps) > 1:
        del caps[cap]
    else:
        del caps_by_link[link]


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
    return state.rates


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
