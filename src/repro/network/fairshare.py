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

Each link also counts its members by shape: ``_multi`` counts flows
crossing more than one distinct link, ``_capped`` single-link flows with
a finite cap.  A link with no multi-link members is a component on its
own — exactly its membership — so :meth:`FairShareState._solve_link`
solves it straight from that membership, with no graph traversal:
uncapped members share the capacity equally in one pass; with caps, one
counting pass finds the active members (cap > ``_EPS``; the rest are
inert and get 0.0) and their smallest and largest cap, and one stamping
pass writes the equal share or the common cap when a single iteration
decides every member, before falling back to progressive filling.  Only
components spanning several links are collected by breadth-first
search, which enqueues each newly reached link's unseen members as one
set difference; the fill groups capped flows by cap value and keeps
only the links that still have active members.  Each path's
deduplicated link tuple is computed once per distinct path.

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
        "rate_array", "rate_view", "_slot", "_fids", "_members",
        "_flow_links", "_flow_linkset", "_flow_caps", "_multi", "_capped",
        "_dirty_flows", "_dirty_links", "_linksets",
    )

    def __init__(self) -> None:
        #: slot -> allocated rate (MB/s), valid after recompute().  Each
        #: registered flow owns a slot, kept dense by swap-remove: flows
        #: take slots in registration order, and a removal moves the
        #: last flow into the freed slot.
        self.rate_array = np.zeros(_INITIAL_SLOTS)
        self.rate_view = memoryview(self.rate_array)
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
        #: link -> count of members crossing several distinct links.
        #: Zero means the link is a component on its own (_solve_link).
        self._multi: Dict[Link, int] = {}
        #: link -> count of single-link members with a finite cap.  Zero
        #: as well means every member is uncapped — the dominant shape
        #: under churn — and one pass stamps the equal share.
        self._capped: Dict[Link, int] = {}
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
        slot = self._slot.pop(fid)
        fids = self._fids
        last = fids.pop()
        if slot != len(fids):
            fids[slot] = last
            self._slot[last] = slot
            self.rate_view[slot] = self.rate_view[len(fids)]
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
            linkset = self._flow_linkset[fid]
            if len(linkset) == 1 and (cap_f == _INF) != (old == _INF):
                self._capped[linkset[0]] += -1 if cap_f == _INF else 1

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
        comp_flows: List[Hashable] = [seed]
        seen_flows.add(seed)
        comp_links: List[Link] = []
        # BFS over the flow/link bipartite graph; comp_flows doubles as
        # the traversal queue.  A newly reached link enqueues its unseen
        # members as one set difference; a link whose only member is the
        # flow it was reached from (a host NIC, say) has none.
        i = 0
        while i < len(comp_flows):
            for link in flow_linkset[comp_flows[i]]:
                if link not in seen_links:
                    seen_links.add(link)
                    comp_links.append(link)
                    group = members[link]
                    if len(group) > 1:
                        new = group - seen_flows
                        if new:
                            seen_flows.update(new)
                            comp_flows.extend(new)
            i += 1
        affected.extend(comp_flows)
        # A traversed component spans several links (one-link components
        # went to _solve_link above) or is a lone linkless flow.
        self._fill_component(comp_flows, comp_links)

    def _solve_link(self, link: Link, affected: List[Hashable]) -> None:
        """Solve a component that is exactly ``link``'s membership.

        Computes what progressive filling would for one link, taking
        the one-iteration cases without building any set: the link
        saturates at the equal share (when that is no larger than every
        cap), or every active member freezes at one common cap.  One
        counting pass over the members finds the active count and the
        smallest and largest active cap; one stamping pass writes the
        result.
        """
        group = self._members[link]
        affected.extend(group)
        rate_view = self.rate_view
        slot = self._slot
        capacity = link.capacity_mbps
        tolerance = _EPS * (capacity if capacity > 1.0 else 1.0)
        if not self._capped[link]:
            # Every member uncapped: one iteration saturates the link
            # and the equal share is exact — stamp it in one pass.
            share = capacity / len(group)
            if capacity - share * len(group) <= tolerance:
                for fid in group:
                    rate_view[slot[fid]] = share
                return
            self._fill([link], set(group), (), [])
            return

        flow_caps = self._flow_caps
        n = 0
        min_cap = _INF
        max_cap = 0.0
        for fid in group:
            cap = flow_caps[fid]
            if cap > _EPS:
                n += 1
                if cap < min_cap:
                    min_cap = cap
                if cap > max_cap:
                    max_cap = cap
        if n:
            share = capacity / n
            if share <= min_cap:
                # One progressive-filling iteration: the link saturates
                # (or ties with the smallest cap) and freezes everyone.
                # Guard the exactness condition rather than assume it.
                if capacity - share * n > tolerance:
                    self._fill_component(group, [link])
                    return
            elif min_cap == max_cap:
                # One iteration again: every active flow cap-freezes at
                # the same level (0.0 + min_cap == min_cap exactly).
                share = min_cap
            else:
                self._fill_component(group, [link])
                return
        else:
            share = 0.0
        if n == len(group):
            for fid in group:
                rate_view[slot[fid]] = share
        else:
            # Inert members (cap <= _EPS) can take no rate at all.
            for fid in group:
                rate_view[slot[fid]] = share if flow_caps[fid] > _EPS else 0.0

    def _fill_component(
        self, comp_flows: Iterable[Hashable], comp_links: List[Link]
    ) -> None:
        """Fill a component whose members may carry caps.

        ``comp_flows`` is the whole membership of ``comp_links`` (or one
        linkless flow).  Inert flows (cap <= ``_EPS``) get 0.0; the rest
        fill, with the finite-capped ones grouped by cap.
        """
        flow_caps = self._flow_caps
        rate_view = self.rate_view
        slot = self._slot
        inert: List[Hashable] = []
        by_cap: Dict[float, List[Hashable]] = {}
        for fid in comp_flows:
            cap = flow_caps[fid]
            if cap > _EPS:
                if cap != _INF:
                    capped = by_cap.get(cap)
                    if capped is None:
                        by_cap[cap] = [fid]
                    else:
                        capped.append(fid)
            else:
                rate_view[slot[fid]] = 0.0
                inert.append(fid)
        active = set(comp_flows)
        if inert:
            active.difference_update(inert)
            if not active:
                return
        self._fill(comp_links, active, inert, sorted(by_cap.items()))

    def _fill(
        self,
        comp_links: List[Link],
        active: Set[Hashable],
        inert: Iterable[Hashable],
        cap_groups: List[Tuple[float, List[Hashable]]],
    ) -> None:
        """Progressive filling via a shared water level.

        Replicates the classic per-flow loop bit-for-bit: every active
        flow's allocation is the same running sum of increments, so one
        ``level`` accumulator stands in for all of them and is stamped
        onto flows as they freeze.  ``active`` and ``inert`` partition
        the members of ``comp_links``; ``cap_groups`` lists the active
        flows with a finite cap as ``(cap, flows)``, one entry per
        distinct cap, in increasing order.
        """
        members = self._members
        flow_linkset = self._flow_linkset
        rate_view = self.rate_view
        slot = self._slot

        # One row per link: [capacity left, active members, saturation
        # tolerance, members].  ``live`` keeps the rows that still have
        # active members; a link without any constrains nothing.
        rows: Dict[Link, list] = {}
        for link in comp_links:
            capacity = link.capacity_mbps
            group = members[link]
            rows[link] = [
                capacity, len(group),
                _EPS * (capacity if capacity > 1.0 else 1.0), group,
            ]
        for fid in inert:
            for link in flow_linkset[fid]:
                rows[link][1] -= 1
        live = [row for row in rows.values() if row[1]]

        # cap_groups[g:] are the groups that may still hold active flows;
        # a group whose flows all froze on links is skipped lazily.
        g = 0
        n_groups = len(cap_groups)

        level = 0.0
        while True:
            while g < n_groups and active.isdisjoint(cap_groups[g][1]):
                g += 1
            increment = _INF
            for row in live:
                slack = row[0] / row[1]
                if slack < increment:
                    increment = slack
            # Whether group g's cap sets this increment: it then
            # freezes whatever ``level`` rounds to (see below).
            cap_bound = False
            if g < n_groups:
                cap_slack = cap_groups[g][0] - level
                if cap_slack <= increment:
                    increment = cap_slack
                    cap_bound = True

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
            # Drain the links and freeze the flows on saturated ones,
            # then the flows at their cap.
            frozen: Set[Hashable] = set()
            for row in live:
                left = row[0] - increment * row[1]
                row[0] = left
                if left <= row[2]:
                    frozen |= row[3] & active
            # Group g is not disjoint here (``active`` still holds the
            # link-frozen flows), so a cap-bound increment freezes it
            # first.  The test alone could miss it: above ~4096 MB/s
            # ``level + (cap - level)`` can round one ulp below the cap
            # while ``cap - _EPS`` rounds back to the cap.
            while g < n_groups:
                cap, capped = cap_groups[g]
                if active.isdisjoint(capped):
                    g += 1
                elif cap_bound or level >= cap - _EPS:
                    frozen.update(active.intersection(capped))
                    g += 1
                    cap_bound = False
                else:
                    break
            if not frozen:
                # Numerical guard: freeze everything rather than loop
                # forever.  Every increment is set by a link (frozen
                # within its tolerance) or a cap group (frozen above),
                # so this is not expected to run.
                frozen = set(active)
            active -= frozen
            if not active:
                for fid in frozen:
                    rate_view[slot[fid]] = level
                return
            for fid in frozen:
                rate_view[slot[fid]] = level
                for link in flow_linkset[fid]:
                    rows[link][1] -= 1
            live = [row for row in live if row[1]]


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
