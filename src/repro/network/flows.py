"""Event-driven flow-level transfer engine.

:class:`FlowNetwork` tracks the set of active flows and, whenever the set
changes, recomputes the max-min fair allocation and the next completion
instant.  Each flow's completion event fires exactly when its bytes are
drained at the prevailing (piecewise-constant) rates.

The allocation runs on an incremental
:class:`~repro.network.fairshare.FairShareState`: per-link flow
membership persists across churn, and only the connected component of
links/flows touched by an arrival, completion, abort, or cap change is
re-solved — untouched components keep their rates.  Per-link counts of
multi-link and capped members let it solve a link that no multi-link
flow crosses straight from its membership, without graph traversal.
Completion timers use the kernel's cancellable events: a superseded
timer is :meth:`~repro.simcore.Event.cancel`-led and the scheduler
discards it at pop time, instead of the timer firing as a
stale-generation no-op.  Both are bit-neutral: rates and completion
instants are identical to the batch engine they replaced.

Per-flow ceilings are link data: :meth:`FlowNetwork.set_flow_ceiling`
caps every flow crossing a link.  A flow's effective cap is computed
when it arrives, and again only when a ceiling on one of its links
changes — the next reschedule walks the allocator's membership of the
changed links, never the whole flow set.

Flow state is struct-of-arrays: each active flow owns a slot in two
numpy arrays, kept dense by swap-remove — its residual megabytes here,
and its allocated rate in the allocator's ``rate_array`` (flows are
registered with the allocator in the order they take their slots here,
and both sides swap-remove, so the slots coincide).  The allocator
writes a re-rated flow's rate straight into its slot; nothing copies
rates per flow.  The passes every event makes over *all* active flows
are a few ufunc calls instead of Python loops: the drain of the elapsed
interval, the next completion — one unmasked ``remaining / rate``
divide and an ``argmin`` when no flow is starved (the smallest rate is
positive), the divide masked to the moving flows otherwise — and, when
a timer fires, the finish scan (one compare and ``nonzero``).  The
masked fallback is needed because a starved flow's ``remaining / 0`` is
``nan`` or ``-inf`` once its residual is zero or below (and warns).
Each pass performs the same IEEE operation per flow as the scalar loop
it replaced (the drain is a separate multiply and subtract, never a
fused multiply-add; a minimum is exact), so residuals, timers and
completion instants are bit-identical to it
(``tests/network/test_flows.py`` replays churn against the loop, and
the golden-output tests pin the figures).
"""

from __future__ import annotations

import itertools
import math
from operator import attrgetter
from typing import Dict, List, Optional, Sequence, Set

import numpy as np

from repro.network.fairshare import FairShareState
from repro.network.links import Link
from repro.simcore import Environment, Event

#: Residual megabytes below which a flow counts as complete.
_DONE_EPS = 1e-9

#: Initial length of the per-slot flow arrays (doubled when full).
_INITIAL_SLOTS = 64

_flow_id = attrgetter("id")


class Flow:
    """One in-flight transfer across a path of links.

    ``remaining_mb`` and ``rate_mbps`` are read from the owning
    network's arrays while the flow is active; a completed or aborted
    flow keeps its final values.
    """

    _ids = itertools.count()

    __slots__ = (
        "id", "links", "cap", "size_mb", "start_time", "done", "label",
        "_net", "_slot", "_remaining", "_rate",
    )

    def __init__(
        self,
        env: Environment,
        links: Sequence[Link],
        size_mb: float,
        cap: Optional[float],
        label: str = "",
    ) -> None:
        self.id = next(Flow._ids)
        self.links = tuple(links)
        self.cap = cap
        self.size_mb = float(size_mb)
        self.start_time = env.now
        self.done: Event = env.event()
        self.label = label
        #: The network whose arrays hold this flow's state at index
        #: ``_slot`` while it is active; ``None`` otherwise, when
        #: ``_remaining``/``_rate`` hold the values.
        self._net: Optional[FlowNetwork] = None
        self._slot = -1
        self._remaining = self.size_mb
        self._rate = 0.0

    @property
    def remaining_mb(self) -> float:
        net = self._net
        return self._remaining if net is None else net._rem_view[self._slot]

    @property
    def rate_mbps(self) -> float:
        net = self._net
        return self._rate if net is None else net._state.rate_view[self._slot]

    def __repr__(self) -> str:
        return (
            f"<Flow #{self.id} {self.label or 'transfer'}"
            f" {self.remaining_mb:.3g}/{self.size_mb:.3g} MB"
            f" @ {self.rate_mbps:.3g} MB/s>"
        )


class FlowNetwork:
    """Shared-bandwidth transfer scheduler over a link graph.

    Usage::

        net = FlowNetwork(env)
        flow = net.transfer([nic, uplink, server_nic], size_mb=1000)
        elapsed_info = yield flow.done   # fires at completion

    A link may carry a *flow ceiling* (:meth:`set_flow_ceiling`): every
    flow crossing it is capped there, and a flow's effective cap is the
    minimum of its own ``cap`` and the ceilings on its links.  Each
    link has one ceiling owner: the blob service sets its front-end
    links' ceilings from the connection-count curve, and the domain
    fault injector floors the rack and NIC links registered in a failure
    domain during an outage.  A new ceiling takes effect at the next
    reschedule — a :meth:`transfer`, :meth:`abort`, :meth:`poke` or a
    completion — so an owner calls :meth:`poke` after changing one.
    """

    def __init__(self, env: Environment) -> None:
        self.env = env
        self.flows: Set[Flow] = set()
        self._state = FairShareState()
        self._last_update = env.now
        self._timer: Optional[Event] = None
        self.completed_count = 0
        #: link -> ceiling (MB/s) on every flow crossing it.
        self._ceilings: Dict[Link, float] = {}
        #: Links whose ceiling changed since the last reschedule; only
        #: their members' effective caps are recomputed.
        self._changed_ceilings: Set[Link] = set()
        #: slot -> active flow; slots ``[0, len(_slots))`` of ``_rem``
        #: and of the allocator's ``rate_array`` are live.  Flows are
        #: registered with the allocator and attached here in the same
        #: order, and both swap-remove, so a flow's slot is the same in
        #: both.
        self._slots: List[Flow] = []
        self._rem = np.empty(_INITIAL_SLOTS)
        self._scratch = np.empty(_INITIAL_SLOTS)
        self._rem_view = memoryview(self._rem)
        self._scratch_view = memoryview(self._scratch)

    # -- public API --------------------------------------------------------
    def transfer(
        self,
        links: Sequence[Link],
        size_mb: float,
        cap: Optional[float] = None,
        label: str = "",
    ) -> Flow:
        """Begin a transfer; returns the Flow whose ``done`` event fires
        with the flow itself when the last byte arrives."""
        if size_mb <= 0:
            raise ValueError(f"size_mb must be > 0, got {size_mb}")
        if not links and cap is None:
            raise ValueError("flow needs at least one link or a cap")
        self._advance_progress()
        flow = Flow(self.env, links, size_mb, cap, label)
        # The allocator gives the flow its next slot, at rate 0 until
        # re-rated; the residual takes the same slot here.
        self._state.add_flow(flow, flow.links, self._effective_cap(flow))
        slots = self._slots
        slot = len(slots)
        if slot == len(self._rem):
            self._grow()
        slots.append(flow)
        self.flows.add(flow)
        flow._net = self
        flow._slot = slot
        self._rem_view[slot] = flow._remaining
        self._reschedule()
        return flow

    def abort(self, flow: Flow) -> None:
        """Cancel an in-flight transfer; its ``done`` event never fires."""
        if flow._net is self:
            self._advance_progress()
            self._detach(flow)
            self._reschedule()

    @property
    def active_count(self) -> int:
        return len(self._slots)

    def set_flow_ceiling(self, link: Link, mbps: Optional[float]) -> None:
        """Cap every flow crossing ``link`` at ``mbps``; ``None`` clears
        the ceiling.  Schedules nothing: the value applies at the next
        reschedule (see :meth:`poke`)."""
        if mbps is None:
            self._ceilings.pop(link, None)
        else:
            self._ceilings[link] = mbps
        self._changed_ceilings.add(link)

    def poke(self) -> None:
        """Force a rate recomputation (call after a ceiling changes)."""
        if not self._slots:
            return
        self._advance_progress()
        self._reschedule()

    # -- slot bookkeeping ----------------------------------------------------
    def _detach(self, flow: Flow) -> None:
        """Unregister a flow and free its slot (swap-remove), keeping its
        final values."""
        slot = flow._slot
        rem_view = self._rem_view
        flow._remaining = rem_view[slot]
        flow._rate = self._state.rate_view[slot]
        self._state.remove_flow(flow)
        flow._net = None
        flow._slot = -1
        self.flows.discard(flow)
        last = self._slots.pop()
        if last is not flow:
            self._slots[slot] = last
            last._slot = slot
            rem_view[slot] = rem_view[len(self._slots)]

    def _grow(self) -> None:
        size = 2 * len(self._rem)
        self._rem = np.resize(self._rem, size)
        self._scratch = np.empty(size)
        self._rem_view = memoryview(self._rem)
        self._scratch_view = memoryview(self._scratch)

    # -- internals -----------------------------------------------------------
    def _advance_progress(self) -> None:
        """Drain bytes for time elapsed since the last recomputation."""
        now = self.env.now
        elapsed = now - self._last_update
        if elapsed > 0:
            # ``rem -= rate * elapsed`` per flow: two separately rounded
            # operations, exactly as the scalar expression evaluates.
            n = len(self._slots)
            scratch = self._scratch[:n]
            rem = self._rem[:n]
            np.multiply(self._state.rate_array[:n], elapsed, out=scratch)
            np.subtract(rem, scratch, out=rem)
        self._last_update = now

    def _effective_cap(self, flow: Flow) -> Optional[float]:
        """The smaller of the flow's own cap and its links' ceilings."""
        cap = flow.cap
        ceilings = self._ceilings
        if ceilings:
            for link in flow.links:
                ceiling = ceilings.get(link)
                if ceiling is not None and (cap is None or ceiling < cap):
                    cap = ceiling
        return cap

    def _reschedule(self) -> None:
        """Recompute affected rates and arm a timer for the next completion."""
        timer = self._timer
        if timer is not None:
            if not timer._processed:
                timer.cancel()
            self._timer = None
        state = self._state
        changed = self._changed_ceilings
        if changed:
            for link in changed:
                for flow in state.members(link):
                    state.set_cap(flow, self._effective_cap(flow))
            changed.clear()
        n = len(self._slots)
        if not n:
            return
        # The allocator writes the re-rated flows' rates into the slots.
        state.recompute()
        # The earliest ``remaining / rate`` over flows with a positive
        # rate; starved flows never finish.  With no starved flow (the
        # smallest rate is positive) one unmasked divide covers every
        # slot; otherwise the division is masked to the moving flows.
        rate = state.rate_array[:n]
        projected = self._scratch[:n]
        if state.rate_view[rate.argmin()] > 0.0:
            np.divide(self._rem[:n], rate, out=projected)
            next_done = self._scratch_view[projected.argmin()]
        else:
            moving = rate > 0.0
            np.divide(self._rem[:n], rate, out=projected, where=moving)
            next_done = float(
                np.minimum.reduce(projected, where=moving, initial=math.inf)
            )
        if math.isinf(next_done):
            # Every flow starved (all rates zero): nothing to schedule;
            # a future transfer()/abort() will recompute.
            return
        timer = self.env.timeout(max(next_done, 0.0))
        timer._cb1 = self._on_timer  # fresh private event: set directly
        self._timer = timer

    def _on_timer(self, _timer: Event) -> None:
        self._advance_progress()
        slots = self._slots
        n = len(slots)
        finished = [
            slots[i]
            for i in (self._rem[:n] <= _DONE_EPS).nonzero()[0].tolist()
        ]
        # Sort by flow id: slot order depends on the churn history, and
        # the succeed() order below assigns event sequence numbers when
        # several flows finish simultaneously.
        finished.sort(key=_flow_id)
        for flow in finished:
            self._detach(flow)
            flow._remaining = 0.0
            self.completed_count += 1
            flow.done.succeed(flow)
        self._reschedule()

    def snapshot(self) -> Dict[str, float]:
        """Current rate by flow label (diagnostics)."""
        return {f"{f.label}#{f.id}": f.rate_mbps for f in self._slots}
