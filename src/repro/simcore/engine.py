"""The event loop at the heart of the simulation kernel.

:class:`Environment` owns simulated time and a binary heap of scheduled
events.  ``run(until=...)`` pops events in ``(time, sequence)`` order so
that simultaneous events fire deterministically in schedule order — a
property the reproduction's determinism tests rely on.

The run loop is deliberately inlined rather than delegating to
:meth:`Environment.step`: profiling the table benchmark puts ~85% of
wall-clock in this loop, and the per-event frame push plus repeated
attribute lookups of the delegating version cost ~15% of kernel
throughput.  ``step`` remains as the single-event public API.

Cancelled events (see :meth:`repro.simcore.events.Event.cancel`) are
discarded here when popped.  The clock still advances to their scheduled
time — as if a no-op event occupied the slot — so cancelling an event
never shifts when other events fire or where the clock lands at the end
of a run.  That guarantee keeps optimized runs bit-identical to the
pre-cancellation kernel.
"""

from __future__ import annotations

from functools import partial
from heapq import heappop as _heappop, heappush as _heappush
from typing import Any, Generator, Iterable, List, Optional, Tuple

from repro.simcore.events import AllOf, AnyOf, Event, Race, Timeout
from repro.simcore.process import Process

_INF = float("inf")


class StopSimulation(Exception):
    """Raised internally to end :meth:`Environment.run` at a sentinel event.

    Carries the fired stop event so ``run`` can verify the stop belongs
    to *this* call and not to a stale event left attached by an earlier
    aborted ``run``.
    """


class Environment:
    """A discrete-event simulation environment.

    Every pending event sits in one binary heap of ``(time, seq,
    event)`` entries; producers push straight into it and the run loop
    pops in ``(time, seq)`` order.

    Parameters
    ----------
    initial_time:
        Starting value of the simulation clock (seconds, by convention
        throughout this project).
    """

    def __init__(self, initial_time: float = 0.0) -> None:
        self._now = float(initial_time)
        self._queue: List[Tuple[float, int, Event]] = []
        self._seq = 0
        self._active_process: Optional[Process] = None
        # The two hottest factories are pre-bound partials on the
        # instance: a partial call runs at C level, where a delegating
        # method costs one Python frame per event (measurable at the
        # timeout-churn event rate).  They shadow the methods below.
        self.timeout = partial(Timeout, self)
        self.process = partial(Process, self)

    # -- clock -----------------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulated time."""
        return self._now

    @property
    def active_process(self) -> Optional[Process]:
        """The process currently executing, if any."""
        return self._active_process

    # -- scheduling ------------------------------------------------------
    def _enqueue(self, delay: float, event: Event) -> None:
        """Schedule ``event`` to be processed ``delay`` from now."""
        self._seq = seq = self._seq + 1
        _heappush(self._queue, (self._now + delay, seq, event))

    # -- factories -------------------------------------------------------
    def event(self) -> Event:
        """Create a fresh, untriggered event."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """Create an event that fires after ``delay``."""
        return Timeout(self, delay, value)

    def process(self, generator: Generator) -> Process:
        """Start a new process executing ``generator``."""
        return Process(self, generator)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        return AllOf(self, list(events))

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        return AnyOf(self, list(events))

    def race(self, contender: Event, delay: float) -> Race:
        """Race ``contender`` against a private, cancellable deadline."""
        return Race(self, contender, delay)

    # -- execution -------------------------------------------------------
    def peek(self) -> float:
        """Time of the next live scheduled event, or ``inf`` if none.

        Cancelled entries at the head are dropped here: they will never
        fire, so reporting their time would be misleading.
        """
        queue = self._queue
        while queue:
            head = queue[0]
            if head[2]._cancelled:
                _heappop(queue)
                continue
            return head[0]
        return _INF

    def step(self) -> None:
        """Process exactly one event; advance the clock to its time.

        Cancelled entries are discarded (advancing the clock) until a
        live event is found.
        """
        queue = self._queue
        while True:
            if not queue:
                raise RuntimeError("no scheduled events")
            time, _, event = _heappop(queue)
            self._now = time
            if event._cancelled:
                continue
            event._process()
            if not event._ok and not event._defused:
                raise event._value
            return

    def run(self, until: Any = None, *, horizon: Optional[float] = None) -> Any:
        """Run the simulation.

        ``until`` may be ``None`` (run until no events remain), a number
        (run until the clock reaches it), or an :class:`Event` (run until
        it is processed, returning its value).

        ``horizon`` bounds an Event-``until`` wait by a clock time: the
        run stops at whichever comes first.  If the event wins, its
        value is returned as usual; if the clock wins, the stop callback
        is detached, the clock lands on ``horizon`` (when the queue ran
        dry first) and ``None`` is returned — callers distinguish the
        two via ``until.processed``.  Combining ``horizon`` with a
        numeric or absent ``until`` would be two time bounds for one run
        and raises ``TypeError``; pass a single number instead.
        """
        stop_event: Optional[Event] = None
        limit = _INF
        if until is None:
            if horizon is not None:
                raise TypeError(
                    "horizon requires an Event 'until'; "
                    "use run(until=<number>) for a plain time bound"
                )
        elif isinstance(until, Event):
            stop_event = until
            if stop_event._processed:
                return stop_event._value
            stop_event.add_callback(self._stop_callback)
            if horizon is not None:
                limit = float(horizon)
                if limit < self._now:
                    raise ValueError(
                        f"horizon={limit} is in the past (now={self._now})"
                    )
        else:
            if horizon is not None:
                raise TypeError(
                    "cannot combine a numeric 'until' with 'horizon' "
                    "(two time bounds for the same run are ambiguous)"
                )
            limit = float(until)
            if limit < self._now:
                raise ValueError(
                    f"until={limit} is in the past (now={self._now})"
                )

        queue = self._queue
        try:
            # Both loop variants inline Event._process (callback slots)
            # and the undefused-failure check: one Python call frame per
            # event is ~8% of kernel throughput at this event rate.
            # Callback slots are read, not cleared: every slot reader
            # checks ``_processed`` first (see Event.add_callback), so
            # leaving them populated saves two stores per event.
            if limit == _INF:
                # Unbounded variant: no per-event limit comparison.
                while queue:
                    time, _, event = _heappop(queue)
                    self._now = time
                    if event._cancelled:
                        continue
                    event._processed = True
                    cb1 = event._cb1
                    if cb1 is not None:
                        more = event._cbs
                        cb1(event)
                        if more is not None:
                            for callback in more:
                                callback(event)
                    if not event._ok and not event._defused:
                        raise event._value
            else:
                while queue:
                    head = queue[0]
                    if head[0] > limit:
                        self._now = limit
                        break
                    time, _, event = _heappop(queue)
                    self._now = time
                    if event._cancelled:
                        continue
                    event._processed = True
                    cb1 = event._cb1
                    if cb1 is not None:
                        more = event._cbs
                        cb1(event)
                        if more is not None:
                            for callback in more:
                                callback(event)
                    if not event._ok and not event._defused:
                        raise event._value
        except StopSimulation as stop:
            fired = stop.args[0] if stop.args else None
            if fired is not stop_event:
                raise RuntimeError(
                    "a stop event from an earlier run() call fired; that "
                    "run was aborted before its event triggered"
                ) from stop
            if not stop_event._ok:
                raise stop_event._value
            return stop_event._value
        else:
            if stop_event is not None and not stop_event._processed:
                if horizon is None:
                    raise RuntimeError(
                        "run() stop event was never triggered "
                        "(simulation ran out of events)"
                    )
                # The horizon won: detach the stop callback so the event
                # cannot abort a future run() call if it fires later.
                stop_event.remove_callback(self._stop_callback)
                if not queue:
                    self._now = limit
                return None
            if limit != _INF and not queue:
                # Exhausted queue before the time limit: clock still
                # advances to the requested horizon.
                self._now = limit
        finally:
            # A traceback can keep this frame: an undefused failure
            # raised here, or a process failure caught in a resume frame
            # that links back to it.  Drop the loop's locals, which can
            # hold the failed event or a callback that reaches it.
            event = cb1 = more = callback = None
        return None

    @staticmethod
    def _stop_callback(event: Event) -> None:
        raise StopSimulation(event)

    def __repr__(self) -> str:
        return f"<Environment now={self._now} pending={len(self._queue)}>"
