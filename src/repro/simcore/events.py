"""Event primitives for the discrete-event kernel.

An :class:`Event` is a one-shot future: it is *triggered* with either a
value (success) or an exception (failure), after which the environment
invokes its callbacks at the event's scheduled time.  Processes yield
events to suspend until they fire.

The callback store is optimized for the overwhelmingly common case of a
single waiter (one process resuming on the event): the first callback
lives in a dedicated slot (``_cb1``) and a list (``_cbs``) is only
allocated for the second and later waiters.  Profiles of the table
benchmark showed the per-event list allocation among the top costs of
the kernel inner loop.
"""

from __future__ import annotations

from heapq import heappush as _heappush
from typing import TYPE_CHECKING, Any, Callable, Sequence

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.simcore.engine import Environment

#: Sentinel for "event not yet triggered".
PENDING = object()


class Event:
    """A one-shot occurrence inside an :class:`Environment`.

    Events move through three states: *pending* (created), *triggered*
    (value set, queued on the event heap) and *processed* (callbacks
    run).  A not-yet-processed event may additionally be *cancelled*:
    the scheduler then discards it when popped, without running
    callbacks or raising its failure (lazy invalidation — the heap
    entry stays put until its time comes, and the clock still advances
    past it exactly as if a no-op event occupied the slot, so
    cancellation never shifts the timing of other events).
    """

    __slots__ = (
        "env", "_cb1", "_cbs", "_value", "_ok", "_defused",
        "_processed", "_cancelled",
    )

    def __init__(self, env: "Environment") -> None:
        self.env = env
        self._cb1: Any = None
        self._cbs: Any = None
        self._value: Any = PENDING
        self._ok: bool = True
        self._defused: bool = False
        self._processed: bool = False
        self._cancelled: bool = False

    # -- state inspection ------------------------------------------------
    @property
    def triggered(self) -> bool:
        """True once the event has a value (success or failure)."""
        return self._value is not PENDING

    @property
    def processed(self) -> bool:
        """True once callbacks have been run."""
        return self._processed

    @property
    def cancelled(self) -> bool:
        """True once :meth:`cancel` has invalidated the event."""
        return self._cancelled

    @property
    def ok(self) -> bool:
        """True if the event succeeded.  Only meaningful once triggered."""
        return self._ok

    @property
    def value(self) -> Any:
        if self._value is PENDING:
            raise RuntimeError(f"{self!r} has not been triggered")
        return self._value

    # -- triggering ------------------------------------------------------
    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully with ``value``."""
        if self._value is not PENDING:
            raise RuntimeError(f"{self!r} already triggered")
        self._ok = True
        self._value = value
        env = self.env
        env._seq = seq = env._seq + 1
        _heappush(env._queue, (env.now, seq, self))
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event with an exception.

        The exception is re-raised inside any process waiting on the
        event.  If nothing waits, it propagates out of ``env.run()``
        unless :meth:`defused` is set.
        """
        if not isinstance(exception, BaseException):
            raise TypeError(f"{exception!r} is not an exception")
        if self._value is not PENDING:
            raise RuntimeError(f"{self!r} already triggered")
        self._ok = False
        self._value = exception
        env = self.env
        env._seq = seq = env._seq + 1
        _heappush(env._queue, (env.now, seq, self))
        return self

    def defuse(self) -> None:
        """Mark a failure as handled so it will not crash the run."""
        self._defused = True

    @property
    def defused(self) -> bool:
        return self._defused

    def cancel(self) -> None:
        """Invalidate the event: it will never run callbacks nor raise.

        Cancellation is lazy — the heap entry is not searched out (that
        would be O(n)); the scheduler discards the event when its time
        comes.  The clock still advances past the dead slot, so
        cancelling an event never changes when *other* events fire.
        Cancelling an already-processed event is an error (its effects
        have already happened); cancelling twice is a no-op.
        """
        if self._processed:
            raise RuntimeError(f"cannot cancel {self!r}: already processed")
        self._cancelled = True
        self._cb1 = None
        self._cbs = None

    def add_callback(self, callback: Callable[["Event"], None]) -> None:
        """Run ``callback(event)`` when the event is processed.

        On an already-processed event the callback runs immediately (to
        preserve semantics); on a cancelled event it is silently
        dropped, since a cancelled event never fires.  The ``_processed``
        check comes first so the scheduler can leave the callback slots
        in place after processing (clearing them per event costs two
        stores on the kernel's hottest loop).
        """
        if self._processed:
            callback(self)
        elif self._cancelled:
            pass
        elif self._cb1 is None:
            self._cb1 = callback
        elif self._cbs is None:
            self._cbs = [callback]
        else:
            self._cbs.append(callback)

    def remove_callback(self, callback: Callable[["Event"], None]) -> None:
        """Detach a previously added callback; missing ones are ignored."""
        if self._cb1 == callback:
            more = self._cbs
            if more:
                self._cb1 = more.pop(0)
                if not more:
                    self._cbs = None
            else:
                self._cb1 = None
        elif self._cbs is not None:
            try:
                self._cbs.remove(callback)
            except ValueError:
                pass

    def _process(self) -> None:
        """Invoke callbacks; called by the environment's event loop.

        The slots are left populated: every reader checks ``_processed``
        before touching them, and each event is popped exactly once, so
        clearing would only add stores to the hot loop.
        """
        self._processed = True
        cb1 = self._cb1
        if cb1 is not None:
            more = self._cbs
            cb1(self)
            if more:
                for callback in more:
                    callback(self)

    def __repr__(self) -> str:
        state = (
            "pending"
            if self._value is PENDING
            else ("ok" if self._ok else "failed")
        )
        if self._cancelled:
            state += " cancelled"
        return f"<{type(self).__name__} {state} at {id(self):#x}>"


class Timeout(Event):
    """An event that fires ``delay`` time units after creation."""

    __slots__ = ("delay",)

    def __init__(self, env: "Environment", delay: float, value: Any = None) -> None:
        if delay < 0:
            raise ValueError(f"negative delay {delay}")
        # Inlined Event.__init__ (this constructor is the kernel's
        # hottest allocation site).
        self.env = env
        self._cb1 = None
        self._cbs = None
        self._value = value
        self._ok = True
        self._defused = False
        self._processed = False
        self._cancelled = False
        self.delay = delay
        env._seq = seq = env._seq + 1
        _heappush(env._queue, (env.now + delay, seq, self))

    def __repr__(self) -> str:
        return f"<Timeout delay={self.delay}>"


class Race(Event):
    """Race a ``contender`` event against a privately-owned deadline.

    A lightweight alternative to ``AnyOf([proc, env.timeout(s)])`` for
    the client hot path: no child list, no evaluate closure, no result
    dict.  When the contender wins (the overwhelmingly common case —
    nearly every client operation beats its deadline) the deadline
    Timeout is :meth:`~Event.cancel`-led, so the scheduler discards the
    dead heap entry instead of popping and processing it.

    Fires with the contender's value when the contender wins, with
    ``None`` when the deadline fires first, and fails (defusing the
    contender, exactly as :class:`Condition` would) if the contender
    fails first.  The deadline Timeout must stay private to the race:
    nothing else may wait on it, since a cancelled event never fires.

    A settled race holds nothing: :meth:`_settle` and :meth:`_expire`
    drop ``contender`` and ``deadline`` and clear a cancelled deadline's
    callback.  Both bound methods refer back to the race, so with the
    fields kept every client call would leave the race, its deadline
    and the attempt process as cyclic garbage, and a cancelled deadline
    would keep the race's value alive until its heap slot came due.
    """

    __slots__ = ("contender", "deadline")

    def __init__(self, env: "Environment", contender: Event, delay: float) -> None:
        if contender.env is not env:
            raise ValueError("contender belongs to a different environment")
        # Inlined Event.__init__: one Race per client operation.
        self.env = env
        self._cb1 = None
        self._cbs = None
        self._value = PENDING
        self._ok = True
        self._defused = False
        self._processed = False
        self._cancelled = False
        self.contender = contender
        deadline = Timeout(env, delay)
        self.deadline = deadline
        deadline._cb1 = self._expire  # fresh private event: set directly
        if contender._processed:
            self._settle(contender)
        elif not contender._cancelled:
            # Inlined add_callback on the pending-contender path.
            settle = self._settle
            if contender._cb1 is None:
                contender._cb1 = settle
            elif contender._cbs is None:
                contender._cbs = [settle]
            else:
                contender._cbs.append(settle)

    def _settle(self, contender: Event) -> None:
        if self._value is not PENDING:
            return  # deadline already won; the contender is an orphan
        deadline = self.deadline
        self.contender = self.deadline = None
        if not deadline._processed:
            # Inlined deadline.cancel(): the deadline is private to the
            # race, so its one slot holds this race's ``_expire``.
            deadline._cancelled = True
            deadline._cb1 = None
        if contender._ok:
            # Inlined self.succeed(contender._value): the common win.
            self._value = contender._value
            env = self.env
            env._seq = seq = env._seq + 1
            _heappush(env._queue, (env.now, seq, self))
        else:
            contender._defused = True
            self.fail(contender._value)

    def _expire(self, _deadline: Event) -> None:
        if self._value is PENDING:
            self.contender = self.deadline = None
            self.succeed(None)


class Interrupt(Exception):
    """Raised inside a process when another process interrupts it.

    ``cause`` carries the interrupter's reason object.
    """

    @property
    def cause(self) -> Any:
        return self.args[0] if self.args else None


class Condition(Event):
    """Composite event over a set of child events.

    Fires when ``evaluate(children, n_triggered)`` returns True, or fails
    as soon as any child fails.  The value is a dict mapping each
    triggered child to its value, in trigger order.
    """

    __slots__ = ("_events", "_count", "_evaluate")

    def __init__(
        self,
        env: "Environment",
        evaluate: Callable[[Sequence[Event], int], bool],
        events: Sequence[Event],
    ) -> None:
        super().__init__(env)
        self._events = list(events)
        self._count = 0
        self._evaluate = evaluate
        for event in self._events:
            if event.env is not env:
                raise ValueError("events belong to different environments")
        if not self._events:
            self.succeed(self._collect())
            return
        for event in self._events:
            if event._processed:  # already fired: count it right away
                self._check(event)
            else:
                event.add_callback(self._check)

    def _collect(self) -> dict:
        # Only *processed* children count: a Timeout is triggered (has a
        # value) from creation, but has not yet "happened" until the clock
        # reaches it.
        return {
            event: event._value
            for event in self._events
            if event._processed and event._ok
        }

    def _check(self, event: Event) -> None:
        if self._value is not PENDING:
            return
        if not event._ok:
            event.defuse()
            self.fail(event._value)
            return
        self._count += 1
        if self._evaluate(self._events, self._count):
            self.succeed(self._collect())


class AllOf(Condition):
    """Fires when every child event has fired."""

    __slots__ = ()

    def __init__(self, env: "Environment", events: Sequence[Event]) -> None:
        super().__init__(env, lambda evts, count: count >= len(evts), events)


class AnyOf(Condition):
    """Fires when at least one child event has fired."""

    __slots__ = ()

    def __init__(self, env: "Environment", events: Sequence[Event]) -> None:
        super().__init__(env, lambda evts, count: count >= 1, events)
