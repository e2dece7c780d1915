"""Processes: generator-driven actors inside the simulation.

A process wraps a Python generator.  Each ``yield`` hands the kernel an
:class:`~repro.simcore.events.Event`; the process resumes when the event
fires, receiving the event's value (or its exception, re-raised).  A
process is itself an event that fires with the generator's return value,
so processes can wait on one another.

``_resume`` is the single hottest Python frame in the simulator (one
call per event a process waits on), so the generator's ``send`` is
bound once at process creation (binding a method costs an allocation;
``throw`` is bound lazily since failures are rare), the non-event and
foreign-environment guards run inside one optimistic ``try`` block on
the wait path, and the process attaches its own pre-bound callback
(``_resume_cb``) directly into the target event's callback slots
instead of going through ``add_callback``.  That bound method refers
back to its process, so every terminal branch of ``_resume`` drops it:
a finished process is then freed by reference counting instead of
lingering as cyclic garbage until the next collection.  A process that
fails also clears its ``_resume`` frame's locals: the exception's
traceback keeps that frame, whose ``self`` holds the exception.
"""

from __future__ import annotations

from heapq import heappush as _heappush
from typing import TYPE_CHECKING, Any, Generator, Optional

from repro.simcore.events import PENDING, Event, Interrupt

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.simcore.engine import Environment


class _InterruptEvent(Event):
    """Internal event used to deliver an interrupt to a target process."""

    __slots__ = ("process",)

    def __init__(self, process: "Process", cause: Any) -> None:
        super().__init__(process.env)
        self.process = process
        self._ok = False
        self._value = Interrupt(cause)
        self._defused = True
        self.env._enqueue(0.0, self)
        self._cb1 = self._deliver  # fresh private event: set directly

    @staticmethod
    def _deliver(event: "Event") -> None:
        process = event.process  # type: ignore[attr-defined]
        if process._value is not PENDING:
            return  # target already finished; interrupt is a no-op
        # Detach the process from whatever it was waiting on so the
        # original event's later firing does not resume it twice.
        target = process._waiting_on
        if target is not None and not target._processed:
            target.remove_callback(process._resume_cb)
        process._waiting_on = None
        process._resume(event)


class Process(Event):
    """A running simulation actor.

    Completed processes carry the generator's return value; a process
    that raises propagates the exception to waiters (or, unhandled, out
    of ``env.run()``).
    """

    __slots__ = ("_generator", "_send", "_waiting_on", "_resume_cb", "_name")

    def __init__(
        self,
        env: "Environment",
        generator: Generator,
        name: Optional[str] = None,
    ) -> None:
        try:
            send = generator.send
        except AttributeError:
            raise TypeError(f"{generator!r} is not a generator") from None
        # Inlined Event.__init__ plus the start-event construction and
        # enqueue: the client benches create one process per operation,
        # making this the second-hottest constructor after Timeout.
        self.env = env
        self._cb1 = None
        self._cbs = None
        self._value = PENDING
        self._ok = True
        self._defused = False
        self._processed = False
        self._cancelled = False
        self._generator = generator
        # Bind ``send`` exactly once; every resume re-uses the bound
        # method instead of re-binding it (one allocation per yield).
        self._send = send
        self._waiting_on: Optional[Event] = None
        # Bind the resume method exactly once; every wait re-uses it.
        self._resume_cb = resume = self._resume
        self._name = name
        # Kick off at the current time via an initialisation event.
        start = Event.__new__(Event)
        start.env = env
        start._cb1 = resume
        start._cbs = None
        start._value = None
        start._ok = True
        start._defused = False
        start._processed = False
        start._cancelled = False
        env._seq = seq = env._seq + 1
        _heappush(env._queue, (env.now, seq, start))

    @property
    def name(self) -> str:
        """The name given at creation, else the generator's ``__name__``
        (derived when read: only error messages and ``repr`` read it,
        while the benches create one process per operation)."""
        return self._name or getattr(self._generator, "__name__", "process")

    @property
    def is_alive(self) -> bool:
        """True while the generator has not finished."""
        return not self.triggered

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at the current time."""
        if self.triggered:
            raise RuntimeError(f"{self!r} has already finished")
        if self.env.active_process is self:
            raise RuntimeError("a process cannot interrupt itself")
        _InterruptEvent(self, cause)

    # -- kernel plumbing ---------------------------------------------------
    def _resume(self, event: Event) -> None:
        """Advance the generator with the fired event's outcome."""
        env = self.env
        prev, env._active_process = env._active_process, self
        self._waiting_on = None
        send = self._send
        resume_cb = self._resume_cb
        try:
            while True:
                try:
                    if event._ok:
                        target = send(event._value)
                    else:
                        event._defused = True
                        target = self._generator.throw(event._value)
                except StopIteration as stop:
                    self._ok = True
                    self._value = stop.value
                    self._resume_cb = None
                    env._seq = seq = env._seq + 1
                    _heappush(env._queue, (env.now, seq, self))
                    return
                except BaseException as exc:
                    self._ok = False
                    self._value = exc
                    self._resume_cb = None
                    env._seq = seq = env._seq + 1
                    _heappush(env._queue, (env.now, seq, self))
                    # The traceback keeps this frame: drop the locals
                    # that lead back to the exception (asyncio's idiom).
                    self = event = target = send = resume_cb = None
                    return

                # Optimistic wait path: anything without Event's slots
                # drops to the AttributeError arm below.
                try:
                    if target.env is not env:
                        exc = RuntimeError(
                            f"process {self.name!r} yielded an event from "
                            "another environment"
                        )
                        self._ok = False
                        self._value = exc
                        self._resume_cb = None
                        env._enqueue(0.0, self)
                        return
                    if not target._processed:
                        if target._cancelled:
                            # A cancelled event never fires; waiting on
                            # one would hang the process silently.
                            exc = RuntimeError(
                                f"process {self.name!r} yielded a "
                                "cancelled event"
                            )
                            self._ok = False
                            self._value = exc
                            self._resume_cb = None
                            env._enqueue(0.0, self)
                            return
                        self._waiting_on = target
                        # Inlined add_callback on the wait path.
                        if target._cb1 is None:
                            target._cb1 = resume_cb
                        elif target._cbs is None:
                            target._cbs = [resume_cb]
                        else:
                            target._cbs.append(resume_cb)
                        return
                except AttributeError:
                    exc = RuntimeError(
                        f"process {self.name!r} yielded non-event {target!r}"
                    )
                    self._ok = False
                    self._value = exc
                    self._resume_cb = None
                    env._enqueue(0.0, self)
                    return
                # Already processed — resume immediately with its value.
                event = target
        finally:
            env._active_process = prev

    def __repr__(self) -> str:
        state = "alive" if self.is_alive else "finished"
        return f"<Process {self.name} {state}>"
