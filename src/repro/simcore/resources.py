"""Shared-resource primitives: a counted FIFO resource and a FIFO store.

These follow the request/release protocol: ``resource.request()`` returns
an event that fires once a slot is granted; the holder later calls
``resource.release(request)``.  Request objects are context managers so
process code can write::

    with server.request() as req:
        yield req
        yield env.timeout(service_time)
"""

from __future__ import annotations

from collections import deque
from heapq import heappush as _heappush
from typing import TYPE_CHECKING, Any, Deque, List

from repro.simcore.events import PENDING, Event

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.simcore.engine import Environment


class Request(Event):
    """A pending or granted claim on a :class:`Resource` slot."""

    __slots__ = ("resource",)

    def __init__(self, resource: "Resource") -> None:
        # Inlined Event.__init__: one Request per resource operation on
        # the kernel's resource-churn hot path.
        self.env = resource.env
        self._cb1 = None
        self._cbs = None
        self._value = PENDING
        self._ok = True
        self._defused = False
        self._processed = False
        self._cancelled = False
        self.resource = resource
        resource._queue_request(self)

    def cancel(self) -> None:
        """Withdraw an ungranted request from the wait queue."""
        if self._value is PENDING:
            self.resource._cancel(self)

    def __enter__(self) -> "Request":
        return self

    def __exit__(self, exc_type: Any, exc: Any, tb: Any) -> None:
        # Slot reads instead of the triggered/ok property frames.
        if self._value is not PENDING and self._ok:
            self.resource.release(self)
        elif self._value is PENDING:
            self.resource._cancel(self)


class Resource:
    """A counted resource with a FIFO wait queue.

    Parameters
    ----------
    env:
        Owning environment.
    capacity:
        Number of simultaneous holders.
    """

    def __init__(self, env: "Environment", capacity: int = 1) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.env = env
        self.capacity = capacity
        self.users: List[Request] = []
        self.queue: List[Request] = []

    @property
    def count(self) -> int:
        """Number of slots currently held."""
        return len(self.users)

    def request(self) -> Request:
        """Ask for a slot; the returned event fires when granted."""
        return Request(self)

    def release(self, request: Request) -> None:
        """Return a previously granted slot."""
        try:
            self.users.remove(request)
        except ValueError:
            raise RuntimeError(f"{request!r} does not hold {self!r}") from None
        if self.queue:
            self._grant_waiters()

    # -- internals ---------------------------------------------------------
    def _queue_request(self, request: Request) -> None:
        users = self.users
        if not self.queue and len(users) < self.capacity:
            # A free slot and no waiter: grant at once, exactly as
            # queueing the request and granting the head would.
            users.append(request)
            request._value = None
            env = self.env
            env._seq = seq = env._seq + 1
            _heappush(env._queue, (env.now, seq, request))
            return
        self.queue.append(request)
        self._grant_waiters()

    def _cancel(self, request: Request) -> None:
        try:
            self.queue.remove(request)
        except ValueError:
            pass

    def _grant_waiters(self) -> None:
        queue = self.queue
        users = self.users
        capacity = self.capacity
        env = self.env
        heap = env._queue
        while queue and len(users) < capacity:
            request = queue.pop(0)
            users.append(request)
            # Inlined request.succeed(None): queued requests are always
            # untriggered, so the guard in succeed() cannot fire.
            request._value = None
            env._seq = seq = env._seq + 1
            _heappush(heap, (env.now, seq, request))

    def __repr__(self) -> str:
        return (
            f"<{type(self).__name__} users={len(self.users)}/{self.capacity}"
            f" queued={len(self.queue)}>"
        )


class StoreGet(Event):
    """Pending retrieval from a :class:`Store`."""

    __slots__ = ("store",)

    def __init__(self, store: "Store") -> None:
        super().__init__(store.env)
        self.store = store
        if store.items:
            self.succeed(store.items.popleft())
        else:
            store._getters.append(self)

    def cancel(self) -> None:
        if not self.triggered:
            try:
                self.store._getters.remove(self)
            except ValueError:
                pass


class Store:
    """An unbounded FIFO buffer of Python objects.

    ``put(item)`` returns an event that succeeds at once; the item goes
    to the longest-waiting getter, if any, else to the back of
    :attr:`items`.  ``get()`` returns an event that fires with the
    oldest item, as soon as there is one.
    """

    def __init__(self, env: "Environment") -> None:
        self.env = env
        self.items: Deque[Any] = deque()
        self._getters: List[StoreGet] = []

    def __len__(self) -> int:
        return len(self.items)

    def put(self, item: Any) -> Event:
        # The put's own event is scheduled before the getter it wakes,
        # so at one instant the producer resumes first.
        done = Event(self.env).succeed()
        if self._getters:
            self._getters.pop(0).succeed(item)
        else:
            self.items.append(item)
        return done

    def get(self) -> StoreGet:
        return StoreGet(self)
