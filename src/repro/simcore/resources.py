"""Shared-resource primitives: counted resources, stores and containers.

These follow the request/release protocol: ``resource.request()`` returns
an event that fires once a slot is granted; the holder later calls
``resource.release(request)``.  Request objects are context managers so
process code can write::

    with server.request() as req:
        yield req
        yield env.timeout(service_time)
"""

from __future__ import annotations

import itertools
from collections import deque
from heapq import heappush as _heappush
from typing import TYPE_CHECKING, Any, Callable, Deque, List, Optional

from repro.simcore.events import PENDING, Event

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.simcore.engine import Environment


class Request(Event):
    """A pending or granted claim on a :class:`Resource` slot."""

    __slots__ = ("resource", "priority", "_key")

    def __init__(self, resource: "Resource", priority: float = 0.0) -> None:
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
        self.priority = priority
        self._key = (priority, next(resource._ticket))
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

    request_cls = Request

    def __init__(self, env: "Environment", capacity: int = 1) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.env = env
        self.capacity = capacity
        self.users: List[Request] = []
        self.queue: List[Request] = []
        self._ticket = itertools.count()

    @property
    def count(self) -> int:
        """Number of slots currently held."""
        return len(self.users)

    def request(self, priority: float = 0.0) -> Request:
        """Ask for a slot; the returned event fires when granted."""
        return self.request_cls(self, priority)

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
            request = self._pop_next()
            users.append(request)
            # Inlined request.succeed(None): queued requests are always
            # untriggered, so the guard in succeed() cannot fire.
            request._value = None
            env._seq = seq = env._seq + 1
            _heappush(heap, (env.now, seq, request))

    def _pop_next(self) -> Request:
        return self.queue.pop(0)

    def __repr__(self) -> str:
        return (
            f"<{type(self).__name__} users={len(self.users)}/{self.capacity}"
            f" queued={len(self.queue)}>"
        )


class PriorityResource(Resource):
    """A resource whose waiters are served lowest-``priority`` first.

    Ties break FIFO via a monotonically increasing ticket number.
    """

    def _pop_next(self) -> Request:
        best = min(range(len(self.queue)), key=lambda i: self.queue[i]._key)
        return self.queue.pop(best)


class StoreGet(Event):
    """Pending retrieval from a :class:`Store`."""

    __slots__ = ("store", "filter")

    def __init__(
        self,
        store: "Store",
        item_filter: Optional[Callable[[Any], bool]] = None,
    ) -> None:
        super().__init__(store.env)
        self.store = store
        self.filter = item_filter
        store._getters.append(self)
        store._dispatch()

    def cancel(self) -> None:
        if not self.triggered:
            try:
                self.store._getters.remove(self)
            except ValueError:
                pass


class StorePut(Event):
    """Pending insertion into a bounded :class:`Store`."""

    __slots__ = ("store", "item")

    def __init__(self, store: "Store", item: Any) -> None:
        super().__init__(store.env)
        self.store = store
        self.item = item
        store._putters.append(self)
        store._dispatch()


class Store:
    """An unordered-capacity FIFO buffer of Python objects.

    ``put(item)`` and ``get()`` both return events; ``get`` optionally
    takes a filter predicate (items are matched in FIFO order).
    """

    def __init__(self, env: "Environment", capacity: float = float("inf")) -> None:
        if capacity <= 0:
            raise ValueError(f"capacity must be > 0, got {capacity}")
        self.env = env
        self.capacity = capacity
        self.items: Deque[Any] = deque()
        self._getters: List[StoreGet] = []
        self._putters: List[StorePut] = []

    def __len__(self) -> int:
        return len(self.items)

    def put(self, item: Any) -> StorePut:
        return StorePut(self, item)

    def get(self, item_filter: Optional[Callable[[Any], bool]] = None) -> StoreGet:
        return StoreGet(self, item_filter)

    def _dispatch(self) -> None:
        progress = True
        while progress:
            progress = False
            # Admit queued puts while there is room.
            while self._putters and len(self.items) < self.capacity:
                putter = self._putters.pop(0)
                self.items.append(putter.item)
                putter.succeed()
                progress = True
            # Satisfy getters, honouring filters in FIFO item order.
            i = 0
            while i < len(self._getters):
                getter = self._getters[i]
                matched = None
                for idx, item in enumerate(self.items):
                    if getter.filter is None or getter.filter(item):
                        matched = idx
                        break
                if matched is None:
                    i += 1
                    continue
                item = self.items[matched]
                del self.items[matched]
                self._getters.pop(i)
                getter.succeed(item)
                progress = True


class ContainerGet(Event):
    __slots__ = ("container", "amount")

    def __init__(self, container: "Container", amount: float) -> None:
        if amount <= 0:
            raise ValueError(f"amount must be > 0, got {amount}")
        super().__init__(container.env)
        self.container = container
        self.amount = amount
        container._getters.append(self)
        container._dispatch()


class ContainerPut(Event):
    __slots__ = ("container", "amount")

    def __init__(self, container: "Container", amount: float) -> None:
        if amount <= 0:
            raise ValueError(f"amount must be > 0, got {amount}")
        super().__init__(container.env)
        self.container = container
        self.amount = amount
        container._putters.append(self)
        container._dispatch()


class Container:
    """A continuous-quantity reservoir (e.g. bytes of disk, tokens)."""

    def __init__(
        self,
        env: "Environment",
        capacity: float = float("inf"),
        init: float = 0.0,
    ) -> None:
        if capacity <= 0:
            raise ValueError(f"capacity must be > 0, got {capacity}")
        if not 0 <= init <= capacity:
            raise ValueError(f"init {init} outside [0, {capacity}]")
        self.env = env
        self.capacity = capacity
        self.level = init
        self._getters: List[ContainerGet] = []
        self._putters: List[ContainerPut] = []

    def put(self, amount: float) -> ContainerPut:
        return ContainerPut(self, amount)

    def get(self, amount: float) -> ContainerGet:
        return ContainerGet(self, amount)

    def _dispatch(self) -> None:
        progress = True
        while progress:
            progress = False
            while self._putters and (
                self.level + self._putters[0].amount <= self.capacity
            ):
                putter = self._putters.pop(0)
                self.level += putter.amount
                putter.succeed()
                progress = True
            while self._getters and self._getters[0].amount <= self.level:
                getter = self._getters.pop(0)
                self.level -= getter.amount
                getter.succeed()
                progress = True
