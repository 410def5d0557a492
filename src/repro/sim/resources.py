"""Queueing primitives built on the DES kernel.

Three families:

* :class:`Store` / :class:`FilterStore` / :class:`PriorityStore` — producer/
  consumer message queues (used for scheduler message queues, NIC inboxes).
* :class:`Resource` — a counted resource with priority-ordered waiters (used
  for GPU engines, NIC links, staging-buffer pools).
* :class:`TokenPool` — a refillable quantity pool (used for bounded staging
  buffer bytes in the pipelined host-staging protocol).

All waiters are served deterministically: ties broken by request order.
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import Any, Callable, Optional

from .engine import Engine, Event
from .errors import SimulationError

__all__ = [
    "Store",
    "FilterStore",
    "PriorityStore",
    "Resource",
    "Request",
    "TokenPool",
]


class Store:
    """Unbounded (by default) FIFO store of items.

    ``put(item)`` returns an event that triggers when the item is accepted
    (immediately unless ``capacity`` is bounded and full).  ``get()`` returns
    an event that triggers with the next item.
    """

    #: Subclasses whose getters carry extra matching state (``FilterStore``)
    #: set this False to disable the direct producer→consumer fast path.
    _simple = True

    def __init__(self, engine: Engine, capacity: float = float("inf"), name: str = ""):
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.engine = engine
        self.capacity = capacity
        self.name = name
        self.items: list[Any] = []
        self._getters: deque[Event] = deque()
        self._putters: deque[tuple[Event, Any]] = deque()
        # Event labels, precomputed once: get/put run per message on the
        # scheduler hot path and must not pay an f-string each call.
        self._get_name = f"{name}.get"
        self._put_name = f"{name}.put"

    def __len__(self) -> int:
        return len(self.items)

    # -- operations ---------------------------------------------------------
    def put(self, item: Any) -> Event:
        ev = Event(self.engine, name=self._put_name)
        self._putters.append((ev, item))
        self._dispatch()
        return ev

    def put_nowait(self, item: Any) -> None:
        """Deposit ``item`` without creating a put event (hot-path helper).

        Raises if the store is at capacity — callers use this only on
        unbounded stores (message queues, stream op queues).
        """
        items = self.items
        if len(items) >= self.capacity:
            raise SimulationError(f"put_nowait on full store {self.name!r}")
        # Fast path: no queued putters means _dispatch reduces to "hand the
        # item to the first waiting getter, or shelve it".  (Simple stores
        # never hold items and getters simultaneously, so handing the fresh
        # item over directly serves the same getter with the same value.)
        if self._simple and not self._putters:
            if self._getters and not items:
                self._getters.popleft().succeed(item)
            else:
                self._store_item(item)
            return
        self._store_item(item)
        self._dispatch()

    def get(self) -> Event:
        ev = Event(self.engine, name=self._get_name)
        if self._simple and not self._putters:
            if self.items:
                ev.succeed(self._pop_item())
            else:
                self._getters.append(ev)
            return ev
        self._getters.append(ev)
        self._dispatch()
        return ev

    def try_get(self) -> Optional[Any]:
        """Pop an item immediately if one is available, else ``None``.

        Only valid when no getters are queued (callers that mix ``get`` and
        ``try_get`` on one store would otherwise jump the queue).
        """
        self._admit_putters()
        if self.items and not self._getters:
            return self._pop_item()
        return None

    # -- internals ----------------------------------------------------------
    def _admit_putters(self) -> None:
        while self._putters and len(self.items) < self.capacity:
            ev, item = self._putters.popleft()
            self._store_item(item)
            ev.succeed()

    def _store_item(self, item: Any) -> None:
        self.items.append(item)

    def _pop_item(self) -> Any:
        return self.items.pop(0)

    def _dispatch(self) -> None:
        self._admit_putters()
        while self._getters and self.items:
            getter = self._getters.popleft()
            getter.succeed(self._pop_item())
            self._admit_putters()


class FilterStore(Store):
    """A store whose ``get`` may carry a predicate.

    Getters are served in arrival order, but a getter whose predicate
    matches no current item does not block later getters (this mirrors
    SimPy's FilterStore and is what message-matching needs).
    """

    _simple = False

    def get(self, predicate: Optional[Callable[[Any], bool]] = None) -> Event:  # type: ignore[override]
        ev = Event(self.engine, name=self._get_name)
        self._getters.append((ev, predicate))  # type: ignore[arg-type]
        self._dispatch()
        return ev

    def _dispatch(self) -> None:  # type: ignore[override]
        self._admit_putters()
        served = True
        while served and self.items:
            served = False
            for entry in list(self._getters):
                getter, predicate = entry
                found_idx = None
                for i, item in enumerate(self.items):
                    if predicate is None or predicate(item):
                        found_idx = i
                        break
                if found_idx is not None:
                    item = self.items.pop(found_idx)
                    self._getters.remove(entry)
                    getter.succeed(item)
                    self._admit_putters()
                    served = True


class PriorityStore(Store):
    """A store that yields items lowest-priority-value first.

    ``put`` accepts any item; priority is taken from ``priority(item)`` given
    at construction (default: the item itself must be orderable).  FIFO among
    equal priorities.
    """

    def __init__(
        self,
        engine: Engine,
        capacity: float = float("inf"),
        name: str = "",
        priority: Optional[Callable[[Any], Any]] = None,
    ):
        super().__init__(engine, capacity=capacity, name=name)
        self._prio_fn = priority or (lambda item: item)
        self._counter = 0
        self.items: list[tuple[Any, int, Any]] = []  # (prio, seq, item) heap

    def _store_item(self, item: Any) -> None:
        heapq.heappush(self.items, (self._prio_fn(item), self._counter, item))
        self._counter += 1

    def _pop_item(self) -> Any:
        return heapq.heappop(self.items)[2]

    def peek_priority(self) -> Any:
        """Priority of the head item (raises if empty)."""
        if not self.items:
            raise SimulationError("peek on empty PriorityStore")
        return self.items[0][0]


class Request(Event):
    """A pending claim on a :class:`Resource`; release with ``resource.release``."""

    __slots__ = ("resource", "priority", "amount")

    def __init__(self, resource: "Resource", priority: float, amount: int):
        super().__init__(resource.engine, name=resource._request_name)
        self.resource = resource
        self.priority = priority
        self.amount = amount


class Resource:
    """A counted resource with priority-ordered waiters.

    ``request(priority=...)`` returns a :class:`Request` event that triggers
    when the claim is granted.  Lower priority values are served first;
    equal priorities FIFO.  ``amount`` lets one request claim several units
    (all-or-nothing).
    """

    def __init__(self, engine: Engine, capacity: int = 1, name: str = ""):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.engine = engine
        self.capacity = capacity
        self.name = name
        self._request_name = f"{name}.request"
        self.in_use = 0
        self._waiters: list[tuple[float, int, Request]] = []
        self._counter = 0
        self.users: list[Request] = []

    @property
    def available(self) -> int:
        return self.capacity - self.in_use

    @property
    def queue_length(self) -> int:
        return len(self._waiters)

    def request(self, priority: float = 0.0, amount: int = 1) -> Request:
        if amount < 1 or amount > self.capacity:
            raise ValueError(f"invalid request amount {amount} for capacity {self.capacity}")
        req = Request(self, priority, amount)
        heapq.heappush(self._waiters, (priority, self._counter, req))
        self._counter += 1
        self._grant()
        return req

    def release(self, request: Request) -> None:
        if request not in self.users:
            raise SimulationError(f"release of non-held request on {self.name!r}")
        self.users.remove(request)
        self.in_use -= request.amount
        h = self.engine.hooks
        if h is not None:
            for fn in h.release:
                fn(self, request.amount)
        self._grant()

    def _grant(self) -> None:
        while self._waiters:
            priority, _seq, req = self._waiters[0]
            if req.amount > self.capacity - self.in_use:
                break
            heapq.heappop(self._waiters)
            self.in_use += req.amount
            self.users.append(req)
            h = self.engine.hooks
            if h is not None:
                for fn in h.grant:
                    fn(self, req.amount)
            req.succeed(req)

    def cancel(self, request: Request) -> None:
        """Withdraw a not-yet-granted request."""
        for i, (_p, _s, req) in enumerate(self._waiters):
            if req is request:
                del self._waiters[i]
                heapq.heapify(self._waiters)
                return
        raise SimulationError("cancel of unknown or already-granted request")


class TokenPool:
    """A pool of ``capacity`` fungible tokens (e.g. staging-buffer bytes).

    ``acquire(n)`` triggers when ``n`` tokens are available; ``release(n)``
    returns tokens.  Waiters are FIFO (no priorities) and all-or-nothing.
    """

    def __init__(self, engine: Engine, capacity: int, name: str = ""):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.engine = engine
        self.capacity = capacity
        self.level = capacity
        self.name = name
        self._waiters: deque[tuple[Event, int]] = deque()
        self._acquire_name = f"{name}.acquire"

    def acquire(self, n: int = 1) -> Event:
        if n < 1 or n > self.capacity:
            raise ValueError(f"cannot acquire {n} of {self.capacity} tokens")
        ev = Event(self.engine, name=self._acquire_name)
        self._waiters.append((ev, n))
        self._grant()
        return ev

    def release(self, n: int = 1) -> None:
        if self.level + n > self.capacity:
            raise SimulationError(f"token pool {self.name!r} over-released")
        self.level += n
        self._grant()

    def _grant(self) -> None:
        while self._waiters and self._waiters[0][1] <= self.level:
            ev, n = self._waiters.popleft()
            self.level -= n
            ev.succeed(n)
