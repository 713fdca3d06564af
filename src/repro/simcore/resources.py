"""Synchronization primitives built on the event engine.

These are the shared-state building blocks the cloud-3D pipeline is made
of: bounded FIFO stores model queues between pipeline stages, resources
model exclusive devices (the GPU, the encoder), and gates model binary
conditions processes can block on (ODR's buffer-swap waits).
"""

from __future__ import annotations

from typing import Any, List

from repro.simcore.engine import Environment, Event, SimulationError

__all__ = ["Gate", "Resource", "Store"]


class StorePut(Event):
    """Event returned by :meth:`Store.put`; fires when the item is stored."""

    def __init__(self, store: "Store", item: Any) -> None:
        super().__init__(store.env)
        self.item = item


class StoreGet(Event):
    """Event returned by :meth:`Store.get`; fires with the retrieved item."""


class Store:
    """A bounded FIFO store of items.

    ``put`` blocks (returns a pending event) when the store is full;
    ``get`` blocks when it is empty.  With ``capacity=1`` this is a
    classic single-slot hand-off buffer.
    """

    def __init__(self, env: Environment, capacity: float = float("inf")) -> None:
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.env = env
        self.capacity = capacity
        self.items: List[Any] = []
        self._put_waiters: List[StorePut] = []
        self._get_waiters: List[StoreGet] = []

    def __len__(self) -> int:
        return len(self.items)

    def put(self, item: Any) -> StorePut:
        """Store ``item``; the returned event fires once it is stored."""
        event = StorePut(self, item)
        self._put_waiters.append(event)
        self._dispatch()
        return event

    def get(self) -> StoreGet:
        """Retrieve the oldest item; the event's value is the item."""
        event = StoreGet(self.env)
        self._get_waiters.append(event)
        self._dispatch()
        return event

    def try_put(self, item: Any) -> bool:
        """Non-blocking put: store ``item`` now and return True, or return
        False when the store is full or blocked putters are queued ahead.

        Unlike :meth:`put` it schedules no event of its own, so a caller
        that would never wait on the put costs the calendar nothing; a
        waiting getter is served as :meth:`put` would serve it.
        """
        if self._put_waiters or len(self.items) >= self.capacity:
            return False
        self.items.append(item)
        self._dispatch()
        return True

    # -- internals -----------------------------------------------------

    def _dispatch(self) -> None:
        """Match waiting puts with free slots and waiting gets with items."""
        progressed = True
        while progressed:
            progressed = False
            while self._put_waiters and len(self.items) < self.capacity:
                put = self._put_waiters.pop(0)
                self.items.append(put.item)
                put.succeed()
                progressed = True
            while self._get_waiters and self.items:
                get = self._get_waiters.pop(0)
                get.succeed(self.items.pop(0))
                progressed = True


class ResourceRequest(Event):
    """Event returned by :meth:`Resource.request`."""


class Resource:
    """A counted exclusive resource with FIFO granting.

    Usage::

        req = resource.request()
        yield req
        try:
            ...  # hold the resource
        finally:
            resource.release(req)
    """

    def __init__(self, env: Environment, capacity: int = 1) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.env = env
        self.capacity = capacity
        self.users: List[ResourceRequest] = []
        self.queue: List[ResourceRequest] = []

    def request(self) -> ResourceRequest:
        event = ResourceRequest(self.env)
        self.queue.append(event)
        self._grant()
        return event

    def release(self, request: ResourceRequest) -> None:
        if request in self.users:
            self.users.remove(request)
        elif request in self.queue:
            self.queue.remove(request)
        else:
            raise SimulationError("release of unknown request")
        self._grant()

    def _grant(self) -> None:
        while self.queue and len(self.users) < self.capacity:
            request = self.queue.pop(0)
            self.users.append(request)
            request.succeed()


class Gate:
    """A binary open/closed condition processes can wait on.

    ``wait()`` returns an event that fires immediately if the gate is
    open, otherwise when the gate next opens.  Opening releases *all*
    current waiters (broadcast).  This models ODR's swap conditions:
    "the 3D application pauses its rendering until the buffers are
    swapped".
    """

    def __init__(self, env: Environment, is_open: bool = False) -> None:
        self.env = env
        self._open = is_open
        self._waiters: List[Event] = []

    def wait(self) -> Event:
        event = Event(self.env)
        if self._open:
            event.succeed()
        else:
            self._waiters.append(event)
        return event

    def open(self) -> None:
        """Open the gate, releasing all waiters."""
        self._open = True
        waiters, self._waiters = self._waiters, []
        for event in waiters:
            event.succeed()

    def close(self) -> None:
        """Close the gate; subsequent waits will block."""
        self._open = False
