"""Synchronization primitives built on the event engine.

These are the shared-state building blocks the cloud-3D pipeline is made
of: bounded FIFO stores model queues between pipeline stages, resources
model exclusive devices (the GPU, the encoder), and gates model binary
conditions processes can block on (ODR's buffer-swap waits).

Waiters are callbacks, the steps of an :class:`~repro.simcore.engine.Actor`.
A wait that can be served is never served inline: the waiter runs from a
zero-delay plain entry (:meth:`~repro.simcore.engine.Environment.call_later`),
scheduled at the moment the wait is satisfied, so a hand-off costs the
calendar exactly one entry and runs after everything already due at the
current instant.  Item-carrying waiters (:meth:`Store.get`) are called
with the item.
"""

from __future__ import annotations

from functools import partial
from typing import Any, Callable, List, Tuple

from repro.simcore.engine import Environment, SimulationError, Step

__all__ = ["Gate", "Resource", "Store"]


class Store:
    """A bounded FIFO store of items.

    ``put`` waits when the store is full; ``get`` waits when it is
    empty.  With ``capacity=1`` this is a classic single-slot hand-off
    buffer.
    """

    def __init__(self, env: Environment, capacity: float = float("inf")) -> None:
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.env = env
        self.capacity = capacity
        self.items: List[Any] = []
        self._put_waiters: List[Tuple[Any, Step]] = []
        self._get_waiters: List[Callable[[Any], None]] = []

    def __len__(self) -> int:
        return len(self.items)

    def put(self, item: Any, stored: Step) -> None:
        """Store ``item``; ``stored()`` runs once it is stored."""
        self._put_waiters.append((item, stored))
        self._dispatch()

    def get(self, got: Callable[[Any], None]) -> None:
        """Retrieve the oldest item; ``got(item)`` runs once it is taken."""
        self._get_waiters.append(got)
        self._dispatch()

    def try_put(self, item: Any) -> bool:
        """Non-blocking put: store ``item`` now and return True, or return
        False when the store is full or blocked putters are queued ahead.

        Unlike :meth:`put` it schedules no entry of its own, so a caller
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
        env = self.env
        progressed = True
        while progressed:
            progressed = False
            while self._put_waiters and len(self.items) < self.capacity:
                item, stored = self._put_waiters.pop(0)
                self.items.append(item)
                env.call_later(0.0, stored)
                progressed = True
            while self._get_waiters and self.items:
                got = self._get_waiters.pop(0)
                env.call_later(0.0, partial(got, self.items.pop(0)))
                progressed = True


class ResourceRequest:
    """One claim on a :class:`Resource`, queued or held; pass it to
    :meth:`Resource.release`."""

    __slots__ = ("granted",)

    def __init__(self, granted: Step) -> None:
        #: Runs (from its own entry) when the claim is granted.
        self.granted = granted


class Resource:
    """A counted exclusive resource with FIFO granting.

    Usage from an actor::

        self._request = resource.request(self._holding)
        ...
        def _holding(self):
            ...  # hold the resource
            resource.release(self._request)
    """

    def __init__(self, env: Environment, capacity: int = 1) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.env = env
        self.capacity = capacity
        self.users: List[ResourceRequest] = []
        self.queue: List[ResourceRequest] = []

    def request(self, granted: Step) -> ResourceRequest:
        """Queue a claim; ``granted()`` runs once it holds a slot."""
        request = ResourceRequest(granted)
        self.queue.append(request)
        self._grant()
        return request

    def release(self, request: ResourceRequest) -> None:
        """Give a held slot back, or withdraw a queued claim."""
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
            self.env.call_later(0.0, request.granted)


class Gate:
    """A binary open/closed condition processes can wait on.

    ``wait(waiter)`` runs ``waiter()`` right away (from its own entry) if
    the gate is open, otherwise when the gate next opens.  Opening
    releases *all* current waiters (broadcast).  This models ODR's swap
    conditions: "the 3D application pauses its rendering until the
    buffers are swapped".
    """

    def __init__(self, env: Environment, is_open: bool = False) -> None:
        self.env = env
        self._open = is_open
        self._waiters: List[Step] = []

    def wait(self, waiter: Step) -> None:
        if self._open:
            self.env.call_later(0.0, waiter)
        else:
            self._waiters.append(waiter)

    def open(self) -> None:
        """Open the gate, releasing all waiters."""
        self._open = True
        waiters, self._waiters = self._waiters, []
        for waiter in waiters:
            self.env.call_later(0.0, waiter)

    def close(self) -> None:
        """Close the gate; subsequent waits will block."""
        self._open = False
