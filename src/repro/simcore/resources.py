"""Synchronization primitives built on the event engine.

These are the shared-state building blocks the cloud-3D pipeline is made
of: FIFO stores model queues between pipeline stages, resources
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
from typing import Any, Callable, List

from repro.simcore.engine import Environment, SimulationError, Step

__all__ = ["Gate", "Resource", "Store"]


class Store:
    """An unbounded FIFO store of items.

    ``put`` never waits; ``get`` waits when the store is empty.
    """

    def __init__(self, env: Environment) -> None:
        self.env = env
        self.items: List[Any] = []
        self._get_waiters: List[Callable[[Any], None]] = []

    def __len__(self) -> int:
        return len(self.items)

    def put(self, item: Any) -> None:
        """Store ``item`` now.

        The put schedules no entry of its own; a waiting getter is
        served from one zero-delay entry.
        """
        self.items.append(item)
        self._dispatch()

    def get(self, got: Callable[[Any], None]) -> None:
        """Retrieve the oldest item; ``got(item)`` runs once it is taken."""
        self._get_waiters.append(got)
        self._dispatch()

    # -- internals -----------------------------------------------------

    def _dispatch(self) -> None:
        """Hand the oldest items to the oldest waiting getters."""
        while self._get_waiters and self.items:
            got = self._get_waiters.pop(0)
            self.env.call_later(0.0, partial(got, self.items.pop(0)))


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
