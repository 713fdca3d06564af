"""The discrete-event simulation engine.

The engine follows the classic event-calendar design: an
:class:`Environment` owns the simulation clock and a binary heap of
``(time, priority, sequence, step)`` entries, where each step is a
zero-argument callable that the loop pops and calls
(:meth:`Environment.call_later`, :meth:`Environment.call_at`,
:meth:`Environment.start`).  A simulated process is an :class:`Actor`:
each of its steps is a method that does its work and schedules the next
step, or hands it to a wait primitive (:mod:`repro.simcore.resources`)
as its waiter, so every step costs one heap entry and one call.

Tie-break contract: entries at the same time fire by priority
(:data:`URGENT` before :data:`NORMAL`), then in the order they were
scheduled (FIFO).  Zero-delay hand-offs therefore run after everything
already scheduled for the current instant.

Time is a plain ``float``.  Throughout this repository the unit is
**milliseconds** (the natural unit for frame timing), but the engine is
unit-agnostic.  :attr:`Environment.now` is a plain attribute so hot
paths read it without a property call; it is owned by the engine, which
alone writes it (as it pops entries and when ``run(until=...)`` ends).
Everything else must treat it as read-only.

The environment counts its own statistics — entries scheduled and
fired, peak calendar depth, actors started by name — and reports them
via :meth:`Environment.stats`, so a run needs no attached observer to
know what its engine did.

Determinism: all randomness in the wider library flows through
:class:`repro.simcore.rng.SeededRng`, so with the tie-break contract
above a simulation run is a pure function of its configuration and
seed.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, Dict, List, Optional, Tuple

__all__ = [
    "Actor",
    "Environment",
    "SimulationError",
    "Step",
]

#: A calendar entry: called with no arguments when it fires.
Step = Callable[[], None]

#: Priority for entries that must fire before normal entries at the same time.
URGENT = 0
#: Default entry priority.
NORMAL = 1


class SimulationError(RuntimeError):
    """Raised for illegal engine operations (stepping an empty calendar, ...)."""


class Actor:
    """Base of simulated processes, written as callbacks.

    An actor's steps are its own methods, scheduled as calendar entries
    (:meth:`Environment.call_later`) or handed to a wait primitive as
    its waiter; :meth:`Environment.start` schedules the first one and
    counts the actor as a process named :attr:`name`.  Because every
    step is a bound method of the actor (or a ``functools.partial`` of
    one), an attached profiler can attribute each entry to the actor
    that runs it.
    """

    #: Process name under which the actor is counted and profiled.
    name = "actor"


#: Paired (begin, end) step observers, resolved once per probe; each
#: receives the entry about to run.
_ResumeHooks = Tuple[Callable[[Any], None], Callable[[Any], None]]


def _resolve_resume_hooks(probe: Optional[Any]) -> Optional[_ResumeHooks]:
    """Extract the optional step-profiling hooks from a probe.

    Resolved once at probe-attach time so the per-step cost on the
    hot path is a single ``is None`` branch; probes without the
    extended interface (``on_resume_begin`` / ``on_resume_end``) keep
    working unchanged.  The hooks must be defined on the probe's
    *class* — detection looks at the type, never the instance, so
    attaching a probe performs no instance attribute access.
    """
    if probe is None:
        return None
    cls = type(probe)
    if (
        getattr(cls, "on_resume_begin", None) is None
        or getattr(cls, "on_resume_end", None) is None
    ):
        return None
    # class lookup succeeded, so these bind without __getattr__ fallback
    return (probe.on_resume_begin, probe.on_resume_end)


class Environment:
    """The simulation environment: clock and calendar.

    ``now`` is the current simulation time (milliseconds by library
    convention).  It is a plain attribute for speed, written only by the
    engine; treat it as read-only.

    Parameters
    ----------
    initial_time:
        Starting value of :attr:`now` (default ``0.0``).
    probe:
        Optional engine observer (duck-typed like
        :class:`repro.obs.probes.EngineProbe`) notified of scheduled
        entries, fired entries, and started actors.  ``None`` (the
        default) keeps the event loop's fast path free of observer
        calls — each hook site is one ``is None`` branch.
    """

    def __init__(self, initial_time: float = 0.0, probe: Optional[Any] = None) -> None:
        self.now = float(initial_time)
        self._queue: List[Tuple[float, int, int, Step]] = []
        #: Entries scheduled so far; also the calendar's FIFO tie-breaker.
        self._eid = 0
        self._peak_depth = 0
        self._process_names: Dict[str, int] = {}
        self._probe = probe
        self._resume_hooks = _resolve_resume_hooks(probe)

    # -- scheduling ----------------------------------------------------

    def call_later(self, delay: float, func: Step, priority: int = NORMAL) -> None:
        """Run ``func()`` as an entry ``delay`` time units from now."""
        # ``not >=`` also rejects NaN, which would corrupt the calendar.
        if not delay >= 0:
            raise ValueError(f"invalid delay {delay!r}")
        self._eid += 1
        queue = self._queue
        heapq.heappush(queue, (self.now + delay, priority, self._eid, func))
        depth = len(queue)
        if depth > self._peak_depth:
            self._peak_depth = depth
        if self._probe is not None:
            self._probe.on_event_scheduled(self.now + delay, priority, depth)

    def call_at(self, when: float, func: Step) -> None:
        """Run ``func()`` as an entry at absolute simulation time ``when``."""
        # ``not >=`` also rejects NaN, which would never fire.
        if not when >= self.now:
            raise ValueError(f"call_at({when}) is in the past (now={self.now})")
        self.call_later(when - self.now, func)

    def start(self, actor: Actor, first: Step) -> None:
        """Start ``actor``: run its ``first()`` step now, ahead of normal entries.

        The first step is an :data:`URGENT` entry at the current time,
        and the actor counts as a process named ``actor.name``.
        """
        self.call_later(0.0, first, URGENT)
        names = self._process_names
        names[actor.name] = names.get(actor.name, 0) + 1
        if self._probe is not None:
            self._probe.on_process_started(actor.name)

    def stats(self) -> Dict[str, Any]:
        """The engine's own counts so far, as a flat dict.

        ``events_fired`` is ``events_scheduled`` minus the entries still
        on the calendar: an entry leaves the heap only by firing.
        ``max_heap_depth`` is the calendar's peak length, counted after
        each push.
        """
        names = self._process_names
        return {
            "events_scheduled": self._eid,
            "events_fired": self._eid - len(self._queue),
            "max_heap_depth": self._peak_depth,
            "processes_started": sum(names.values()),
            "process_names": dict(sorted(names.items())),
        }

    # -- running -------------------------------------------------------

    def peek(self) -> float:
        """Time of the next scheduled entry, or ``inf`` if none."""
        return self._queue[0][0] if self._queue else float("inf")

    def step(self) -> None:
        """Fire the next calendar entry."""
        queue = self._queue
        if not queue:
            raise SimulationError("no more events")
        self.now, _, _, entry = heapq.heappop(queue)
        if self._probe is not None:
            self._probe.on_event_fired(self.now, len(queue))
            hooks = self._resume_hooks
            if hooks is not None:
                hooks[0](entry)
                entry()
                hooks[1](entry)
                return
        entry()

    def run(self, until: Optional[float] = None) -> None:
        """Run the simulation.

        With ``until=None`` run until the calendar is empty; with a
        number, fire every entry due by that time, then set the clock to
        it.  The loop pops and dispatches entries inline, exactly as
        :meth:`step` does, without a method call per entry; the probe
        costs one ``is None`` branch per entry.
        """
        if until is None:
            horizon = float("inf")
        else:
            horizon = float(until)
            if not horizon >= self.now:  # also rejects NaN
                raise ValueError(f"until={horizon} is in the past (now={self.now})")
        queue = self._queue
        pop = heapq.heappop
        probe = self._probe
        hooks = self._resume_hooks
        while queue and queue[0][0] <= horizon:
            now, _, _, entry = pop(queue)
            self.now = now
            if probe is not None:
                probe.on_event_fired(now, len(queue))
                if hooks is not None:
                    hooks[0](entry)
                    entry()
                    hooks[1](entry)
                    continue
            entry()
        if until is not None:
            self.now = horizon
