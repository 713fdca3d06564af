"""The discrete-event simulation engine.

The engine follows the classic event-calendar design:

* an :class:`Environment` owns the simulation clock and a binary heap of
  calendar entries ordered by ``(time, priority, sequence)``;
* an :class:`Event` is a one-shot occurrence with a value (or an
  exception) and a list of callbacks;
* a :class:`Process` wraps a Python generator.  Each ``yield`` hands an
  event back to the engine; when that event fires, the generator is
  resumed with the event's value (or the event's exception is thrown
  into it);
* an :class:`Actor` is a process written as callbacks: each step is a
  method that does its work and schedules the next step as a *plain
  entry* (:meth:`Environment.call_later`), so a step costs one heap
  entry and one call, without an :class:`Event` object or a generator
  resume.

Calendar entries come in two kinds.  An :class:`Event` entry fires by
running the event's callbacks.  A plain entry is a zero-argument
callable that ``step`` calls as is (:meth:`Environment.call_later`,
:meth:`Environment.call_at`, :meth:`Environment.start`).  Both kinds
draw their sequence number from the same counter, count toward the same
statistics and peak depth, and are reported to an attached probe the
same way, so converting a loop from a generator to an actor leaves the
calendar entry-for-entry identical when every resume becomes one plain
entry at the same time and priority.

Tie-break contract: entries at the same time fire by priority
(:data:`URGENT` before :data:`NORMAL`), then in the order they were
scheduled (FIFO).  Zero-delay hand-offs therefore run after everything
already scheduled for the current instant, exactly as the event the
generator would have waited on.

When to write which: an actor for a hot loop that runs for the whole
simulation and waits on one thing at a time (the pipeline's stage
loops); a generator process for cold or complex control flow (input
streams, periodic reporters, fault windows), where readability beats
the per-step saving.

Time is a plain ``float``.  Throughout this repository the unit is
**milliseconds** (the natural unit for frame timing), but the engine is
unit-agnostic.  :attr:`Environment.now` is a plain attribute so hot
paths read it without a property call; it is owned by the engine, which
alone writes it (as it pops entries and when ``run(until=...)`` ends).
Everything else must treat it as read-only.

The environment counts its own statistics — entries scheduled and
fired, peak calendar depth, processes and actors started by name — and
reports them via :meth:`Environment.stats`, so a run needs no attached
observer to know what its engine did.

Determinism: all randomness in the wider library flows through
:class:`repro.simcore.rng.SeededRng`, so with the tie-break contract
above a simulation run is a pure function of its configuration and
seed.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, Dict, Generator, Iterable, List, Optional, Tuple, Union

__all__ = [
    "Actor",
    "AllOf",
    "AnyOf",
    "Environment",
    "Event",
    "Interrupt",
    "Process",
    "ProcessGenerator",
    "SimulationError",
    "Step",
    "Timeout",
]

#: A callback invoked when an event is processed.
Callback = Callable[["Event"], None]

#: A plain calendar entry: called with no arguments when it fires.
Step = Callable[[], None]

#: The generator type of a simulation process: yields events, may be
#: resumed with any event value, may return any value.
ProcessGenerator = Generator["Event", Any, Any]

#: Priority for events that must fire before normal events at the same time.
URGENT = 0
#: Default event priority.
NORMAL = 1

_PENDING = object()


class SimulationError(RuntimeError):
    """Raised for illegal engine operations (double trigger, bad yield, ...)."""


class Interrupt(Exception):
    """Thrown into a process when :meth:`Process.interrupt` is called.

    The interrupt ``cause`` is an arbitrary object supplied by the
    interrupter; ODR's PriorityFrame, for example, interrupts the render
    loop's swap wait with the triggering user input as the cause.
    """

    @property
    def cause(self) -> Any:
        """The object passed to :meth:`Process.interrupt`."""
        return self.args[0]


class Event:
    """A one-shot occurrence on the simulation timeline.

    An event starts *pending*, becomes *triggered* when given a value via
    :meth:`succeed` (or an exception via :meth:`fail`), and *processed*
    once the environment has run its callbacks.
    """

    def __init__(self, env: "Environment") -> None:
        self.env = env
        self.callbacks: Optional[List[Callback]] = []
        self._value: Any = _PENDING
        self._ok: Optional[bool] = None
        #: Set by Condition events to clean up when a sibling fires first.
        self._defused = False

    # -- state ---------------------------------------------------------

    @property
    def triggered(self) -> bool:
        """True once the event has a value (it may not be processed yet)."""
        return self._value is not _PENDING

    @property
    def processed(self) -> bool:
        """True once callbacks have run."""
        return self.callbacks is None

    @property
    def ok(self) -> bool:
        """True if the event succeeded.  Only valid once triggered."""
        if self._ok is None:
            raise SimulationError("event not yet triggered")
        return self._ok

    @property
    def value(self) -> Any:
        """The event's value (or exception).  Only valid once triggered."""
        if self._value is _PENDING:
            raise SimulationError("event not yet triggered")
        return self._value

    # -- triggering ----------------------------------------------------

    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully with ``value``."""
        if self.triggered:
            raise SimulationError(f"{self!r} already triggered")
        self._ok = True
        self._value = value
        self.env.schedule(self)
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event with an exception."""
        if not isinstance(exception, BaseException):
            raise TypeError(f"{exception!r} is not an exception")
        if self.triggered:
            raise SimulationError(f"{self!r} already triggered")
        self._ok = False
        self._value = exception
        self.env.schedule(self)
        return self

    def __repr__(self) -> str:
        state = "triggered" if self.triggered else "pending"
        return f"<{type(self).__name__} {state} at t={self.env.now:.3f}>"


class Timeout(Event):
    """An event that fires ``delay`` time units after it is created."""

    def __init__(self, env: "Environment", delay: float, value: Any = None) -> None:
        # ``not >=`` also rejects NaN, which would corrupt the calendar.
        if not delay >= 0:
            raise ValueError(f"invalid timeout delay {delay!r}")
        # The Event fields, set directly: a timeout is the most common event.
        self.env = env
        self.callbacks = []
        self._value = value
        self._ok = True
        self._defused = False
        self.delay = delay
        env.schedule(self, delay)

    @property
    def triggered(self) -> bool:  # a Timeout is born triggered
        return True


class Initialize(Event):
    """Internal event that starts a freshly created process."""

    def __init__(self, env: "Environment", process: "Process") -> None:
        super().__init__(env)
        assert self.callbacks is not None  # freshly constructed, unprocessed
        self.callbacks.append(process._resume)
        self._ok = True
        self._value = None
        env.schedule(self, priority=URGENT)


class Process(Event):
    """A running simulation process wrapping a generator.

    A process is itself an event: it triggers with the generator's return
    value when the generator finishes, so processes can ``yield`` other
    processes to join them.
    """

    def __init__(
        self, env: "Environment", generator: ProcessGenerator, name: str = ""
    ) -> None:
        if not hasattr(generator, "send") or not hasattr(generator, "throw"):
            raise TypeError(f"{generator!r} is not a generator")
        super().__init__(env)
        self._generator = generator
        self.name = name or getattr(generator, "__name__", "process")
        #: The event this process is currently waiting on (None if running
        #: or finished).
        self._target: Optional[Event] = None
        Initialize(env, self)

    @property
    def is_alive(self) -> bool:
        """True while the generator has not finished."""
        return self._value is _PENDING

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at the current time.

        Interrupting a finished process is an error; interrupting a
        process that is about to be resumed is handled gracefully (the
        interrupt wins).
        """
        if not self.is_alive:
            raise SimulationError(f"cannot interrupt finished {self!r}")
        if self._target is None:
            # The process has just been created and not yet started, or is
            # being resumed this instant: deliver the interrupt via an
            # immediate failing event.
            raise SimulationError(f"cannot interrupt uninitialized {self!r}")
        # Detach from the waited-on event and schedule resumption with the
        # interrupt exception.
        event = Event(self.env)
        event._ok = False
        event._value = Interrupt(cause)
        event._defused = True
        assert event.callbacks is not None  # freshly constructed, unprocessed
        event.callbacks.append(self._resume)
        self.env.schedule(event, priority=URGENT)
        if self._target.callbacks is not None and self._resume in self._target.callbacks:
            self._target.callbacks.remove(self._resume)
        self._target = None

    # -- engine plumbing -----------------------------------------------

    def _resume(self, event: Event) -> None:
        """Resume the generator with the value/exception of ``event``."""
        hooks = self.env._resume_hooks
        if hooks is not None:
            hooks[0](self)
        while True:
            try:
                if event._ok:
                    next_event = self._generator.send(event._value)
                else:
                    event._defused = True
                    exc = event._value
                    if not isinstance(exc, BaseException):
                        exc = SimulationError(repr(exc))
                    next_event = self._generator.throw(exc)
            except StopIteration as stop:
                self._target = None
                self._ok = True
                self._value = stop.value
                self.env.schedule(self)
                break
            except BaseException as exc:
                self._target = None
                self._ok = False
                self._value = exc
                self.env.schedule(self)
                break

            if not isinstance(next_event, Event):
                exc = SimulationError(
                    f"process {self.name!r} yielded non-event {next_event!r}"
                )
                event = Event(self.env)
                event._ok = False
                event._value = exc
                continue

            if next_event.callbacks is not None:
                # Pending or triggered-but-unprocessed: wait for it.
                self._target = next_event
                next_event.callbacks.append(self._resume)
                break
            # Already processed: loop around immediately with its value.
            event = next_event

        if hooks is not None:
            hooks[1](self)

    def __repr__(self) -> str:
        return f"<Process {self.name!r} {'alive' if self.is_alive else 'done'}>"


class Condition(Event):
    """Base class for composite events (:class:`AllOf` / :class:`AnyOf`)."""

    def __init__(self, env: "Environment", events: Iterable[Event]) -> None:
        super().__init__(env)
        self._events: List[Event] = list(events)
        self._count = 0
        for event in self._events:
            if event.env is not env:
                raise SimulationError("events from different environments")
        # Register after validation so no callback leaks on error.
        for event in self._events:
            if event.callbacks is None:
                self._check(event)
            else:
                event.callbacks.append(self._check)
        # An empty condition is vacuously satisfied (SimPy semantics).
        if not self._events and not self.triggered and self._evaluate(0, 0):
            self.succeed(ConditionValue([]))

    def _evaluate(self, count: int, total: int) -> bool:
        raise NotImplementedError

    def _check(self, event: Event) -> None:
        if self.triggered:
            return
        if not event._ok:
            event._defused = True
            self.fail(event._value)
            return
        self._count += 1
        if self._evaluate(self._count, len(self._events)):
            self.succeed(ConditionValue(self._events))


class ConditionValue:
    """Mapping-like view of the triggered events of a condition."""

    def __init__(self, events: List[Event]) -> None:
        self.events = events

    def __getitem__(self, event: Event) -> Any:
        if not event.triggered:
            raise KeyError(event)
        return event.value

    def __contains__(self, event: Event) -> bool:
        return event in self.events and event.triggered

    def todict(self) -> Dict[Event, Any]:
        return {e: e.value for e in self.events if e.triggered}


class AllOf(Condition):
    """Triggers once *all* constituent events have triggered."""

    def _evaluate(self, count: int, total: int) -> bool:
        return count == total


class AnyOf(Condition):
    """Triggers once *any* constituent event has triggered."""

    def _evaluate(self, count: int, total: int) -> bool:
        return count >= 1 or total == 0


class Actor:
    """Base of callback actors: simulated processes without a generator.

    An actor's steps are its own methods, scheduled as plain entries
    (:meth:`Environment.call_later`) or handed to a wait primitive as
    its waiter; :meth:`Environment.start` schedules the first one and
    counts the actor as a process named :attr:`name`.  Because every
    step is a bound method of the actor (or a ``functools.partial`` of
    one), an attached profiler can attribute each plain entry to the
    actor that runs it.
    """

    #: Process name under which the actor is counted and profiled.
    name = "actor"


#: Paired (begin, end) resume observers, resolved once per probe; each
#: receives the :class:`Process` being resumed or the plain entry about
#: to run.
_ResumeHooks = Tuple[Callable[[Any], None], Callable[[Any], None]]


def _resolve_resume_hooks(probe: Optional[Any]) -> Optional[_ResumeHooks]:
    """Extract the optional resume-profiling hooks from a probe.

    Resolved once at probe-attach time so the per-resume cost on the
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
    """The simulation environment: clock, event calendar, process factory.

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
        events, fired events, and started processes.  ``None`` (the
        default) keeps the event loop's fast path free of observer
        calls — each hook site is one ``is None`` branch.
    """

    def __init__(self, initial_time: float = 0.0, probe: Optional[Any] = None) -> None:
        self.now = float(initial_time)
        self._queue: List[Tuple[float, int, int, Union[Event, Step]]] = []
        #: Entries scheduled so far; also the calendar's FIFO tie-breaker.
        self._eid = 0
        self._peak_depth = 0
        self._process_names: Dict[str, int] = {}
        self._probe = probe
        self._resume_hooks = _resolve_resume_hooks(probe)

    # -- scheduling ----------------------------------------------------

    def schedule(self, event: Event, delay: float = 0.0, priority: int = NORMAL) -> None:
        """Put ``event`` on the calendar ``delay`` time units from now."""
        self._eid += 1
        queue = self._queue
        heapq.heappush(queue, (self.now + delay, priority, self._eid, event))
        depth = len(queue)
        if depth > self._peak_depth:
            self._peak_depth = depth
        if self._probe is not None:
            self._probe.on_event_scheduled(self.now + delay, priority, depth)

    def call_later(self, delay: float, func: Step, priority: int = NORMAL) -> None:
        """Run ``func()`` as a plain entry ``delay`` time units from now.

        The entry's time is ``now + delay``, computed exactly as a
        :class:`Timeout`'s, and a NaN or negative ``delay`` is rejected
        the same way, so an actor step replaces a generator's timeout
        bit for bit.
        """
        # ``not >=`` also rejects NaN, which would corrupt the calendar.
        if not delay >= 0:
            raise ValueError(f"invalid timeout delay {delay!r}")
        self._eid += 1
        queue = self._queue
        heapq.heappush(queue, (self.now + delay, priority, self._eid, func))
        depth = len(queue)
        if depth > self._peak_depth:
            self._peak_depth = depth
        if self._probe is not None:
            self._probe.on_event_scheduled(self.now + delay, priority, depth)

    def stats(self) -> Dict[str, Any]:
        """The engine's own counts so far, as a flat dict.

        ``events_fired`` is ``events_scheduled`` minus the entries still
        on the calendar: an entry leaves the heap only by firing.  Both
        count :class:`Event` and plain entries alike.
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

    def peek(self) -> float:
        """Time of the next scheduled event, or ``inf`` if none."""
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
            if hooks is not None and not isinstance(entry, Event):
                hooks[0](entry)
                entry()
                hooks[1](entry)
                return
        if isinstance(entry, Event):
            self._fire(entry)
        else:
            entry()

    def _fire(self, event: Event) -> None:
        """Run a popped event's callbacks; surface an unhandled failure."""
        callbacks, event.callbacks = event.callbacks, None
        if callbacks is None:
            raise SimulationError(f"{event!r} processed twice")
        for callback in callbacks:
            callback(event)
        if not event._ok and not event._defused:
            # An unhandled failure: surface it instead of losing it.
            exc = event._value
            if isinstance(exc, BaseException):
                raise exc
            raise SimulationError(repr(exc))

    def run(self, until: Optional[Union[float, Event]] = None) -> Any:
        """Run the simulation.

        ``until`` may be:

        * ``None`` — run until the calendar is empty;
        * a number — run until the clock reaches that time;
        * an :class:`Event` — run until that event triggers, returning its
          value.

        For ``None`` and a number the loop pops and dispatches entries
        inline, exactly as :meth:`step` does, without a method call per
        entry; the probe costs one ``is None`` branch per entry.
        """
        if isinstance(until, Event):
            stop = until
            while self._queue and not stop.processed:
                self.step()
            if not stop.triggered:
                raise SimulationError("run-until event never triggered")
            if not stop.ok:
                raise stop.value
            return stop.value
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
        fire = self._fire
        while queue and queue[0][0] <= horizon:
            now, _, _, entry = pop(queue)
            self.now = now
            if probe is not None:
                probe.on_event_fired(now, len(queue))
                if hooks is not None and not isinstance(entry, Event):
                    hooks[0](entry)
                    entry()
                    hooks[1](entry)
                    continue
            if isinstance(entry, Event):
                fire(entry)
            else:
                entry()
        if until is not None:
            self.now = horizon
        return None

    # -- factories -----------------------------------------------------

    def event(self) -> Event:
        """Create a pending event."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """Create an event that fires after ``delay``."""
        return Timeout(self, delay, value)

    def process(self, generator: ProcessGenerator, name: str = "") -> Process:
        """Start a new process from ``generator``."""
        started = Process(self, generator, name=name)
        self._count_started(started.name)
        return started

    def start(self, actor: Actor, first: Step) -> None:
        """Start ``actor``: run its ``first()`` step now, ahead of normal entries.

        The first step is scheduled as a process's first resume is (an
        :data:`URGENT` entry at the current time), and the actor counts
        as a process named ``actor.name``.
        """
        self.call_later(0.0, first, URGENT)
        self._count_started(actor.name)

    def _count_started(self, name: str) -> None:
        names = self._process_names
        names[name] = names.get(name, 0) + 1
        if self._probe is not None:
            self._probe.on_process_started(name)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        """Composite event that fires when all ``events`` have fired."""
        return AllOf(self, events)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        """Composite event that fires when any of ``events`` has fired."""
        return AnyOf(self, events)

    def call_at(self, when: float, func: Step) -> None:
        """Run ``func()`` as a plain entry at absolute simulation time ``when``."""
        # ``not >=`` also rejects NaN, which would never fire.
        if not when >= self.now:
            raise ValueError(f"call_at({when}) is in the past (now={self.now})")
        self.call_later(when - self.now, func)
