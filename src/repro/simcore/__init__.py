"""Discrete-event simulation core.

``repro.simcore`` is a small, self-contained discrete-event simulation
(DES) engine in the style of SimPy.  Simulation logic is written either
as Python generator functions ("processes") that ``yield`` events
(timeouts, conditions, other processes, ...) and are resumed by the
environment when those events fire, or as callback actors whose steps
are plain calendar entries (the pipeline's per-frame stage loops).

The engine is the substrate for every experiment in this repository: the
cloud-3D pipeline (:mod:`repro.pipeline`), the FPS regulators
(:mod:`repro.regulators`), and ODR itself (:mod:`repro.core`) all run
as simcore processes and actors.

Public API
----------
:class:`Environment`
    The event loop: clock, scheduler, process factory.
:class:`Event`, :class:`Timeout`, :class:`Process`
    Event primitives.
:class:`Actor`
    Base of callback actors (processes written as plain entries).
:class:`Interrupt`
    Exception thrown into a process by :meth:`Process.interrupt`.
:class:`AllOf`, :class:`AnyOf`
    Composite events.
:class:`Store`, :class:`Resource`, :class:`Gate`
    Shared-state synchronization primitives.
:class:`SeededRng`
    Deterministic per-component random streams.
:class:`IntervalTrace`
    Busy-interval recorder used by the hardware models.
"""

from repro.simcore.engine import (
    Actor,
    AllOf,
    AnyOf,
    Environment,
    Event,
    Interrupt,
    Process,
    ProcessGenerator,
    SimulationError,
    Step,
    Timeout,
)
from repro.simcore.resources import Gate, Resource, Store
from repro.simcore.rng import SeededRng
from repro.simcore.tracing import IntervalTrace, TraceRecord

__all__ = [
    "Actor",
    "AllOf",
    "AnyOf",
    "Environment",
    "Event",
    "Gate",
    "Interrupt",
    "IntervalTrace",
    "Process",
    "ProcessGenerator",
    "Resource",
    "SeededRng",
    "SimulationError",
    "Step",
    "Store",
    "Timeout",
    "TraceRecord",
]
