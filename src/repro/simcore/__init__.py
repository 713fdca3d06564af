"""Discrete-event simulation core.

``repro.simcore`` is a small, self-contained discrete-event simulation
(DES) engine: one heap of timestamped callables.  Simulation logic is
written as callback actors whose steps are calendar entries, each of
which does its work and schedules the next.

The engine is the substrate for every experiment in this repository: the
cloud-3D pipeline (:mod:`repro.pipeline`), the FPS regulators
(:mod:`repro.regulators`), and ODR itself (:mod:`repro.core`) all run
as simcore actors.

Public API
----------
:class:`Environment`
    The event loop: clock and calendar (``call_later``, ``call_at``,
    ``start``, ``run``, ``step``, ``peek``, ``stats``).
:class:`Actor`
    Base of simulated processes, written as callbacks.
:data:`Step`
    The type of a calendar entry: a zero-argument callable.
:class:`SimulationError`
    Raised for illegal engine operations.
:class:`Store`, :class:`Resource`, :class:`Gate`
    Shared-state synchronization primitives.
:class:`SeededRng`
    Deterministic per-component random streams.
:class:`IntervalTrace`
    Busy-interval recorder used by the hardware models.
"""

from repro.simcore.engine import Actor, Environment, SimulationError, Step
from repro.simcore.resources import Gate, Resource, Store
from repro.simcore.rng import SeededRng
from repro.simcore.tracing import IntervalTrace, TraceRecord

__all__ = [
    "Actor",
    "Environment",
    "Gate",
    "IntervalTrace",
    "Resource",
    "SeededRng",
    "SimulationError",
    "Step",
    "Store",
    "TraceRecord",
]
