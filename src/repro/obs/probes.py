"""Engine probes: introspection of the discrete-event core.

The simulation engine (:mod:`repro.simcore.engine`) is the hot path of
every experiment, so its observability hooks are *opt-in*: an
:class:`~repro.simcore.engine.Environment` constructed without a probe
pays only one ``is None`` branch per scheduled/fired event, and a
benchmark guard (``tests/test_obs_benchmark.py``) holds that under 5 %
of pre-instrumentation runtime.

The environment counts events, heap depth and processes itself
(:meth:`~repro.simcore.engine.Environment.stats`), which is all a
ledger row needs; a probe is for runs that want a per-event hook — the
wall-time sampling below, the determinism recorder, the profiler.

With a probe attached, the engine reports every scheduled event, every
fired event, and every started process.  :class:`EngineProbe`
aggregates those into the numbers that make engine-level hot spots and
runaway schedules visible:

* events scheduled / fired, and the calendar's peak heap depth;
* processes started (with per-name counts — a process name that keeps
  growing is a spawn leak);
* wall-clock seconds per simulated second, sampled at every simulated
  second boundary, which is the engine's own "how fast is the hardware
  letting us run" metric.

This module is the **only** sim-path module allowed to read the wall
clock (analyzer rule P1's sanctuary): wall time here is a read-only
*measurement* of the host, never an input to simulation behaviour, and
even that read is injectable — tests pass a fake ``wallclock`` so probe
arithmetic is itself deterministic.
"""

from __future__ import annotations

import time
from typing import Callable, Dict, List, Optional

__all__ = ["EngineProbe", "host_epoch", "host_wallclock"]


def host_epoch() -> float:
    """Host epoch seconds (``time.time``), comparable across processes.

    :func:`host_wallclock` is the right clock for intervals, but its
    epoch is unspecified per process; sweep-level telemetry
    (:mod:`repro.obs.sweep`) needs timestamps a parent and its pool
    workers can put on one timeline, which only the system clock
    provides.  Like every clock read, it lives here — the single
    R2-allowlisted site — and is a measurement *about* execution, never
    an input to simulation behaviour.
    """
    return time.time()


def host_wallclock() -> float:
    """Monotonic host wall-clock read, in seconds.

    Every wall-clock measurement outside this module (the experiment
    runner's run-cost accounting, the sim-engine self-profiler) must go
    through this function — or through an injected replacement — rather
    than importing :mod:`time` itself, keeping ``repro.obs.probes`` the
    single R2-allowlisted clock site.
    """
    return time.perf_counter()


class EngineProbe:
    """Collects engine-level statistics from an attached Environment.

    The three ``on_*`` methods are the engine-facing hook interface;
    anything with the same methods can be passed as the environment's
    ``probe``.
    """

    def __init__(self, wallclock: Optional[Callable[[], float]] = None) -> None:
        #: Clock used for wall-time sampling (injectable for tests).
        self._perf_counter: Callable[[], float] = (
            wallclock if wallclock is not None else time.perf_counter
        )
        self.events_scheduled = 0
        self.events_fired = 0
        self.max_heap_depth = 0
        self.processes_started = 0
        self.process_names: Dict[str, int] = {}
        #: (simulated second, wall seconds spent inside it) samples.
        self.wall_per_sim_second: List[float] = []
        self._current_sim_second: Optional[int] = None
        self._second_wall_start: float = 0.0

    # -- engine-facing hooks ---------------------------------------------

    def on_event_scheduled(self, time_ms: float, priority: int, heap_depth: int) -> None:
        """An event was pushed on the calendar (depth counts it)."""
        self.events_scheduled += 1
        if heap_depth > self.max_heap_depth:
            self.max_heap_depth = heap_depth

    def on_event_fired(self, now_ms: float, heap_depth: int) -> None:
        """An entry was popped and is about to run."""
        self.events_fired += 1
        second = int(now_ms // 1000.0)
        if second != self._current_sim_second:
            wall = self._perf_counter()
            if self._current_sim_second is not None:
                # Attribute the elapsed wall time to each simulated second
                # crossed (usually exactly one).
                gap = max(1, second - self._current_sim_second)
                per_second = (wall - self._second_wall_start) / gap
                for _ in range(gap):
                    self.wall_per_sim_second.append(per_second)
            self._current_sim_second = second
            self._second_wall_start = wall

    def on_process_started(self, name: str) -> None:
        """An actor named ``name`` was started on the environment."""
        self.processes_started += 1
        self.process_names[name] = self.process_names.get(name, 0) + 1

    # -- reading ---------------------------------------------------------

    @property
    def pending_events(self) -> int:
        """Events scheduled but not yet fired."""
        return self.events_scheduled - self.events_fired

    def mean_wall_per_sim_second(self) -> Optional[float]:
        """Average wall-clock seconds per simulated second, if sampled."""
        if not self.wall_per_sim_second:
            return None
        return sum(self.wall_per_sim_second) / len(self.wall_per_sim_second)

    def summary(self) -> Dict[str, object]:
        """Flat dict for JSONL export / CLI display."""
        return {
            "events_scheduled": self.events_scheduled,
            "events_fired": self.events_fired,
            "pending_events": self.pending_events,
            "max_heap_depth": self.max_heap_depth,
            "processes_started": self.processes_started,
            "process_names": dict(sorted(self.process_names.items())),
            "wall_per_sim_second_mean": self.mean_wall_per_sim_second(),
            "sim_seconds_sampled": len(self.wall_per_sim_second),
        }
