"""The sim-engine self-profiler: where does the *host's* time go?

:class:`SimProfiler` is an :class:`~repro.obs.probes.EngineProbe`
extended with the engine's optional step hooks
(``on_resume_begin`` / ``on_resume_end`` — see
:class:`repro.simcore.engine.Environment`'s ``probe=``): every time the
engine runs a calendar entry, the profiler reads its injectable clock
before and after, attributing host wall time to

* the **simulated process** that ran (``app``, ``client``, ``proxy``,
  ``network``, ...): the name of the
  :class:`~repro.simcore.engine.Actor` whose step the entry is (entries
  of no actor, such as ``call_at`` callbacks, stay in the ``engine``
  remainder),
* its **pipeline stage** (a prefix mapping from process names —
  ``render``, ``encode``, ``transmit``, ``client``, ``inputs``,
  ``control``), with the un-attributed remainder reported as
  ``engine`` (heap operations, callback dispatch), so the per-stage
  table always sums to the profiled total,
* its **callsite** (the actor's step method: name, file, line), giving
  a top-K "hottest callsites" view.

It also samples the event-calendar depth over simulated time and
derives events/sec throughput.  Like every probe, it is opt-in: a run
without one pays only the engine's ``is None`` branches, covered by the
<5 % disabled-overhead guard in ``tests/test_obs_benchmark.py``.  All
clock reads go through the probe clock inherited from
:class:`EngineProbe` — injectable for deterministic tests, and the only
wall-clock path analyzer rule P1 sanctions.
"""

from __future__ import annotations

import os
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.obs.probes import EngineProbe
from repro.simcore.engine import Actor

__all__ = ["SimProfiler", "stage_for_process"]

#: Longest-prefix mapping from engine process names to pipeline stages.
_STAGE_PREFIXES: Tuple[Tuple[str, str], ...] = (
    ("app", "render"),
    ("odr-proxy", "encode"),
    ("proxy", "encode"),
    ("odr-network", "transmit"),
    ("network", "transmit"),
    ("client", "client"),
    ("input", "inputs"),
    ("fps-reporter", "control"),
    ("abr", "control"),
)


def stage_for_process(name: str) -> str:
    """Pipeline stage a process name belongs to (``other`` if unknown)."""
    for prefix, stage in _STAGE_PREFIXES:
        if name.startswith(prefix):
            return stage
    return "other"


class SimProfiler(EngineProbe):
    """Wall-time self-profiling of the discrete-event engine.

    Parameters
    ----------
    wallclock:
        Injectable clock (seconds); defaults to the probe clock.
    depth_sample_ms:
        Simulated-time bucket width for the event-queue-depth timeline.
    """

    def __init__(
        self,
        wallclock: Optional[Callable[[], float]] = None,
        depth_sample_ms: float = 250.0,
    ) -> None:
        super().__init__(wallclock=wallclock)
        if depth_sample_ms <= 0:
            raise ValueError("depth_sample_ms must be positive")
        self.depth_sample_ms = float(depth_sample_ms)
        #: Host seconds spent in each simulated process's steps, by name.
        self.wall_by_process: Dict[str, float] = {}
        #: Step counts by process name.
        self.resumes_by_process: Dict[str, int] = {}
        #: Host seconds by callsite ("name (file:line)").
        self.wall_by_callsite: Dict[str, float] = {}
        #: Peak calendar depth per simulated-time bucket.
        self._depth_buckets: Dict[int, int] = {}
        #: (id(actor), id(code)) -> (name, callsite) cache.
        self._identities: Dict[Tuple[int, int], Tuple[str, str]] = {}
        self._resume_started: float = 0.0
        self._resume_key: Optional[Tuple[str, str]] = None
        self._run_started: Optional[float] = None
        self._run_finished: Optional[float] = None

    # -- run framing -----------------------------------------------------

    def start(self) -> None:
        """Mark the start of the profiled region (before ``env.run``)."""
        self._run_started = self._perf_counter()

    def finish(self) -> None:
        """Mark the end of the profiled region (after ``env.run``)."""
        self._run_finished = self._perf_counter()

    # -- engine-facing hooks ---------------------------------------------

    def on_event_fired(self, now_ms: float, heap_depth: int) -> None:
        super().on_event_fired(now_ms, heap_depth)
        bucket = int(now_ms // self.depth_sample_ms)
        previous = self._depth_buckets.get(bucket)
        if previous is None or heap_depth > previous:
            self._depth_buckets[bucket] = heap_depth

    def _identity(self, target: Any) -> Optional[Tuple[str, str]]:
        """(process name, callsite) of an entry; None for an entry that
        is no actor's step."""
        func = getattr(target, "func", target)  # a functools.partial's callable
        owner = getattr(func, "__self__", None)
        if not isinstance(owner, Actor):
            return None
        code = func.__func__.__code__
        key = (id(owner), id(code))
        cached = self._identities.get(key)
        if cached is not None:
            return cached
        filename = os.path.basename(str(code.co_filename))
        identity = (str(owner.name), f"{code.co_name} ({filename}:{code.co_firstlineno})")
        self._identities[key] = identity
        return identity

    def on_resume_begin(self, target: Any) -> None:
        """The engine is about to run a calendar entry."""
        self._resume_key = self._identity(target)
        self._resume_started = self._perf_counter()

    def on_resume_end(self, target: Any) -> None:
        """The entry returned control to the engine."""
        key = self._resume_key
        if key is None:
            return
        elapsed = self._perf_counter() - self._resume_started
        self._resume_key = None
        name, callsite = key
        self.wall_by_process[name] = self.wall_by_process.get(name, 0.0) + elapsed
        self.resumes_by_process[name] = self.resumes_by_process.get(name, 0) + 1
        self.wall_by_callsite[callsite] = (
            self.wall_by_callsite.get(callsite, 0.0) + elapsed
        )

    # -- reading ---------------------------------------------------------

    @property
    def total_wall_s(self) -> Optional[float]:
        """Wall seconds between :meth:`start` and :meth:`finish`."""
        if self._run_started is None or self._run_finished is None:
            return None
        return self._run_finished - self._run_started

    @property
    def attributed_wall_s(self) -> float:
        """Wall seconds attributed to actor steps."""
        return sum(self.wall_by_process.values())

    def events_per_sec(self) -> Optional[float]:
        """Fired-event throughput over the profiled region."""
        total = self.total_wall_s
        if total is None or total <= 0.0:
            return None
        return self.events_fired / total

    def wall_by_stage(self) -> Dict[str, float]:
        """Attributed wall seconds per pipeline stage, plus ``engine``.

        The ``engine`` row is the profiled total minus everything
        attributed to actors (heap churn, entries of no actor), so the
        rows sum to :attr:`total_wall_s` whenever
        the run was framed with :meth:`start`/:meth:`finish`.
        """
        stages: Dict[str, float] = {}
        for name, wall in self.wall_by_process.items():
            stage = stage_for_process(name)
            stages[stage] = stages.get(stage, 0.0) + wall
        total = self.total_wall_s
        if total is not None:
            stages["engine"] = max(0.0, total - self.attributed_wall_s)
        return dict(sorted(stages.items(), key=lambda item: -item[1]))

    def top_callsites(self, k: int = 10) -> List[Tuple[str, float]]:
        """The ``k`` callsites with the most attributed wall time."""
        ranked = sorted(self.wall_by_callsite.items(), key=lambda item: -item[1])
        return ranked[: max(0, k)]

    def depth_timeline(self) -> List[Tuple[float, int]]:
        """(simulated ms, peak calendar depth) per sample bucket."""
        return [
            (bucket * self.depth_sample_ms, depth)
            for bucket, depth in sorted(self._depth_buckets.items())
        ]

    def summary(self) -> Dict[str, object]:
        """Flat dict for JSONL export / ledger records / CLI display."""
        base = super().summary()
        base.update(
            {
                "total_wall_s": self.total_wall_s,
                "attributed_wall_s": self.attributed_wall_s,
                "events_per_sec": self.events_per_sec(),
                "wall_by_stage": self.wall_by_stage(),
                "wall_by_process": dict(sorted(self.wall_by_process.items())),
                "resumes_by_process": dict(sorted(self.resumes_by_process.items())),
                "top_callsites": [
                    {"callsite": callsite, "wall_s": wall}
                    for callsite, wall in self.top_callsites()
                ],
                "queue_depth_timeline": [
                    {"t_ms": t, "depth": depth} for t, depth in self.depth_timeline()
                ],
            }
        )
        return base

    def report(self, top_k: int = 10) -> str:
        """Human-readable profile table."""
        lines: List[str] = []
        total = self.total_wall_s
        throughput = self.events_per_sec()
        header = f"engine profile: {self.events_fired} events fired"
        if throughput is not None:
            header += f", {throughput:,.0f} events/s"
        if total is not None:
            header += f", {total * 1000.0:.1f} ms wall"
        lines.append(header)
        lines.append(
            f"  calendar   : peak depth {self.max_heap_depth}, "
            f"{self.processes_started} processes started"
        )
        stages = self.wall_by_stage()
        stage_total = sum(stages.values())
        if stage_total > 0:
            lines.append("  stage wall time:")
            for stage, wall in stages.items():
                bar = "#" * max(1, int(round(30 * wall / stage_total)))
                lines.append(
                    f"    {stage:10s} {wall * 1000.0:9.2f} ms "
                    f"{wall / stage_total:6.1%}  {bar}"
                )
        top = self.top_callsites(top_k)
        if top:
            lines.append(f"  top {len(top)} callsites:")
            for callsite, wall in top:
                lines.append(f"    {wall * 1000.0:9.2f} ms  {callsite}")
        timeline = self.depth_timeline()
        if timeline:
            peak_t, peak_depth = max(timeline, key=lambda item: item[1])
            lines.append(
                f"  queue depth: peak {peak_depth} at t={peak_t:.0f} ms "
                f"({len(timeline)} samples every {self.depth_sample_ms:.0f} ms)"
            )
        return "\n".join(lines)
