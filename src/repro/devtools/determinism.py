"""Runtime determinism verification: run twice, hash, compare.

``odr-sim analyze`` (static) and ``mypy`` (types) catch determinism
hazards a human can name in advance; this module catches the ones
nobody named.  :func:`verify_determinism` runs one small scenario
**twice under the same seed**, fingerprints each run — a SHA-256 over
the *entire event schedule* (every scheduled event's time/priority/heap
depth, every fired event, every started process, bit-exact via
IEEE-754 encoding) plus every frame span — and fails if the two
digests diverge.

Any nondeterminism that affects behaviour must perturb at least one
event time, one scheduling order, or one frame's journey, so the
schedule hash is a high-sensitivity tripwire: a single late event in a
20-second run flips the digest.

CI runs this as a separate job (``odr-sim verify-determinism``); the
test suite additionally property-tests it across random seeds and
checks that a deliberately wall-clock-perturbed system is caught.
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Optional

from repro.obs.probes import EngineProbe
from repro.obs.telemetry import Telemetry

if TYPE_CHECKING:  # pragma: no cover
    from repro.faults.spec import FaultPlan

__all__ = [
    "DeterminismReport",
    "RunFingerprint",
    "ScheduleRecorder",
    "fingerprint_run",
    "verify_determinism",
]


class ScheduleRecorder(EngineProbe):
    """Engine probe that folds the whole event schedule into a SHA-256.

    Every hook encodes its arguments bit-exactly (doubles via
    ``struct.pack('<d', ...)``), so two runs collide only if their event
    calendars are identical in times, priorities, heap depths, ordering,
    and process starts.  The wall clock is pinned to zero — the recorder
    must never make the fingerprint depend on host time.
    """

    def __init__(self) -> None:
        super().__init__(wallclock=lambda: 0.0)
        self._digest = hashlib.sha256()

    def on_event_scheduled(self, time_ms: float, priority: int, heap_depth: int) -> None:
        super().on_event_scheduled(time_ms, priority, heap_depth)
        self._digest.update(b"s")
        self._digest.update(struct.pack("<dqq", time_ms, priority, heap_depth))

    def on_event_fired(self, now_ms: float, heap_depth: int) -> None:
        super().on_event_fired(now_ms, heap_depth)
        self._digest.update(b"f")
        self._digest.update(struct.pack("<dq", now_ms, heap_depth))

    def on_process_started(self, name: str) -> None:
        super().on_process_started(name)
        self._digest.update(b"p")
        self._digest.update(name.encode("utf-8"))

    def fold_spans(self, telemetry: Telemetry) -> None:
        """Fold every frame span (stages, drops, display) into the digest."""
        for span in telemetry.spans:
            self._digest.update(b"F")
            self._digest.update(
                struct.pack("<qd?", span.frame_id, span.opened_at, span.priority)
            )
            for interval in span.intervals:
                self._digest.update(interval.stage.encode("utf-8"))
                end = interval.end if interval.end is not None else float("nan")
                self._digest.update(struct.pack("<dd", interval.start, end))
            if span.drop_reason is not None:
                self._digest.update(b"D" + span.drop_reason.encode("utf-8"))
            if span.closed_at is not None:
                self._digest.update(struct.pack("<d", span.closed_at))

    def hexdigest(self) -> str:
        return self._digest.hexdigest()


@dataclass(frozen=True)
class RunFingerprint:
    """Digest + headline counters of one fingerprinted run."""

    digest: str
    events_scheduled: int
    events_fired: int
    processes_started: int
    spans: int


@dataclass(frozen=True)
class DeterminismReport:
    """Outcome of a same-seed double run."""

    seed: int
    first: RunFingerprint
    second: RunFingerprint

    @property
    def ok(self) -> bool:
        return self.first.digest == self.second.digest

    def describe(self) -> str:
        status = "MATCH" if self.ok else "DIVERGED"
        lines = [
            f"determinism check (seed={self.seed}): {status}",
            f"  run 1: {self.first.digest}  "
            f"({self.first.events_fired} events, {self.first.spans} spans)",
            f"  run 2: {self.second.digest}  "
            f"({self.second.events_fired} events, {self.second.spans} spans)",
        ]
        return "\n".join(lines)


def fingerprint_run(
    seed: int,
    benchmark: str = "IM",
    regulator: str = "ODR60",
    platform: str = "private",
    resolution: str = "720p",
    duration_ms: float = 2000.0,
    warmup_ms: float = 500.0,
    mutate: Optional[Callable[[object, int], None]] = None,
    run_index: int = 0,
    fault_plan: Optional["FaultPlan"] = None,
) -> RunFingerprint:
    """Run one scenario and return its schedule fingerprint.

    ``mutate`` (test hook) receives the constructed
    :class:`~repro.pipeline.system.CloudSystem` and ``run_index`` before
    the run starts; the determinism tests use it to splice wall-clock
    noise into a sampler and prove the verifier catches it.
    ``fault_plan`` injects faults (:mod:`repro.faults`) into both runs —
    fault application draws from seeded RNG streams, so a faulted run
    must fingerprint identically too.
    """
    # Imported lazily: devtools must stay importable without dragging the
    # whole pipeline in (the linter half has no simulation dependencies).
    from repro.pipeline import CloudSystem, SystemConfig
    from repro.regulators import make_regulator
    from repro.workloads import PLATFORMS, Resolution

    recorder = ScheduleRecorder()
    telemetry = Telemetry()
    telemetry.probe = recorder
    config = SystemConfig(
        benchmark=benchmark,
        platform=PLATFORMS[platform],
        resolution=Resolution(resolution),
        seed=seed,
        duration_ms=duration_ms,
        warmup_ms=warmup_ms,
    )
    system = CloudSystem(
        config, make_regulator(regulator), telemetry=telemetry, fault_plan=fault_plan
    )
    if mutate is not None:
        mutate(system, run_index)
    system.run()
    recorder.fold_spans(telemetry)
    return RunFingerprint(
        digest=recorder.hexdigest(),
        events_scheduled=recorder.events_scheduled,
        events_fired=recorder.events_fired,
        processes_started=recorder.processes_started,
        spans=len(telemetry.spans),
    )


def verify_determinism(
    seed: int = 1,
    benchmark: str = "IM",
    regulator: str = "ODR60",
    platform: str = "private",
    resolution: str = "720p",
    duration_ms: float = 2000.0,
    warmup_ms: float = 500.0,
    mutate: Optional[Callable[[object, int], None]] = None,
    fault_plan: Optional["FaultPlan"] = None,
) -> DeterminismReport:
    """Run the scenario twice under ``seed`` and compare fingerprints."""
    runs = [
        fingerprint_run(
            seed,
            benchmark=benchmark,
            regulator=regulator,
            platform=platform,
            resolution=resolution,
            duration_ms=duration_ms,
            warmup_ms=warmup_ms,
            mutate=mutate,
            run_index=index,
            fault_plan=fault_plan,
        )
        for index in range(2)
    ]
    return DeterminismReport(seed=seed, first=runs[0], second=runs[1])
