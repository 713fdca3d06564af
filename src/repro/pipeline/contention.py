"""Memory-contention feedback on server-side stage times.

The paper's Sec. 4.3/6.5 finding is that excessive rendering does not
just waste cycles — it actively *slows the pipeline down*: rendering,
copying, and encoding are memory-intensive (megabytes per frame), and
when they execute simultaneously they contend for DRAM row buffers,
inflating every stage's processing time.  That feedback is why ODRMax's
client FPS *exceeds* NoReg's (InMind: 93 → 107 FPS) even though ODR
renders far fewer frames.

:class:`ContentionTracker` models this first-order effect: each
memory-intensive stage registers while busy, and a stage's drawn
service time is multiplied by ``1 + beta × (other busy stages)`` at the
moment it starts: one :meth:`ContentionTracker.begin` call returns that
factor and counts the stage busy, and :meth:`ContentionTracker.exit`
ends it.  Under NoReg the renderer and encoder are both ~100 % busy, so
each runs ~``(1+beta)×`` slower than its uncontended time; under
regulation the overlap—and the penalty—shrinks.

The same busy intervals drive the offline DRAM/IPC/power models in
:mod:`repro.hardware`; this tracker is only the *online* feedback loop.
"""

from __future__ import annotations

from typing import Dict, FrozenSet

__all__ = ["ContentionTracker"]


class ContentionTracker:
    """Tracks concurrently-busy memory-intensive stages.

    Parameters
    ----------
    beta:
        Fractional slowdown per concurrently-busy other stage.  The
        default is calibrated so NoReg's fully-overlapped pipeline runs
        ~25 % slower than an uncontended one, which reproduces the
        paper's InMind NoReg(93) vs ODRMax(107) client-FPS split.
    stages:
        The memory-intensive stage names participating in contention.
    max_multiplier:
        Saturation bound: row-buffer interference does not grow without
        limit — once the memory system is fully thrashed, more
        contenders mostly queue rather than slow each other further.
        Relevant when many sessions share a server
        (:mod:`repro.multitenant`); a single session never reaches it.
    """

    DEFAULT_STAGES: FrozenSet[str] = frozenset({"render", "copy", "encode"})

    def __init__(
        self,
        beta: float = 0.25,
        stages: FrozenSet[str] = DEFAULT_STAGES,
        max_multiplier: float = 2.0,
    ):
        if beta < 0:
            raise ValueError("beta must be non-negative")
        if max_multiplier < 1.0:
            raise ValueError("max_multiplier must be >= 1")
        self.beta = beta
        self.stages = frozenset(stages)
        self.max_multiplier = max_multiplier
        #: Busy entries per participating stage; a stage's key stays at 0
        #: while it is idle.
        self._busy: Dict[str, int] = dict.fromkeys(self.stages, 0)
        #: Running ``sum(self._busy.values())``.
        self._busy_total = 0

    def begin(self, stage: str) -> float:
        """Start one busy entry of ``stage`` and return its service-time
        multiplier, ``1 + beta × (entries busy before it)`` capped at
        ``max_multiplier``: 1.0 for a stage outside the domain, which is
        not counted."""
        busy = self._busy
        if stage not in busy:
            return 1.0
        factor = 1.0 + self.beta * self._busy_total
        busy[stage] += 1
        self._busy_total += 1
        return factor if factor < self.max_multiplier else self.max_multiplier

    def exit(self, stage: str) -> None:
        """Mark one busy entry of ``stage`` finished."""
        count = self._busy.get(stage)
        if count is None:
            return
        if count <= 0:
            raise RuntimeError(f"exit of idle stage {stage!r}")
        self._busy[stage] = count - 1
        self._busy_total -= 1
