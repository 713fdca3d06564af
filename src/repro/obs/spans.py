"""Per-frame causal spans.

A :class:`FrameSpan` is the observability-side record of one frame's
journey through the pipeline (paper Fig. 2, steps 3-7): the busy
interval of each stage it passed through (render → copy → encode →
transmit → decode), the regulator gate delay that preceded its render,
and — if the frame never reached the screen — the drop event that
ended it.  Spans are read from a finished run by
:mod:`repro.obs.telemetry` and collected in a :class:`SpanStore`
queryable by frame id, so a regulator regression can be debugged from
one run's trace instead of re-running with print statements.

Spans are causal, not just statistical: the gap between one stage
interval's ``end`` and the next interval's ``start`` is exactly the
time the frame spent waiting in the buffer between those stages, which
is what the paper's Fig. 5 pipeline schedules visualize.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple

__all__ = ["FrameSpan", "SpanStore", "StageInterval", "PIPELINE_STAGES"]

#: Canonical stage order of the cloud-3D pipeline (Fig. 2 steps 3-7).
PIPELINE_STAGES: Tuple[str, ...] = ("render", "copy", "encode", "transmit", "decode")


@dataclass
class StageInterval:
    """One stage's busy interval within a frame span (times in sim ms)."""

    stage: str
    start: float
    end: Optional[float] = None

    @property
    def duration_ms(self) -> float:
        if self.end is None:
            raise ValueError(f"stage {self.stage!r} interval still open")
        return self.end - self.start


@dataclass
class FrameSpan:
    """The full causal trace of one frame.

    A span opens when the frame is created (right after the regulator's
    gate releases the render loop) and closes either when the frame is
    displayed at the client or when it is dropped along the way.
    """

    frame_id: int
    session: str = ""
    opened_at: float = 0.0
    #: Regulator-injected rendering delay immediately before this frame.
    gate_delay_ms: float = 0.0
    #: PriorityFrame fast path engaged (ODR only).
    priority: bool = False
    #: True if a discrete user input is first reflected by this frame.
    input_triggered: bool = False
    intervals: List[StageInterval] = field(default_factory=list)
    #: Set when the frame was discarded before reaching the screen.
    drop_reason: Optional[str] = None
    #: Display (or drop) time; None while the frame is still in flight.
    closed_at: Optional[float] = None

    # -- queries ---------------------------------------------------------

    @property
    def displayed(self) -> bool:
        return self.closed_at is not None and self.drop_reason is None

    @property
    def dropped(self) -> bool:
        return self.drop_reason is not None

    @property
    def open(self) -> bool:
        return self.closed_at is None

    def stages(self) -> List[str]:
        return [iv.stage for iv in self.intervals]

    def to_dict(self) -> dict:
        """Flatten for JSONL export."""
        return {
            "frame_id": self.frame_id,
            "session": self.session,
            "opened_at": self.opened_at,
            "gate_delay_ms": self.gate_delay_ms,
            "priority": self.priority,
            "input_triggered": self.input_triggered,
            "stages": [
                {"stage": iv.stage, "start": iv.start, "end": iv.end}
                for iv in self.intervals
            ],
            "drop_reason": self.drop_reason,
            "closed_at": self.closed_at,
        }


class SpanStore:
    """All frame spans of one run, queryable by (session, frame id).

    The store is shared by every session of a multi-tenant server;
    single-session systems use the default ``session=""`` namespace.
    """

    def __init__(self) -> None:
        self._spans: Dict[Tuple[str, int], FrameSpan] = {}
        self._order: List[FrameSpan] = []

    def __len__(self) -> int:
        return len(self._order)

    def __iter__(self) -> Iterator[FrameSpan]:
        return iter(self._order)

    # -- recording -------------------------------------------------------

    def open(
        self,
        frame_id: int,
        at: float,
        session: str = "",
        gate_delay_ms: float = 0.0,
        priority: bool = False,
        input_triggered: bool = False,
    ) -> FrameSpan:
        """Open the span for a newly created frame."""
        key = (session, frame_id)
        if key in self._spans:
            raise ValueError(f"span for frame {frame_id} (session {session!r}) already open")
        span = FrameSpan(
            frame_id=frame_id,
            session=session,
            opened_at=at,
            gate_delay_ms=gate_delay_ms,
            priority=priority,
            input_triggered=input_triggered,
        )
        self._spans[key] = span
        self._order.append(span)
        return span

    # -- queries ---------------------------------------------------------

    def get(self, frame_id: int, session: str = "") -> Optional[FrameSpan]:
        return self._spans.get((session, frame_id))

    def spans(
        self,
        session: Optional[str] = None,
        dropped: Optional[bool] = None,
    ) -> List[FrameSpan]:
        """Spans in creation order, optionally filtered."""
        out = []
        for span in self._order:
            if session is not None and span.session != session:
                continue
            if dropped is not None and span.dropped != dropped:
                continue
            out.append(span)
        return out

    def sessions(self) -> List[str]:
        return sorted({s.session for s in self._order})
