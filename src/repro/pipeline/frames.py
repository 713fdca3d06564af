"""Frame objects flowing through the pipeline.

A :class:`Frame` carries per-stage timestamps (for latency analysis),
the ids of the user inputs whose effect it reflects (for MtP
measurement), and drop bookkeeping.

Input inheritance
-----------------
When a frame is dropped — overwritten in a mailbox, or flushed as
obsolete by PriorityFrame — the world state it showed is still shown by
the *next* frame (the game state moved on, it did not roll back).  Any
inputs the dropped frame was the first to reflect are therefore
inherited by the successor frame via :meth:`Frame.inherit_inputs`, so
MtP latency is measured to the first frame that actually reaches the
screen, exactly as a photon-level measurement on the real system would.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Optional, Set

__all__ = ["DropReason", "Frame"]


class DropReason(enum.Enum):
    """Where/why a frame was discarded before reaching the screen."""

    #: Overwritten in the latest-frame-wins mailbox (excessive rendering).
    MAILBOX_OVERWRITE = "mailbox_overwrite"
    #: Flushed by PriorityFrame as obsolete when an input frame overtook it.
    OBSOLETE_FLUSH = "obsolete_flush"
    #: Lost in transit during an injected packet-loss burst
    #: (:mod:`repro.faults`); its inputs carry to the next delivery.
    NETWORK_LOSS = "network_loss"


@dataclass
class Frame:
    """One rendered frame and its journey through the pipeline."""

    frame_id: int
    #: True if at least one discrete (non-polling) user input is first
    #: reflected by this frame.
    triggered_by_input: bool = False
    #: PriorityFrame fast path engaged for this frame (ODR only).
    priority: bool = False
    #: Ids of discrete inputs first reflected by this frame (grows via
    #: inheritance when predecessor frames are dropped).
    input_ids: Set[int] = field(default_factory=set)

    # -- per-stage timestamps (ms); None until the stage completes -------
    t_created: Optional[float] = None
    t_render_start: Optional[float] = None
    t_render_end: Optional[float] = None
    t_copy_end: Optional[float] = None
    t_encode_end: Optional[float] = None
    t_send_start: Optional[float] = None
    t_send_end: Optional[float] = None
    t_received: Optional[float] = None
    t_displayed: Optional[float] = None

    #: Encoded size (bytes); set at encode time.
    size_bytes: int = 0
    #: Set when the frame is discarded.
    dropped: Optional[DropReason] = None
    #: When the frame was discarded: set with ``dropped``, or alone for a
    #: decoded frame the client's display model never showed.
    t_dropped: Optional[float] = None

    def drop(self, reason: DropReason, at: float) -> None:
        """Discard the frame at time ``at`` for ``reason``."""
        self.dropped = reason
        self.t_dropped = at

    def inherit_inputs(self, predecessor: "Frame") -> None:
        """Absorb a dropped predecessor's input ids (see module docs)."""
        if predecessor.input_ids:
            self.input_ids |= predecessor.input_ids

    def __repr__(self) -> str:
        tags = []
        if self.priority:
            tags.append("priority")
        if self.dropped:
            tags.append(f"dropped:{self.dropped.value}")
        suffix = f" [{' '.join(tags)}]" if tags else ""
        return f"<Frame #{self.frame_id}{suffix}>"
