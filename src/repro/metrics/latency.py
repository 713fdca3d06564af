"""Motion-to-photon (MtP) latency measurement.

MtP latency is "the time between a user issues an input and the
responding frame displayed on the screen" (paper Sec. 3).  The tracker
mirrors how the Pictor framework measures it on the real system:

* when the client generates an input, :meth:`MtpLatencyTracker.input_issued`
  registers it with its creation timestamp;
* when the 3D application renders a frame, the frame records which
  pending inputs its content reflects (input combining means a frame may
  answer several inputs at once);
* when that frame is finally *displayed* at the client,
  :meth:`MtpLatencyTracker.frame_displayed` closes the latency samples of
  every input the frame answers (first responding frame wins — a later
  redisplay of the same state does not re-close the sample).

Polling events (mouse-move / VR-pose streams) are excluded exactly as in
the paper: "ODR does not prioritize polling event inputs" and Pictor
measures MtP on discrete actions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List

__all__ = ["LatencySample", "MtpLatencyTracker"]


@dataclass(frozen=True)
class LatencySample:
    """One closed input→photon measurement."""

    input_id: int
    issued_at: float
    displayed_at: float

    @property
    def latency_ms(self) -> float:
        return self.displayed_at - self.issued_at


@dataclass
class MtpLatencyTracker:
    """Tracks open inputs and closed latency samples."""

    _open: Dict[int, float] = field(default_factory=dict)
    _samples: List[LatencySample] = field(default_factory=list)

    def input_issued(self, input_id: int, time_ms: float) -> None:
        """Register a (non-polling) user input issued at ``time_ms``."""
        if input_id in self._open:
            raise ValueError(f"duplicate input id {input_id}")
        self._open[input_id] = time_ms

    def frame_displayed(self, input_ids: Iterable[int], time_ms: float) -> List[LatencySample]:
        """Close every still-open input the displayed frame answers.

        Returns the newly-closed samples.  Unknown/already-closed ids are
        ignored (a frame can be displayed after a newer frame already
        answered the same input — only the first display counts).
        """
        closed = []
        for input_id in input_ids:
            issued = self._open.pop(input_id, None)
            if issued is None:
                continue
            if time_ms < issued:
                raise ValueError(
                    f"input {input_id} displayed at {time_ms} before issue at {issued}"
                )
            sample = LatencySample(input_id, issued, time_ms)
            self._samples.append(sample)
            closed.append(sample)
        return closed

    # -- analysis --------------------------------------------------------

    @property
    def samples(self) -> List[LatencySample]:
        return list(self._samples)

    @property
    def open_count(self) -> int:
        """Inputs that never received a displayed response (yet)."""
        return len(self._open)
