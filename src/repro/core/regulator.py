"""ODR's FPS regulator clock — Algorithm 1 of the paper.

The regulator paces the server proxy's *encode loop*.  It keeps one
piece of state, ``acc_delay``: the accumulated difference between the
target interval and actual per-frame processing time.

* After a fast frame, ``acc_delay`` grows; once positive, the proxy
  sleeps it off (and it resets to zero) — this is the delaying half,
  like interval regulation.
* After a slow frame, ``acc_delay`` goes negative: the proxy continues
  immediately, frame after frame, until the debt is repaid — this is
  the **acceleration** half that existing regulators lack, and the
  reason ODR still meets the target when processing time spikes
  (Fig. 5d).

The paper's QoS goal is windowed ("ensure the FPS target is met for
each small period, e.g. 200 ms"), so debt older than a small window is
forgiven via ``debt_window_ms`` — without it, a long stall would be
chased with an equally long full-speed burst far beyond what any QoS
window needs.

This class is pure state (no simulation dependencies) so Algorithm 1's
arithmetic is directly unit-testable; :mod:`repro.core.odr` drives it
from the proxy process.
"""

from __future__ import annotations

from typing import Optional

__all__ = ["FpsRegulatorClock"]


class FpsRegulatorClock:
    """Algorithm 1: accumulate per-frame slack, sleep only when positive.

    Parameters
    ----------
    target_fps:
        The QoS target; ``None`` disables pacing entirely (the
        maximize-FPS mode, where multi-buffering alone synchronizes the
        pipeline).
    accelerate:
        If False, negative slack is discarded instead of accumulated —
        the regulator degenerates into a delay-only pacer like the
        interval baseline.  Exists for the ablation study.
    debt_window_ms:
        Maximum accumulated debt (most-negative ``acc_delay``) the
        regulator will try to repay, matching the paper's 200 ms QoS
        accounting window.
    pacing_margin:
        Fractional over-provisioning of the pacing rate.  PriorityFrame
        obsolete-frame drops and swap-wait dead time structurally cost a
        fraction of a frame per user action; pacing slightly above the
        target absorbs that, matching the paper's "never undershoot"
        goal (and its observed ODR60 average of 61.6 FPS).
    """

    def __init__(
        self,
        target_fps: Optional[float] = None,
        accelerate: bool = True,
        debt_window_ms: float = 200.0,
        pacing_margin: float = 0.0,
    ) -> None:
        if target_fps is not None and target_fps <= 0:
            raise ValueError("target_fps must be positive")
        if debt_window_ms < 0:
            raise ValueError("debt_window_ms must be non-negative")
        if pacing_margin < 0:
            raise ValueError("pacing_margin must be non-negative")
        self.target_fps = target_fps
        self.accelerate = accelerate
        self.debt_window_ms = debt_window_ms
        self.pacing_margin = pacing_margin
        self.acc_delay_ms = 0.0
        self.sleeps = 0
        self.accelerated_frames = 0

    @property
    def interval_ms(self) -> Optional[float]:
        """The expected per-frame interval (Algorithm 1, line 2)."""
        if self.target_fps is None:
            return None
        return 1000.0 / (self.target_fps * (1.0 + self.pacing_margin))

    def frame_processed(self, elapsed_ms: float) -> float:
        """Account one processed frame; return the sleep to apply (ms).

        ``elapsed_ms`` is the frame's total processing time in the
        proxy loop (encode plus any Mul-Buf2 wait), i.e. lines 5-10 of
        Algorithm 1.  Returns 0 when the regulator should continue
        immediately (acceleration).
        """
        if elapsed_ms < 0:
            raise ValueError("elapsed time cannot be negative")
        interval = self.interval_ms
        if interval is None:
            return 0.0
        time_diff = interval - elapsed_ms
        self.acc_delay_ms += time_diff
        if self.acc_delay_ms > 0:
            sleep = self.acc_delay_ms
            self.acc_delay_ms = 0.0
            self.sleeps += 1
            return sleep
        # Behind target: continue without delay (Algorithm 1's else-path).
        self.accelerated_frames += 1
        if not self.accelerate:
            # Ablation: a delay-only regulator forgets the deficit.
            self.acc_delay_ms = 0.0
        else:
            self.acc_delay_ms = max(self.acc_delay_ms, -self.debt_window_ms)
        return 0.0

    def cancel_debt(self) -> None:
        """Reset accumulated state (PriorityFrame interrupted the pacing)."""
        self.acc_delay_ms = 0.0
