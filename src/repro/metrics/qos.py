"""Windowed QoS-satisfaction checks.

ODR's regulation goal is *not* per-frame regularity — "ODR aims at
ensuring the FPS target is met for each small period (e.g., 200 ms)"
(Sec. 5.2).  :func:`qos_satisfaction` evaluates exactly that: over every
window of the given size, did the delivered frame count correspond to at
least the target FPS?
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.simcore.tracing import windowed_counts

__all__ = ["QosReport", "qos_satisfaction"]


@dataclass(frozen=True)
class QosReport:
    """Result of a windowed FPS-target check."""

    target_fps: float
    window_ms: float
    n_windows: int
    n_satisfied: int
    worst_window_fps: float

    @property
    def satisfaction(self) -> float:
        """Fraction of windows meeting the target (1.0 = always met)."""
        if self.n_windows == 0:
            raise ValueError("no complete windows")
        return self.n_satisfied / self.n_windows


def qos_satisfaction(
    display_times: Sequence[float],
    target_fps: float,
    start: float,
    end: float,
    window_ms: float = 200.0,
    tolerance_frames: float = 1.0,
) -> QosReport:
    """Check the paper's windowed QoS criterion.

    Parameters
    ----------
    display_times:
        Client-side frame display timestamps (ms).
    target_fps:
        The QoS target (30 or 60 in the paper).
    window_ms:
        QoS window size; the paper uses 200 ms.
    tolerance_frames:
        Frame-count slack per window.  A 200 ms window at 60 FPS expects
        12 frames; boundary effects make a ±1 frame quantization error
        unavoidable, so the default accepts ``expected - 1``.
    """
    if target_fps <= 0:
        raise ValueError("target_fps must be positive")
    counts = windowed_counts(display_times, window_ms, start, end)
    expected = target_fps * window_ms / 1000.0
    threshold = expected - tolerance_frames
    satisfied = sum(1 for c in counts if c >= threshold)
    worst = min(counts) * 1000.0 / window_ms if counts else 0.0
    return QosReport(
        target_fps=target_fps,
        window_ms=window_ms,
        n_windows=len(counts),
        n_satisfied=satisfied,
        worst_window_fps=worst,
    )
