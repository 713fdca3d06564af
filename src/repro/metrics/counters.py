"""Per-stage frame-rate accounting and FPS-gap computation.

The paper counts, for every one-second window, how many frames completed
each pipeline step: *render FPS* in the cloud, *encode FPS* in the server
proxy, and *decode FPS* at the client ("client FPS").  The **FPS gap**
is the difference between cloud rendering FPS and client decoding FPS —
every frame in the gap was rendered and then thrown away.

Every completion but a display model's presentation ends a pipeline
stage's busy interval, so the counts are read from the run's
:class:`~repro.simcore.tracing.IntervalTrace`, which stores each one once.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.simcore.tracing import IntervalTrace, windowed_counts

__all__ = ["FpsCounter", "FpsGapReport", "fps_gap_report"]

#: Canonical pipeline step names (paper Fig. 2 steps 3-7).
RENDER = "render"
COPY = "copy"
ENCODE = "encode"
TRANSMIT = "transmit"
DECODE = "decode"
#: A display model's presentation (not a busy interval).
DISPLAY = "display"


@dataclass(frozen=True)
class FpsGapReport:
    """Render-vs-client FPS gap over a run.

    ``mean_gap`` is the average of per-window (render − decode) counts;
    ``max_gap`` the largest window gap — the two columns of Table 2.
    """

    mean_gap: float
    max_gap: float
    series: List[float]


class FpsCounter:
    """Frame completion times per pipeline stage, read from a run's trace.

    A frame completes ``render``, ``copy``, ``encode``, ``transmit`` or
    ``decode`` when that stage's busy interval for it ends, so those
    completion times are the stage's end column in ``trace``
    (:meth:`~repro.simcore.tracing.IntervalTrace.ends`), in record order.
    The counter keeps a list of its own only for ``display``: a display
    model's presentation time (:mod:`repro.pipeline.display`), which ends
    no busy interval, recorded with :meth:`record_display`.  The analysis
    methods bucket the times into windows.
    """

    def __init__(self, trace: IntervalTrace, window_ms: float = 1000.0) -> None:
        self.trace = trace
        self.window_ms = window_ms
        self._display: List[float] = []

    def record_display(self, time_ms: float) -> None:
        """Record that a frame was presented on the display at ``time_ms``."""
        self._display.append(time_ms)

    def _times(self, stage: str) -> Sequence[float]:
        return self._display if stage == DISPLAY else self.trace.ends(stage)

    def count(self, stage: str) -> int:
        """Total frames that completed ``stage`` so far."""
        return len(self._times(stage))

    def times(self, stage: str) -> List[float]:
        """Raw completion timestamps for ``stage``."""
        return list(self._times(stage))

    # -- analysis --------------------------------------------------------

    def fps_series(
        self, stage: str, start: float, end: float, window_ms: Optional[float] = None
    ) -> List[float]:
        """Per-window FPS of ``stage`` over ``[start, end)``.

        Counts are scaled to frames-per-second regardless of window size.
        """
        window = window_ms if window_ms is not None else self.window_ms
        counts = windowed_counts(self._times(stage), window, start, end)
        scale = 1000.0 / window
        return [c * scale for c in counts]

    def mean_fps(self, stage: str, start: float, end: float) -> float:
        """Average FPS of ``stage`` over ``[start, end)``."""
        if end <= start:
            raise ValueError("empty measurement window")
        in_range = sum(1 for t in self._times(stage) if start <= t < end)
        return in_range * 1000.0 / (end - start)

    def fps_gap(
        self,
        start: float,
        end: float,
        cloud_stage: str = RENDER,
        client_stage: str = DECODE,
    ) -> FpsGapReport:
        """Windowed FPS gap between cloud rendering and client decoding.

        Negative per-window gaps are clamped to zero: a window where the
        client decoded more frames than were rendered (draining queued
        frames) is not "excessive rendering".
        """
        return fps_gap_report(
            self.fps_series(cloud_stage, start, end),
            self.fps_series(client_stage, start, end),
        )


def fps_gap_report(cloud: List[float], client: List[float]) -> FpsGapReport:
    """The windowed FPS gap of two aligned per-window FPS series.

    Negative per-window gaps are clamped to zero (see
    :meth:`FpsCounter.fps_gap`).
    """
    if not cloud or not client:
        raise ValueError("no complete windows for gap computation")
    series = [max(0.0, c - d) for c, d in zip(cloud, client)]
    return FpsGapReport(
        mean_gap=sum(series) / len(series),
        max_gap=max(series),
        series=series,
    )
