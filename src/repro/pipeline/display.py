"""Client display presentation models (the paper's future work, Sec. 5.2).

The paper's evaluation displays each frame when its decode completes
(an unsynchronized blit — the Pictor client).  Its discussion of
regulation goals, however, points at client-side presentation as the
next lever: "high frequency (90-240hz) displays with FreeSync/GSync are
designed to reduce lag by allowing frames to arrive at high but varying
rates... We will explore client optimizations in the future."

This module implements that exploration:

:class:`ImmediateDisplay`
    Unsynchronized presentation (the paper's client).  Zero added
    latency; tearing whenever a frame is presented mid-refresh while
    the previous one is still being scanned out.

:class:`VsyncDisplay`
    Classic fixed-refresh VSync: a decoded frame is presented at the
    next vblank.  No tearing; adds up to one refresh period of latency;
    when two frames decode within one refresh, the older is dropped
    (it never becomes a photon).

:class:`VrrDisplay`
    Variable refresh rate (FreeSync/G-Sync): the display refreshes on
    frame arrival, as long as the panel's minimum frame-to-frame
    distance (1/max_hz) is respected; if no frame arrives within the
    panel's maximum holding time (1/min_hz), the previous frame is
    re-scanned (a judder repeat).

Every model consumes decode-completion times in order and returns
:class:`Presentation` decisions; :class:`PresentationStats` aggregates
the QoE-relevant outcomes (added latency, tears, drops and repeats).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

__all__ = [
    "DisplayModel",
    "ImmediateDisplay",
    "Presentation",
    "PresentationStats",
    "VrrDisplay",
    "VsyncDisplay",
]


@dataclass(frozen=True)
class Presentation:
    """The display's decision for one decoded frame."""

    #: When the frame's photons appear; None if the frame was dropped.
    display_time: Optional[float]
    #: Presented mid-scan-out of the previous frame (visible tear line).
    torn: bool = False

    @property
    def dropped(self) -> bool:
        return self.display_time is None


@dataclass
class PresentationStats:
    """Aggregated presentation quality over a run."""

    presented: int = 0
    dropped: int = 0
    torn: int = 0
    #: Panel-initiated re-scans of an old frame (VRR below min rate).
    repeats: int = 0
    added_latency_total_ms: float = 0.0

    @property
    def mean_added_latency_ms(self) -> float:
        if self.presented == 0:
            raise ValueError("no frames presented")
        return self.added_latency_total_ms / self.presented

    @property
    def tear_fraction(self) -> float:
        if self.presented == 0:
            raise ValueError("no frames presented")
        return self.torn / self.presented

    def _record(self, decode_time: float, presentation: Presentation) -> None:
        if presentation.dropped:
            self.dropped += 1
            return
        self.presented += 1
        self.added_latency_total_ms += presentation.display_time - decode_time
        if presentation.torn:
            self.torn += 1


class DisplayModel:
    """Base class: consumes decode times in order, emits presentations."""

    def __init__(self) -> None:
        self.stats = PresentationStats()

    def present(self, decode_time: float) -> Presentation:
        """Decide when (whether) the frame decoded at ``decode_time``
        reaches the screen.  Calls must be in nondecreasing time order."""
        presentation = self._present(decode_time)
        self.stats._record(decode_time, presentation)
        return presentation

    def _present(self, decode_time: float) -> Presentation:
        raise NotImplementedError


class ImmediateDisplay(DisplayModel):
    """Unsynchronized blit (the paper's client): instant, may tear."""

    def __init__(self, refresh_hz: float = 60.0):
        super().__init__()
        if refresh_hz <= 0:
            raise ValueError("refresh rate must be positive")
        self.refresh_hz = refresh_hz
        self._scanout_until = -math.inf

    def _present(self, decode_time: float) -> Presentation:
        period = 1000.0 / self.refresh_hz
        # The previous frame's scan-out is still in progress: the new
        # frame replaces it mid-scan — a visible tear.
        torn = decode_time < self._scanout_until
        self._scanout_until = decode_time + period
        return Presentation(display_time=decode_time, torn=torn)


class VsyncDisplay(DisplayModel):
    """Fixed-refresh VSync: present at the next vblank, never tear."""

    def __init__(self, refresh_hz: float = 60.0):
        super().__init__()
        if refresh_hz <= 0:
            raise ValueError("refresh rate must be positive")
        self.refresh_hz = refresh_hz
        self._pending: Optional[float] = None
        self._last_vblank_used = -math.inf

    @property
    def period_ms(self) -> float:
        return 1000.0 / self.refresh_hz

    def _next_vblank(self, time_ms: float) -> float:
        period = self.period_ms
        return (math.floor(time_ms / period) + 1) * period

    def _present(self, decode_time: float) -> Presentation:
        vblank = self._next_vblank(decode_time)
        if vblank <= self._last_vblank_used:
            # An earlier frame already claimed this refresh interval;
            # only one frame per refresh can become photons — drop.
            return Presentation(display_time=None)
        self._last_vblank_used = vblank
        return Presentation(display_time=vblank)


class VrrDisplay(DisplayModel):
    """Variable refresh rate (FreeSync / G-Sync) panel.

    Parameters
    ----------
    min_hz, max_hz:
        The panel's VRR window (e.g. 48-144 Hz for a common FreeSync
        monitor).  Frames arriving faster than ``max_hz`` wait for the
        minimum frame distance; gaps longer than ``1/min_hz`` trigger
        panel-initiated repeats of the previous frame (counted as
        judder, not as presented frames).
    """

    def __init__(self, min_hz: float = 48.0, max_hz: float = 144.0):
        super().__init__()
        if not 0 < min_hz <= max_hz:
            raise ValueError("need 0 < min_hz <= max_hz")
        self.min_hz = min_hz
        self.max_hz = max_hz
        self._last_display = -math.inf

    @property
    def min_frame_distance_ms(self) -> float:
        return 1000.0 / self.max_hz

    @property
    def max_hold_ms(self) -> float:
        return 1000.0 / self.min_hz

    def _present(self, decode_time: float) -> Presentation:
        if self._last_display > -math.inf:
            gap = decode_time - self._last_display
            if gap > self.max_hold_ms:
                # Panel self-refreshed while waiting (low-framerate
                # compensation); count the repeats as judder events.
                self.stats.repeats += int(gap // self.max_hold_ms)
        earliest = self._last_display + self.min_frame_distance_ms
        display_time = max(decode_time, earliest)
        self._last_display = display_time
        return Presentation(display_time=display_time)
