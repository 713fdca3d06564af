"""Adaptive bitrate (ABR) — content-aware encoding on top of ODR.

The paper treats bitrate/FPS-target selection as orthogonal prior work
(it cites content-aware encoding [31] and QoE-driven adaptation [75]);
this extension supplies the missing piece so the two compose: a
quality-ladder controller that scales encoded frame sizes to fit the
network path.

Why it matters for ODR: ODR's multi-buffering converts a too-slow
network into *backpressure* on the encoder (Mul-Buf2 blocks), which the
FPS regulator then sees as elapsed time — the FPS target becomes
infeasible when ``target_fps × frame_size`` exceeds the path bandwidth
(e.g. 60 FPS × 126 KB ≈ 60 Mbps > GCE's ~42 Mbps at 1080p).  The ABR
controller watches the transmitter's utilization and walks the encoder
down the quality ladder until the target *is* feasible — classic
AIMD-style adaptation (multiplicative decrease on congestion, small
multiplicative increase when the path has headroom).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Tuple

from repro.simcore import Actor

if TYPE_CHECKING:  # pragma: no cover
    from repro.pipeline.system import CloudSystem

__all__ = ["AdaptiveBitrate", "AbrController", "AbrSizeSampler"]


@dataclass(frozen=True)
class AdaptiveBitrate:
    """Configuration of the ABR controller (attach via CloudSystem)."""

    #: Quality-scale bounds: 1.0 = full quality, lower = smaller frames.
    min_scale: float = 0.30
    max_scale: float = 1.00
    #: Controller decision period.
    period_ms: float = 500.0
    #: Transmit-utilization thresholds for decrease/increase decisions.
    high_utilization: float = 0.85
    low_utilization: float = 0.60
    #: Multiplicative decrease on congestion / increase with headroom.
    decrease: float = 0.85
    increase: float = 1.05

    def __post_init__(self) -> None:
        if not 0 < self.min_scale <= self.max_scale <= 1.0:
            raise ValueError("need 0 < min_scale <= max_scale <= 1")
        if not 0 < self.low_utilization < self.high_utilization <= 1.0:
            raise ValueError("need 0 < low < high <= 1 utilization thresholds")
        if not 0 < self.decrease < 1 < self.increase:
            raise ValueError("need decrease < 1 < increase")
        if self.period_ms <= 0:
            raise ValueError("period must be positive")

    def attach(self, system: "CloudSystem") -> "AbrController":
        """Create the controller and splice it into the encoder path."""
        controller = AbrController(self, system)
        system.size_sampler = AbrSizeSampler(system.size_sampler, controller)
        return controller


class AbrController(Actor):
    """Utilization-driven quality-scale controller.

    An actor that decides once per ``period_ms`` window from the
    transmitter's utilization over that window.
    """

    name = "abr"

    def __init__(self, config: AdaptiveBitrate, system: "CloudSystem"):
        self.config = config
        self.system = system
        self.env = system.env
        self.scale = config.max_scale
        #: (time, scale) decision history for analysis.
        self.history: List[Tuple[float, float]] = [(0.0, self.scale)]
        self._window_start = 0.0
        self.env.start(self, self._open_window)

    def transmit_utilization(self, start: float, end: float) -> float:
        """Fraction of the window the transmitter spent serializing."""
        return self.system.trace.utilization("transmit", start, end)

    def _open_window(self) -> None:
        self._window_start = self.env.now
        self.env.call_later(self.config.period_ms, self._decide)

    def _decide(self) -> None:
        env = self.env
        config = self.config
        utilization = self.transmit_utilization(self._window_start, env.now)
        if utilization > config.high_utilization:
            self.scale *= config.decrease
        elif utilization < config.low_utilization:
            self.scale *= config.increase
        self.scale = min(max(self.scale, config.min_scale), config.max_scale)
        self.history.append((env.now, self.scale))
        self._open_window()

    def mean_scale(self, start: float, end: float) -> float:
        """Time-weighted mean quality scale over a window."""
        if end <= start:
            raise ValueError("empty window")
        total = 0.0
        points = self.history + [(end, self.history[-1][1])]
        for (t0, scale), (t1, _) in zip(points, points[1:]):
            lo, hi = max(t0, start), min(t1, end)
            if hi > lo:
                total += scale * (hi - lo)
        return total / (end - start)


class AbrSizeSampler:
    """Wraps the frame-size sampler with the controller's live scale."""

    def __init__(self, base_sampler, controller: AbrController):
        self._base = base_sampler
        self._controller = controller

    def next(self) -> int:
        return max(1, int(self._base.next() * self._controller.scale))
