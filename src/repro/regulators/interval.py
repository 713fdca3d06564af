"""Interval-based FPS regulation (the paper's ``Int`` baselines).

Software interval regulation delays the app's main loop so each frame's
rendering starts at the beginning of a regular interval (Sec. 2): for a
60 FPS target, one frame per 16.6 ms grid slot.  Its failure mode
(Sec. 4.1) is inherent: the grid assumes every frame fits its interval,
so a processing-time spike makes the loop *miss* grid slots — rendering
FPS falls below the target and can never be recovered, because the
regulator only ever delays.

:class:`IntervalMaxRegulator` is the adaptive variant used for the
"maximize FPS" goal: it lowers the rendering rate toward the observed
client FPS to close the gap.  The paper's analysis shows its fundamental
flaw — the feedback ratchets the interval *up* whenever a transient
spike opens a gap, but "IntMax cannot re-adjust its rendering rate when
a sudden increase of processing time passes", so the client FPS decays
far below what the hardware can deliver.  The asymmetric
increase/decrease rates below model exactly that.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

from repro.regulators.base import Regulator
from repro.simcore import Step

if TYPE_CHECKING:  # pragma: no cover
    from repro.pipeline.app import Application3D

__all__ = ["IntervalMaxRegulator", "IntervalRegulator"]


def _wait_for_grid(app: "Application3D", interval: float, then: Step) -> None:
    """Run ``then`` at the start of the next ``interval`` grid slot, or now
    when the app is already on a slot boundary."""
    env = app.env
    now = env.now
    slot = math.floor(now / interval + 1e-9)
    boundary = slot * interval
    if now > boundary + 1e-9:
        # Mid-interval: the previous frame overran; wait for the next
        # grid slot (this is where spike-induced slots are lost).
        env.call_later((slot + 1) * interval - now, then)
    else:
        then()


class IntervalRegulator(Regulator):
    """Fixed-target interval regulation (``Int30`` / ``Int60``)."""

    sleep_masks_inputs = True

    def __init__(self, target_fps: float) -> None:
        super().__init__()
        if target_fps <= 0:
            raise ValueError("target_fps must be positive")
        self.fps_target = float(target_fps)
        self.name = f"Int{target_fps:g}"

    @property
    def interval_ms(self) -> float:
        return 1000.0 / self.fps_target

    def app_wait(self, app: "Application3D", then: Step) -> None:
        """Delay rendering to the start of the next interval grid slot."""
        _wait_for_grid(app, self.interval_ms, then)


class IntervalMaxRegulator(Regulator):
    """Adaptive interval regulation for the maximize-FPS goal (``IntMax``).

    Control law, applied on every per-second client-FPS report:

    * a rendering-vs-client gap is observed → set the interval to match
      the *client's* rate and stretch it a little more (multiplicative
      increase) — the documented over-reaction to transient spikes;
    * no gap → shrink the interval only by a tiny factor per report
      (the slow, effectively negligible recovery).
    """

    name = "IntMax"
    fps_target = None
    sleep_masks_inputs = True

    #: Gap (FPS) below which the rates are considered matched.
    GAP_THRESHOLD_FPS = 0.5
    #: Multiplicative interval stretch applied on each gap observation.
    INCREASE_FACTOR = 1.02
    #: Multiplicative interval shrink applied on each gap-free report —
    #: nearly a pure ratchet ("IntMax cannot re-adjust its rendering
    #: rate when a sudden increase of processing time passes").
    DECAY_FACTOR = 0.9998
    #: Bounds on the adaptive interval (1000..20 FPS).
    MIN_INTERVAL_MS = 1.0
    MAX_INTERVAL_MS = 50.0

    def __init__(self) -> None:
        super().__init__()
        #: Current rendering interval; starts unregulated (free-run).
        self.interval_ms = self.MIN_INTERVAL_MS
        self._last_render_count = 0

    def app_wait(self, app: "Application3D", then: Step) -> None:
        _wait_for_grid(app, self.interval_ms, then)

    def on_client_fps_report(self, client_fps: float) -> None:
        # Cloud-side render FPS over the same reporting period.
        assert self.system is not None, "attach() must run before FPS reports"
        count = self.system.counter.count("render")
        render_fps = float(count - self._last_render_count)
        self._last_render_count = count
        if client_fps <= 0:
            return
        if render_fps - client_fps > self.GAP_THRESHOLD_FPS:
            # Gap observed: match the client's rate, then back off more.
            matched = max(self.interval_ms, 1000.0 / client_fps)
            self.interval_ms = matched * self.INCREASE_FACTOR
        else:
            # Gap closed: recovery is nearly nonexistent by design.
            self.interval_ms *= self.DECAY_FACTOR
        self.interval_ms = min(
            max(self.interval_ms, self.MIN_INTERVAL_MS), self.MAX_INTERVAL_MS
        )
