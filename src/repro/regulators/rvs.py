"""Remote VSync (the paper's ``RVS`` baselines, after Liu et al. [49]).

RVS extends display VSync across the network: rendering in the cloud is
synchronized to the *client display's* vblank schedule.  On every
displayed frame the client computes the slack between the frame's
decode completion and the next vblank and ships it to the cloud (one
uplink later); the cloud delays the next frame's rendering by the slack
scaled with an empirically tuned low-pass constant ``cc``.

Two properties of the design — both demonstrated in Sec. 4.1 — emerge
from this model:

* the rendering rate is bounded by the vblank schedule *minus* feedback
  overhead, so client FPS always lands below the refresh rate (RVS60 ≈
  54 FPS on InMind);
* the feedback is one network round trip stale, and ``cc`` is a fixed
  constant, so RVS cannot track frame-to-frame processing-time
  variation (RVSMax reaches only ~76 FPS where NoReg reached 93).

``RVS30``/``RVS60`` use an ordinary 60 Hz display; ``RVSMax`` uses a
240 Hz display so the vblank schedule itself stops being the limit.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, List, Optional

from repro.regulators.base import Regulator
from repro.simcore import Environment, Step

if TYPE_CHECKING:  # pragma: no cover
    from repro.pipeline.app import Application3D
    from repro.pipeline.client import Client
    from repro.pipeline.frames import Frame

__all__ = ["RemoteVsync"]


class _FeedbackWindow:
    """One wait for an acknowledgement, bounded by the stall deadline.

    :meth:`close` runs as the ack's entry and as the deadline's; the
    first of them to fire schedules ``reopen`` as a zero-delay entry of
    its own, and the one that fires later does nothing.
    """

    __slots__ = ("_env", "_reopen", "_closed")

    def __init__(self, env: Environment, reopen: Step) -> None:
        self._env = env
        self._reopen = reopen
        self._closed = False

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        self._env.call_later(0.0, self._reopen)


class RemoteVsync(Regulator):
    """Remote VSync: vblank-schedule rendering with cc-scaled feedback.

    Three gates before each frame's rendering:

    1. **feedback window** — at most :attr:`WINDOW` frames may be
       rendered without an acknowledged display (Fig. 5c shows the next
       frame's rendering waiting for the previous frame's feedback);
       the in-flight bound is what makes RVS's rate suffer from the
       round trip on top of the vblank schedule;
    2. **vblank grid** — rendering is synchronized to the display's
       (remotely estimated) vblank schedule;
    3. **cc delay** — the last received decode-to-vblank slack, scaled
       by the low-pass constant ``cc``.
    """

    sleep_masks_inputs = True

    #: Maximum frames rendered but not yet acknowledged by the client —
    #: the classic double-buffered VSync swapchain depth.
    WINDOW = 2
    #: Safety valve: never stall on feedback longer than this many
    #: vblank periods (lost acks from dropped frames must not wedge
    #: rendering forever).
    MAX_FEEDBACK_STALL_PERIODS = 4.0

    def __init__(
        self,
        refresh_hz: float = 60.0,
        cc: float = 0.25,
        fps_target: Optional[float] = None,
    ) -> None:
        super().__init__()
        if refresh_hz <= 0:
            raise ValueError("refresh rate must be positive")
        if cc < 0:
            raise ValueError("cc must be non-negative")
        self.client_refresh_hz = float(refresh_hz)
        self.cc = cc
        self.fps_target = fps_target
        self.name = f"RVS{fps_target:g}" if fps_target else "RVSMax"
        #: Most recent decode-to-vblank slack received from the client (ms).
        self.latest_slack_ms = 0.0
        self.feedback_count = 0
        self._last_rendered_id = 0
        self._last_acked_id = 0
        #: Each open or stale window's ack entry, scheduled on the next ack.
        self._pending_acks: List[Step] = []
        # The app's wait in progress: its stall deadline and continuation.
        self._stall_deadline = 0.0
        self._gate_passed: Optional[Step] = None

    @property
    def vblank_period_ms(self) -> float:
        return 1000.0 / self.client_refresh_hz

    @property
    def frames_in_flight(self) -> int:
        return self._last_rendered_id - self._last_acked_id

    def app_wait(self, app: "Application3D", then: Step) -> None:
        # 1. feedback window: wait for acknowledgements (bounded stall).
        self._stall_deadline = app.env.now + self.MAX_FEEDBACK_STALL_PERIODS * (
            self.vblank_period_ms
        )
        self._gate_passed = then
        self._await_window(app)

    def _await_window(self, app: "Application3D") -> None:
        """Re-check the window on every ack or deadline, then pace."""
        env = app.env
        if self.frames_in_flight >= self.WINDOW and env.now < self._stall_deadline:
            window = _FeedbackWindow(env, lambda: self._await_window(app))
            self._pending_acks.append(window.close)
            env.call_later(self._stall_deadline - env.now, window.close)
            return
        then = self._gate_passed
        assert then is not None
        self._gate_passed = None
        # 2. vblank grid.
        period = self.vblank_period_ms
        now = env.now
        slot = math.floor(now / period + 1e-9)
        boundary = slot * period
        wait = 0.0
        if now > boundary + 1e-9:
            wait = (slot + 1) * period - now
        # 3. cc-scaled feedback delay.
        wait += self.cc * self.latest_slack_ms
        if wait > 0:
            env.call_later(wait, then)
        else:
            then()

    def app_submit(self, app: "Application3D", frame: "Frame", then: Step) -> None:
        self._last_rendered_id = frame.frame_id
        super().app_submit(app, frame, then)

    def on_client_display(self, client: "Client", frame: "Frame") -> None:
        """Client-side: compute decode-to-vblank slack, send it uplink."""
        env = client.env
        slack = client.next_vblank(env.now) - env.now

        def _deliver(s: float = slack, fid: int = frame.frame_id) -> None:
            self.latest_slack_ms = s
            self.feedback_count += 1
            self._last_acked_id = max(self._last_acked_id, fid)
            acks, self._pending_acks = self._pending_acks, []
            for ack in acks:
                env.call_later(0.0, ack)

        env.call_at(env.now + client.system.platform.uplink_ms, _deliver)
