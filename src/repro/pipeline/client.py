"""The thin client: decode and display (paper Fig. 2, step 7).

Frames arriving from the network enter the receive queue; the client
decodes them in order (stochastic decode time) and displays each frame
when its decode completes — which is when Pictor's client-side FPS and
MtP measurements fire.

The client also owns the display's **vblank clock**.  The display
refreshes at ``refresh_hz``; Remote VSync uses the time from a frame's
decode completion to the next vblank as its feedback signal (Sec. 2).
The regulator's :meth:`on_client_display` hook is invoked for every
displayed frame, which is where RVS computes and ships that feedback.
:class:`FpsReporter` sends the client's decode FPS to the cloud once a
second, the report IntMax adapts its interval from.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, List, Optional, Set

from repro.pipeline.display import DisplayModel
from repro.pipeline.frames import Frame
from repro.simcore import Actor, Store

if TYPE_CHECKING:  # pragma: no cover
    from repro.pipeline.system import CloudSystem

__all__ = ["Client", "FpsReporter"]


class Client(Actor):
    """Client-side decode/display loop with a vblank clock.

    By default frames are displayed the instant their decode completes
    (the paper's Pictor client).  Passing a ``display_model``
    (:mod:`repro.pipeline.display`) enables the client-side presentation
    exploration the paper leaves as future work: VSync, FreeSync/G-Sync,
    with tearing/judder/drop accounting.  Inputs answered by a frame the
    display model drops are carried to the next presented frame, so MtP
    accounting stays photon-exact.

    The loop is a callback actor: take the next received frame, decode
    it, display it, repeat.
    """

    name = "client"

    def __init__(
        self,
        system: "CloudSystem",
        refresh_hz: float = 60.0,
        display_model: Optional[DisplayModel] = None,
    ) -> None:
        if refresh_hz <= 0:
            raise ValueError("refresh rate must be positive")
        self.system = system
        self.env = system.env
        self.refresh_hz = refresh_hz
        self.display_model = display_model
        self._decode_sampler = system.samplers["decode"]
        self.receive_queue = Store(system.env)
        self.displayed: List[Frame] = []
        #: Input ids from display-dropped frames awaiting the next photon.
        self._carry_ids: Set[int] = set()
        #: The frame being decoded and when its decode started.
        self._frame: Optional[Frame] = None
        self._decode_start = 0.0
        self.env.start(self, self._next)

    @property
    def refresh_period_ms(self) -> float:
        return 1000.0 / self.refresh_hz

    def next_vblank(self, time_ms: float) -> float:
        """The first vblank strictly after ``time_ms``."""
        period = self.refresh_period_ms
        return (math.floor(time_ms / period) + 1) * period

    def receive(self, frame: Frame) -> None:
        """A frame arrives from the network (called by NetworkPath)."""
        frame.t_received = self.env.now
        # The receive queue is unbounded, so the frame always fits.
        self.receive_queue.put(frame)

    def _next(self) -> None:
        """Take the next received frame (waits while the queue is empty)."""
        self.receive_queue.get(self._decode)

    def _decode(self, frame: Frame) -> None:
        self._frame = frame
        self._decode_start = self.env.now
        self.env.call_later(self._decode_sampler.next(), self._decoded)

    def _decoded(self) -> None:
        env = self.env
        system = self.system
        frame = self._frame
        assert frame is not None
        system.trace.record("decode", self._decode_start, env.now)
        if self.display_model is None:
            # The paper's client: a frame becomes photons when its
            # decode completes.
            frame.t_displayed = env.now
            self.displayed.append(frame)
            if frame.input_ids:
                system.tracker.frame_displayed(frame.input_ids, env.now)
        else:
            self._present(frame)
        system.regulator.on_client_display(self, frame)
        self._next()

    def _present(self, frame: Frame) -> None:
        """Route the decoded frame through the display model."""
        env = self.env
        system = self.system
        assert self.display_model is not None
        presentation = self.display_model.present(env.now)
        answer_ids = frame.input_ids | self._carry_ids
        self._carry_ids = set()
        if presentation.dropped:
            # The frame never reaches the screen; its inputs are
            # answered by the next presented frame.  ``frame.dropped``
            # stays unset: the frame left the pipeline whole.
            self._carry_ids = answer_ids
            frame.t_dropped = env.now
            return
        when = presentation.display_time
        frame.t_displayed = when
        self.displayed.append(frame)
        if when <= env.now:
            system.counter.record_display(when)
            system.tracker.frame_displayed(answer_ids, when)
        else:
            env.call_at(
                when,
                lambda ids=answer_ids, t=when: (
                    system.counter.record_display(t),
                    system.tracker.frame_displayed(ids, t),
                ),
            )


class FpsReporter(Actor):
    """Reports the client's decode FPS to the regulator once per second.

    Each report counts the frames decoded since the previous one and
    reaches the cloud one uplink later
    (:meth:`~repro.regulators.base.Regulator.on_client_fps_report`).
    ``name`` is the process name the reporter counts and profiles under
    (one per session on a consolidated server).
    """

    #: Report period (ms): counted frames over one second are the FPS.
    PERIOD_MS = 1000.0

    def __init__(self, system: "CloudSystem", name: str) -> None:
        self.system = system
        self.env = system.env
        self.name = name
        self._last_count = 0
        self.env.start(self, self._wait)

    def _wait(self) -> None:
        self.env.call_later(self.PERIOD_MS, self._report)

    def _report(self) -> None:
        system, env = self.system, self.env
        count = system.counter.count("decode")
        fps = float(count - self._last_count)
        self._last_count = count
        env.call_at(
            env.now + system.platform.uplink_ms,
            lambda f=fps: system.regulator.on_client_fps_report(f),
        )
        self._wait()
