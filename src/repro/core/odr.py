"""The assembled OnDemand Rendering regulator (paper Sec. 5, Fig. 8).

Data path under ODR::

    3D app --Mul-Buf1--> server proxy (copy+encode, Algorithm 1 pacing)
           --Mul-Buf2--> network sender --> client

The app blocks on Mul-Buf1's back buffer ("the 3D application pauses
its rendering until the buffers are swapped"); the proxy blocks on
Mul-Buf1's swap condition and Mul-Buf2's back buffer; the network
sender blocks on Mul-Buf2's swap condition.  Those four blocking points
are the entire synchronization mechanism — no timing feedback crosses
the network, which is why ODR responds to frame-to-frame variation at
buffer-swap speed instead of round-trip speed.

The proxy and network loops are callback actors (:class:`OdrProxy`,
:class:`OdrSender`); each blocking point is a step that re-runs itself
when its buffer wakes it.
"""

from __future__ import annotations

from functools import partial
from typing import TYPE_CHECKING, List, Optional

from repro.core.priorityframe import PriorityFrameController
from repro.core.regulator import FpsRegulatorClock
from repro.pipeline.buffers import MultiBuffer
from repro.pipeline.network import TransmitLoop
from repro.pipeline.proxy import EncodeLoop
from repro.regulators.base import Regulator
from repro.simcore import Step
from repro.simcore.engine import URGENT

if TYPE_CHECKING:  # pragma: no cover
    from repro.pipeline.app import Application3D
    from repro.pipeline.frames import Frame
    from repro.pipeline.inputs import InputEvent
    from repro.pipeline.system import CloudSystem

__all__ = ["OdrProxy", "OdrSender", "OnDemandRendering"]


class OnDemandRendering(Regulator):
    """ODR: multi-buffering + FPS regulator + PriorityFrame."""

    def __init__(
        self,
        target_fps: Optional[float] = None,
        priority_frames: bool = True,
        accelerate: bool = True,
        debt_window_ms: float = 200.0,
        pacing_margin: float = 0.0,
    ) -> None:
        super().__init__()
        self.fps_target = target_fps
        self.clock = FpsRegulatorClock(
            target_fps=target_fps,
            accelerate=accelerate,
            debt_window_ms=debt_window_ms,
            pacing_margin=pacing_margin,
        )
        self.priority: Optional[PriorityFrameController] = (
            PriorityFrameController(self) if priority_frames else None
        )
        base = f"ODR{target_fps:g}" if target_fps else "ODRMax"
        suffixes: List[str] = []
        if not priority_frames:
            suffixes.append("noPri")
        if not accelerate:
            suffixes.append("noAccel")
        self.name = base + "".join(f"-{s}" for s in suffixes)
        self.mulbuf1: Optional[MultiBuffer] = None
        self.mulbuf2: Optional[MultiBuffer] = None
        self._proxy: Optional[OdrProxy] = None
        self.pacing_sleeps: List[float] = []
        self.pacing_interrupts = 0

    # -- wiring ------------------------------------------------------------

    def build(self, system: "CloudSystem") -> None:
        env = system.env
        self.mulbuf1 = MultiBuffer(env, name="mulbuf1")
        self.mulbuf2 = MultiBuffer(env, name="mulbuf2")
        self._proxy = OdrProxy(system, self)
        OdrSender(system, self.mulbuf2)

    # -- app-side hooks -------------------------------------------------------

    def app_wait(self, app: "Application3D", then: Step) -> None:
        """Pause rendering until Mul-Buf1's back buffer is free.

        A PriorityFrame flush empties the back buffer, so an armed input
        implicitly cancels this wait — the gate opens immediately.  The
        app is the back buffer's only producer, and it is waiting here,
        so nothing refills the buffer before ``then`` runs.
        """
        assert self.mulbuf1 is not None, "build() must run before app_wait()"
        if self.mulbuf1.back_occupied:
            self.mulbuf1.back_free(then)
        else:
            then()

    def app_submit(self, app: "Application3D", frame: "Frame", then: Step) -> None:
        """Deposit the rendered frame into Mul-Buf1's back buffer.

        :meth:`app_wait` let the app render only once the back buffer was
        free, and only the app fills it, so the deposit never waits.
        Only frames already *sitting in buffers* are flushed as obsolete
        (Sec. 5.3); a frame whose render straddled the input's arrival
        is submitted normally — it is the newest world state available
        and "not every priority frame causes frame drop".
        """
        assert self.mulbuf1 is not None, "build() must run before app_submit()"
        self.mulbuf1.put_back(frame)
        then()

    def interrupt_pacing(self) -> None:
        """Cut the proxy's pacing sleep short (PriorityFrame fast path)."""
        if self._proxy is not None:
            self._proxy.interrupt_pacing()

    # -- feedback hooks -----------------------------------------------------------

    def on_server_input(self, app: "Application3D", event: "InputEvent") -> None:
        if self.priority is not None:
            self.priority.on_input(app, event)


class OdrProxy(EncodeLoop):
    """Algorithm 1: encode from Mul-Buf1, store to Mul-Buf2, pace via
    ``acc_delay``."""

    def __init__(self, system: "CloudSystem", odr: OnDemandRendering) -> None:
        super().__init__(system, "odr-proxy")
        assert odr.mulbuf1 is not None and odr.mulbuf2 is not None
        self.odr = odr
        self.mulbuf1 = odr.mulbuf1
        self.mulbuf2 = odr.mulbuf2
        self._loop_start = 0.0
        #: Serial number of the current pacing sleep (its 1-based index in
        #: ``odr.pacing_sleeps``); 0 while not pacing.  A sleep cut short
        #: stays on the calendar and wakes as a no-op.
        self._pacing = 0
        self.env.start(self, self._next)

    def _next(self) -> None:
        self._loop_start = self.env.now
        self._swap()

    def _swap(self) -> None:
        # swap Mul-Buf1 (Algorithm 1 lines 17-18; waits until the app
        # has deposited a new frame) and take the frame to process.  The
        # wait is included in the frame's accounted time, so a render
        # spike that starves the encoder is repaid by the acceleration
        # path exactly like an encode spike.
        if not self.mulbuf1.swap_when_ready(self._swap):
            return
        # encode (lines 5-6) ...
        self.encode(self.mulbuf1.take_front())

    def encoded(self, frame: "Frame") -> None:
        self._store()

    def _store(self) -> None:
        # ... and store to Mul-Buf2 (lines 7-8; waits for the network to
        # free the back buffer — transmission backpressure).
        frame = self._frame
        assert frame is not None
        if not self.mulbuf2.put_when_free(frame, self._store):
            return
        env = self.env
        elapsed = env.now - self._loop_start

        if frame.priority:
            # Priority frames bypass the regulator entirely: they are
            # "sent ... for encoding and network transmission without
            # any delay" (Sec. 5.3) and do not consume a pacing slot.
            self._next()
            return

        # lines 10-16: accumulate slack; sleep only when positive.
        odr = self.odr
        sleep_ms = odr.clock.frame_processed(elapsed)
        if sleep_ms <= 0:
            self._next()
            return
        if odr.priority is not None and self.system.app.priority_armed:
            # A priority frame is already pending: cancel the delay
            # (the rendering-delay cancellation of Sec. 5.3).
            odr.clock.cancel_debt()
            self._next()
            return
        odr.pacing_sleeps.append(sleep_ms)
        self._pacing = len(odr.pacing_sleeps)
        env.call_later(sleep_ms, partial(self._paced, self._pacing))

    def _paced(self, sleep: int) -> None:
        if sleep != self._pacing:
            return  # cut short by PriorityFrame; the loop went on
        self._pacing = 0
        self._next()

    def interrupt_pacing(self) -> None:
        """PriorityFrame cut the pacing sleep short: go on at once."""
        if self._pacing:
            self._pacing = 0
            self.env.call_later(0.0, self._interrupted, URGENT)

    def _interrupted(self) -> None:
        self.odr.clock.cancel_debt()
        self.odr.pacing_interrupts += 1
        self._next()


class OdrSender(TransmitLoop):
    """Transmit from Mul-Buf2's front buffer, swapping when done."""

    def __init__(self, system: "CloudSystem", mulbuf2: MultiBuffer) -> None:
        super().__init__(system, "odr-network")
        self.mulbuf2 = mulbuf2
        self.env.start(self, self._next)

    def _next(self) -> None:
        if not self.mulbuf2.swap_when_ready(self._next):
            return
        self.transmit(self.mulbuf2.take_front())

    def transmitted(self) -> None:
        self._next()
