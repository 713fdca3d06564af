"""The 3D application's render loop (paper Fig. 2, steps 3-4).

The loop mirrors a real game's main loop as seen through ODR's API
hooks (Sec. 5.4):

1. **gate** — the regulator's rendering delay.  In the real system this
   is the code ODR injects directly after ``glXSwapBuffers``; here it is
   ``regulator.app_wait``.  NoReg returns immediately (free-running),
   Int sleeps to the interval grid, RVS waits for the vblank schedule,
   ODR blocks until Mul-Buf1's back buffer is free.
2. **input drain** — all inputs that arrived since the previous frame
   are combined into this frame (the "input combining" all the paper's
   benchmarks perform); the ``XNextEvent`` hook analogue.
3. **render** — one GPU render of stochastic duration.
4. **copy** — the framebuffer readback into the server proxy (VirtualGL
   performs this inside the ``glXSwapBuffers`` call, i.e. in the app's
   frame loop, pipelined with the proxy's encoding of earlier frames).
5. **submit** — ``regulator.app_submit`` hands the frame downstream
   (mailbox offer, or Mul-Buf1 back-buffer deposit for ODR).

Render and copy times are inflated by the live DRAM-contention
multiplier (:mod:`repro.pipeline.contention`): when the encoder is
hammering memory at the same time, the app's own frame takes longer —
the feedback loop behind the paper's Sec. 4.3 analysis.

The loop is a callback actor (:class:`~repro.simcore.engine.Actor`):
each step above is a method that schedules or hands over the next, and
the regulator's hooks call back the step that follows them.
"""

from __future__ import annotations

import itertools
from typing import TYPE_CHECKING, List, Optional, Set

from repro.pipeline.frames import Frame
from repro.pipeline.inputs import InputEvent
from repro.simcore import Actor
from repro.simcore.resources import ResourceRequest

if TYPE_CHECKING:  # pragma: no cover
    from repro.pipeline.system import CloudSystem

__all__ = ["Application3D"]


class Application3D(Actor):
    """The (closed-source) interactive 3D application, as hooked by ODR."""

    name = "app"

    def __init__(self, system: "CloudSystem") -> None:
        self.system = system
        self.env = system.env
        self._render_sampler = system.samplers["render"]
        self._copy_sampler = system.samplers["copy"]
        #: Inputs forwarded by the server proxy, awaiting the next frame.
        self.pending_inputs: List[InputEvent] = []
        #: Inputs that arrived while the loop slept in an injected
        #: regulation delay (see Regulator.sleep_masks_inputs); they are
        #: promoted to pending one frame late.
        self.masked_inputs: List[InputEvent] = []
        #: True while the loop is blocked in the regulator's gate.
        self.in_gate = False
        #: Input ids inherited from frames flushed as obsolete; absorbed
        #: into the next frame created.
        self.inherited_ids: Set[int] = set()
        #: Set by ODR's PriorityFrame when a discrete input arrives; the
        #: next frame is flagged as a priority frame.
        self.priority_armed = False
        self._frame_ids = itertools.count(1)
        self.frames: List[Frame] = []
        #: Time each frame waited in the regulator's gate (ms), one per
        #: frame in ``frames`` order — what run records summarise.
        self.gate_delays: List[float] = []
        # The frame in flight, when it entered the gate, and the running
        # stage's start time and GPU claim.
        self._frame: Optional[Frame] = None
        self._gate_entered = 0.0
        self._stage_start = 0.0
        self._gpu_request: Optional[ResourceRequest] = None
        self.env.start(self, self._gate)

    # -- input path ------------------------------------------------------

    def deliver_input(self, event: InputEvent) -> None:
        """Server proxy forwards an input to the app (paper step 2)."""
        if self.system.regulator.sleep_masks_inputs and self.in_gate:
            # The loop is asleep inside the injected regulation delay;
            # the X event is read only after one more sleep+render cycle.
            self.masked_inputs.append(event)
        else:
            self.pending_inputs.append(event)
        self.system.regulator.on_server_input(self, event)

    def _begin_frame(self) -> Frame:
        """Drain pending inputs (input combining) and create the frame.

        The frame's id set is ``action ids | inherited ids`` as a new set;
        a frame without either gets an empty one, and the lists and the
        inherited set are replaced only when they hold something."""
        inputs = self.pending_inputs
        if inputs or self.masked_inputs:
            # Inputs masked by a regulation sleep become visible to the
            # *next* frame's drain.
            self.pending_inputs, self.masked_inputs = self.masked_inputs, []
        inherited = self.inherited_ids
        action_ids = {e.input_id for e in inputs if e.is_action} if inputs else None
        if action_ids:
            input_ids = action_ids | inherited
        elif inherited:
            input_ids = set(inherited)
        else:
            input_ids = set()
        if inherited:
            self.inherited_ids = set()
        frame = Frame(
            frame_id=next(self._frame_ids),
            triggered_by_input=bool(action_ids),
            priority=self.priority_armed and bool(action_ids),
            input_ids=input_ids,
            t_created=self.env.now,
        )
        self.priority_armed = False
        self.frames.append(frame)
        return frame

    # -- the main loop -----------------------------------------------------

    def _gate(self) -> None:
        """Enter the regulator's gate; it calls back :meth:`_render`."""
        self._gate_entered = self.env.now
        self.in_gate = True
        self.system.regulator.app_wait(self, self._render)

    def _render(self) -> None:
        """Open the frame and render it, on the shared GPU when the
        system defines one (sessions consolidated onto one server
        serialize their renders on it, see :mod:`repro.multitenant`)."""
        env = self.env
        system = self.system
        self.in_gate = False
        frame = self._frame = self._begin_frame()
        self.gate_delays.append(env.now - self._gate_entered)
        frame.t_render_start = env.now
        if system.gpu_resource is None:
            self._start_render()
        else:
            self._gpu_request = system.gpu_resource.request(self._start_render)

    def _start_render(self) -> None:
        env = self.env
        self._stage_start = env.now
        duration = self._render_sampler.next() * self.system.contention.begin("render")
        env.call_later(duration, self._rendered)

    def _rendered(self) -> None:
        env = self.env
        system = self.system
        now = env.now
        system.contention.exit("render")
        system.trace.record("render", self._stage_start, now)
        if self._gpu_request is not None:
            assert system.gpu_resource is not None
            system.gpu_resource.release(self._gpu_request)
            self._gpu_request = None
        assert self._frame is not None
        self._frame.t_render_end = now
        # The copy starts as the render ends.
        self._stage_start = now
        duration = self._copy_sampler.next() * system.contention.begin("copy")
        env.call_later(duration, self._copied)

    def _copied(self) -> None:
        system = self.system
        now = self.env.now
        system.contention.exit("copy")
        system.trace.record("copy", self._stage_start, now)
        frame = self._frame
        assert frame is not None
        frame.t_copy_end = now
        system.regulator.app_submit(self, frame, self._gate)
