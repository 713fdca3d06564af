"""The regulator interface and the conventional-stack plumbing.

A regulator is the *policy* layer of the pipeline.  It decides:

* when the app may start rendering the next frame (:meth:`Regulator.app_wait`
  — the ``glXSwapBuffers`` hook point);
* what happens to a frame after rendering (:meth:`Regulator.app_submit`);
* how the server proxy and network sender loops are driven
  (:meth:`Regulator.build` spawns them);
* how feedback from the client and user inputs are handled
  (:meth:`Regulator.on_client_display`, :meth:`Regulator.on_client_fps_report`,
  :meth:`Regulator.on_server_input`).

The base class implements the **conventional stack** shared by NoReg,
Int, and RVS: a latest-frame-wins mailbox between app and proxy (whose
overwrites are the excessive rendering), and a byte-bounded send queue
between proxy and network (whose congestion produces the NoReg latency
blow-up on slow paths).  Subclasses override only the policy hooks.
ODR replaces the buffers and loops wholesale (see :mod:`repro.core`).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.pipeline.buffers import ByteBudgetQueue, Mailbox
from repro.simcore import ProcessGenerator

if TYPE_CHECKING:  # pragma: no cover
    from repro.pipeline.app import Application3D
    from repro.pipeline.client import Client
    from repro.pipeline.frames import Frame
    from repro.pipeline.inputs import InputEvent
    from repro.pipeline.system import CloudSystem

__all__ = ["Regulator"]


class Regulator:
    """Base FPS-regulation policy: the conventional (non-ODR) stack."""

    #: Display name used in results/tables.
    name = "base"
    #: FPS QoS target; None means "maximize FPS".
    fps_target: Optional[float] = None
    #: Client display refresh rate this regulator assumes (RVS varies it).
    client_refresh_hz: float = 60.0
    #: Whether this policy's injected rendering sleeps mask input
    #: delivery.  The interval/RVS delay sleeps inside the GL call path
    #: after ``glXSwapBuffers``; X events arriving during that sleep are
    #: not seen until the loop has slept *and* rendered once more, so
    #: they take effect one frame cycle late — the mechanism behind the
    #: paper's Sec. 4.2 finding that existing FPS regulations increase
    #: MtP latency.  NoReg never sleeps; ODR's PriorityFrame cancels the
    #: sleep on input, so neither is affected.
    sleep_masks_inputs: bool = False

    def __init__(self) -> None:
        self.system: Optional["CloudSystem"] = None
        self.mailbox: Optional[Mailbox] = None
        self.send_queue: Optional[ByteBudgetQueue] = None

    # -- wiring ------------------------------------------------------------

    def attach(self, system: "CloudSystem") -> None:
        """Bind to a system and spawn this policy's proxy/network loops."""
        self.system = system
        self.build(system)

    def build(self, system: "CloudSystem") -> None:
        """Construct buffers and spawn the conventional proxy/network loops."""
        env = system.env
        self.mailbox = Mailbox(env, on_drop=self._record_drop)
        self.send_queue = ByteBudgetQueue(env, system.platform.send_buffer_bytes)
        env.process(self.proxy_loop(system), name="proxy")
        env.process(self.network_loop(system), name="network")

    def _record_drop(self, frame: "Frame") -> None:
        """Annotate a buffer drop on the run's telemetry, if enabled."""
        if self.system is None:
            return
        telemetry = self.system.telemetry
        if telemetry is not None and frame.dropped is not None:
            telemetry.frame_dropped(frame, self.system.env.now, frame.dropped.value)

    # -- app-side hooks -------------------------------------------------------

    def app_wait(self, app: "Application3D") -> ProcessGenerator:
        """Rendering delay before the next frame; default: none (free-run)."""
        return
        yield  # pragma: no cover -- generator marker

    def app_submit(self, app: "Application3D", frame: "Frame") -> ProcessGenerator:
        """Deliver a rendered frame downstream; default: mailbox offer.

        The mailbox never blocks the renderer: an unconsumed older frame
        is simply overwritten (and thereby becomes excessive rendering).
        """
        assert self.mailbox is not None, "build() must run before app_submit()"
        self.mailbox.offer(frame)
        return
        yield  # pragma: no cover -- generator marker

    # -- proxy / network loops -------------------------------------------------

    def proxy_loop(self, system: "CloudSystem") -> ProcessGenerator:
        """Pull the latest rendered frame, copy+encode, push to send queue.

        The ``put`` blocks while the send queue's byte budget is full —
        TCP backpressure on the encoder.
        """
        assert self.mailbox is not None and self.send_queue is not None
        while True:
            frame = yield self.mailbox.get()
            yield from system.proxy.encode(frame)
            yield self.send_queue.put(frame)
            if system.telemetry is not None:
                self._publish_queue_depth(system)

    def network_loop(self, system: "CloudSystem") -> ProcessGenerator:
        """Serially transmit frames from the send queue."""
        assert self.send_queue is not None, "build() must run before network_loop()"
        while True:
            frame = yield self.send_queue.get()
            if system.telemetry is not None:
                self._publish_queue_depth(system)
            yield from system.network.transmit(frame)

    def _publish_queue_depth(self, system: "CloudSystem") -> None:
        """Publish send-queue occupancy gauges (telemetry already checked)."""
        assert system.telemetry is not None and self.send_queue is not None
        system.telemetry.queue_depth("send_queue", len(self.send_queue))
        system.telemetry.queue_bytes("send_queue", self.send_queue.queued_bytes)

    # -- feedback hooks -----------------------------------------------------------

    def on_server_input(self, app: "Application3D", event: "InputEvent") -> None:
        """A user input reached the server proxy (default: no reaction;
        the input waits in the app's pending queue for the next frame)."""

    def on_client_display(self, client: "Client", frame: "Frame") -> None:
        """A frame was displayed at the client (RVS feedback hook)."""

    def on_client_fps_report(self, client_fps: float) -> None:
        """Per-second client FPS report arrived at the cloud (IntMax hook)."""

    def on_fault_begin(self, kind: str, at_ms: float) -> None:
        """An injected fault window opened (:mod:`repro.faults`).

        Called *in simulation time* at the window's start.  The base
        policies ignore faults — they experience them only through the
        pipeline — but fault-aware policies may pre-position (e.g. drain
        buffers before a known maintenance window).
        """

    def on_fault_end(self, kind: str, at_ms: float) -> None:
        """An injected fault window closed (:mod:`repro.faults`)."""
