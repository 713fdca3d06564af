"""The regulator interface and the conventional-stack plumbing.

A regulator is the *policy* layer of the pipeline.  It decides:

* when the app may start rendering the next frame (:meth:`Regulator.app_wait`
  — the ``glXSwapBuffers`` hook point);
* what happens to a frame after rendering (:meth:`Regulator.app_submit`);
* how the server proxy and network sender loops are driven
  (:meth:`Regulator.build` starts them as callback actors);
* how feedback from the client and user inputs are handled
  (:meth:`Regulator.on_client_display`, :meth:`Regulator.on_client_fps_report`,
  :meth:`Regulator.on_server_input`).

The base class implements the **conventional stack** shared by NoReg,
Int, and RVS: a latest-frame-wins mailbox between app and proxy (whose
overwrites are the excessive rendering), and a byte-bounded send queue
between proxy and network (whose congestion produces the NoReg latency
blow-up on slow paths).  Subclasses override only the policy hooks.
ODR replaces the buffers and loops wholesale (see :mod:`repro.core`).

The app-side hooks take a continuation: the app's next step, which a
hook calls (directly, or from a calendar entry once its wait is over)
when the app may go on.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional, Sequence

from repro.pipeline.buffers import ByteBudgetQueue, Mailbox
from repro.pipeline.network import TransmitLoop
from repro.pipeline.proxy import EncodeLoop
from repro.simcore import Step

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
    #: Durations (ms) of the pacing sleeps the policy took, and how many
    #: of them an input cut short; only ODR paces its proxy.
    pacing_sleeps: Sequence[float] = ()
    pacing_interrupts: int = 0

    def __init__(self) -> None:
        self.system: Optional["CloudSystem"] = None
        self.mailbox: Optional[Mailbox] = None
        self.send_queue: Optional[ByteBudgetQueue] = None

    # -- wiring ------------------------------------------------------------

    def attach(self, system: "CloudSystem") -> None:
        """Bind to a system and start this policy's proxy/network loops."""
        self.system = system
        self.build(system)

    def build(self, system: "CloudSystem") -> None:
        """Construct buffers and start the conventional proxy/network loops."""
        env = system.env
        self.mailbox = Mailbox(env)
        self.send_queue = ByteBudgetQueue(env, system.platform.send_buffer_bytes)
        MailboxProxy(system, self.mailbox, self.send_queue)
        QueueSender(system, self.send_queue)

    # -- app-side hooks -------------------------------------------------------

    def app_wait(self, app: "Application3D", then: Step) -> None:
        """Rendering delay before the next frame; default: none (free-run)."""
        then()

    def app_submit(self, app: "Application3D", frame: "Frame", then: Step) -> None:
        """Deliver a rendered frame downstream; default: mailbox offer.

        The mailbox never blocks the renderer: an unconsumed older frame
        is simply overwritten (and thereby becomes excessive rendering).
        """
        assert self.mailbox is not None, "build() must run before app_submit()"
        self.mailbox.offer(frame)
        then()

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


class MailboxProxy(EncodeLoop):
    """The conventional proxy loop: pull the latest rendered frame,
    encode it, push it to the send queue.

    The ``put`` waits while the send queue's byte budget is full — TCP
    backpressure on the encoder.
    """

    def __init__(
        self, system: "CloudSystem", mailbox: Mailbox, send_queue: ByteBudgetQueue
    ) -> None:
        super().__init__(system, "proxy")
        self.mailbox = mailbox
        self.send_queue = send_queue
        self.env.start(self, self._pull)

    def _pull(self) -> None:
        self.mailbox.get(self.encode)

    def encoded(self, frame: "Frame") -> None:
        self.send_queue.put(frame, self._pull)


class QueueSender(TransmitLoop):
    """The conventional network loop: serially transmit frames from the
    send queue."""

    def __init__(self, system: "CloudSystem", send_queue: ByteBudgetQueue) -> None:
        super().__init__(system, "network")
        self.send_queue = send_queue
        self.env.start(self, self._pull)

    def _pull(self) -> None:
        self.send_queue.get(self.transmit)

    def transmitted(self) -> None:
        self._pull()
