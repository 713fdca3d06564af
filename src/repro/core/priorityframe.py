"""PriorityFrame — ODR's input-latency component (Sec. 5.3).

The observation: most rendered frames answer the application's internal
refreshes, not user inputs (a user produces at most ~5 discrete actions
per second), so the few input-triggered frames can be prioritized
without disturbing regulation.

On every discrete input that reaches the server, the controller:

1. **arms** the app — the next rendered frame is a priority frame
   (the ``XNextEvent``-hook half of PriorityFrame);
2. **cancels the rendering delay** — flushing Mul-Buf1's back buffer
   both drops the obsolete unencoded frame *and* opens the swap gate
   the app's render loop blocks on, so rendering resumes immediately;
3. **drops obsolete frames** — the unsent encoded frame in Mul-Buf2's
   back buffer is flushed too; input ids carried by flushed frames are
   inherited so MtP accounting stays exact;
4. **bypasses pacing** — if the proxy is in its ``acc_delay`` sleep,
   it is interrupted so the priority frame is encoded at once.

Polling events (mouse position / VR pose streams) are explicitly *not*
prioritized, exactly as in the paper: input combining already gives
them low perceived latency.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.odr import OnDemandRendering
    from repro.pipeline.app import Application3D
    from repro.pipeline.inputs import InputEvent

__all__ = ["PriorityFrameController"]


class PriorityFrameController:
    """Reacts to discrete inputs on behalf of an ODR regulator."""

    def __init__(self, odr: "OnDemandRendering") -> None:
        self.odr = odr
        self.inputs_seen = 0
        self.frames_flushed = 0

    def on_input(self, app: "Application3D", event: "InputEvent") -> None:
        """Handle a user input that just reached the server proxy."""
        if not event.is_action:
            return  # polling events are combined, never prioritized
        self.inputs_seen += 1
        app.priority_armed = True

        # Drop obsolete frames: the unencoded frame waiting in Mul-Buf1's
        # back buffer and the unsent encoded frame in Mul-Buf2's.
        for buf in (self.odr.mulbuf1, self.odr.mulbuf2):
            if buf is None:
                continue
            dropped = buf.flush_back()
            if dropped is not None:
                self.frames_flushed += 1
                app.inherited_ids |= dropped.input_ids

        # If the proxy is sitting in its pacing sleep, cut it short.
        self.odr.interrupt_pacing()
