"""The cloud→client frame transmission path (paper Fig. 2, step 6).

Transmission time for a frame has two components:

* **serialization** — ``size / effective_bandwidth``, with log-normal
  multiplicative jitter modelling path variability (larger on the GCE
  Internet path than on the private LAN), plus a small fixed per-frame
  protocol overhead;
* **propagation** — the platform's one-way downlink latency, applied
  after serialization completes (the frame then appears in the client's
  receive queue).

The sender transmits one frame at a time (the link is serial); who
feeds it — a byte-bounded send queue or ODR's Mul-Buf2 — is regulator
policy and lives in the regulator's network actor, a
:class:`TransmitLoop`.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Callable, Optional

from repro.pipeline.frames import Frame
from repro.simcore import Actor
from repro.simcore.resources import ResourceRequest
from repro.simcore.rng import lognormal_params

if TYPE_CHECKING:  # pragma: no cover
    from repro.pipeline.system import CloudSystem

__all__ = ["NetworkPath", "TransmitLoop"]


class NetworkPath:
    """Serial transmitter over the platform's network path."""

    #: Fixed per-frame protocol/framing overhead (ms).
    PER_FRAME_OVERHEAD_MS = 0.25

    def __init__(
        self,
        system: "CloudSystem",
        bandwidth_schedule: Optional[Callable[[float], float]] = None,
    ) -> None:
        self.system = system
        self.env = system.env
        self.platform = system.platform
        #: Optional time-varying capacity factor (repro.pipeline.netdyn).
        self.bandwidth_schedule = bandwidth_schedule
        # Log-normal jitter of mean 1: exp(mu + sigma*z) on a block-drawn
        # normal, as SeededRng.lognormal_mean_cv would draw it; none at cv 0.
        jitter_cv = self.platform.transmit_jitter_cv
        self._jitter_mu, self._jitter_sigma = lognormal_params(1.0, jitter_cv)
        self._jitter_normal: Optional[Callable[[], float]] = (
            system.rng.child("network", "jitter").claim_normals() if jitter_cv != 0 else None
        )
        self.sent_bytes = 0

    def capacity_factor(self, time_ms: float) -> float:
        """Current bandwidth multiplier (1.0 when no schedule is set)."""
        if self.bandwidth_schedule is None:
            return 1.0
        factor = self.bandwidth_schedule(time_ms)
        if factor <= 0:
            raise ValueError(f"bandwidth schedule returned {factor} at t={time_ms}")
        return factor

    def serialize_ms(self, size_bytes: int) -> float:
        """Draw the serialization time for a frame of ``size_bytes``."""
        base = self.platform.transmit_ms(size_bytes) / self.capacity_factor(self.env.now)
        normal = self._jitter_normal
        jitter = 1.0 if normal is None else math.exp(
            self._jitter_mu + self._jitter_sigma * normal()
        )
        return base * jitter + self.PER_FRAME_OVERHEAD_MS

    def finish_transmit(self, frame: Frame) -> None:
        """``frame`` is serialized: stamp and trace it."""
        frame.t_send_end = now = self.env.now
        self.system.trace.record("transmit", frame.t_send_start, now)
        self.sent_bytes += frame.size_bytes

    def deliver(self, frame: Frame) -> None:
        """Deliver a serialized frame to the client one downlink later.

        With faults injected (:mod:`repro.faults`), a packet-loss burst
        may drop the frame instead; its inputs then ride the next
        delivery.
        """
        env = self.env
        faults = self.system.faults
        if faults is not None:
            if faults.frame_lost(env.now):
                faults.absorb_lost_frame(frame)
                return
            carried = faults.claim_carried_inputs()
            if carried:
                frame.input_ids |= carried
        client = self.system.client
        env.call_at(env.now + self.platform.downlink_ms, lambda f=frame: client.receive(f))


class TransmitLoop(Actor):
    """Base of the regulators' network actors: one send at a time.

    :meth:`transmit` serializes a frame on ``system.network`` and
    delivers it to the client; subclasses continue in
    :meth:`transmitted`.  It acquires the (possibly shared) uplink
    first when the system defines one — consolidated sessions serialize
    their sends on it — and, with faults injected, an outage window
    parks the sender until it lifts.
    """

    def __init__(self, system: "CloudSystem", name: str) -> None:
        self.system = system
        self.env = system.env
        self.name = name
        #: The frame being sent and its uplink claim.
        self._frame: Optional[Frame] = None
        self._link_request: Optional[ResourceRequest] = None

    def transmit(self, frame: Frame) -> None:
        """Send ``frame``; :meth:`transmitted` runs when it is on its way."""
        self._frame = frame
        faults = self.system.faults
        if faults is not None:
            env = self.env
            release_at = faults.outage_release_at(env.now)
            if release_at is not None:
                env.call_later(release_at - env.now, self._acquire_link)
                return
        self._acquire_link()

    def _acquire_link(self) -> None:
        resource = self.system.link_resource
        if resource is None:
            self._serialize()
        else:
            self._link_request = resource.request(self._serialize)

    def _serialize(self) -> None:
        frame = self._frame
        assert frame is not None
        frame.t_send_start = self.env.now
        self.env.call_later(self.system.network.serialize_ms(frame.size_bytes), self._sent)

    def _sent(self) -> None:
        system = self.system
        frame = self._frame
        assert frame is not None
        system.network.finish_transmit(frame)
        if self._link_request is not None:
            assert system.link_resource is not None
            system.link_resource.release(self._link_request)
            self._link_request = None
        system.network.deliver(frame)
        self.transmitted()

    def transmitted(self) -> None:
        """The current frame left the sender; continue the loop."""
        raise NotImplementedError
