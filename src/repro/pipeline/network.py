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
policy and lives in the regulator's network loop.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Callable, Optional

from repro.pipeline.frames import Frame
from repro.simcore import Event, ProcessGenerator
from repro.simcore.rng import lognormal_params

if TYPE_CHECKING:  # pragma: no cover
    from repro.pipeline.system import CloudSystem

__all__ = ["NetworkPath"]


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
        self.sent_count = 0
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

    def transmit(self, frame: Frame) -> ProcessGenerator:
        """Generator: serialize ``frame`` and deliver it to the client.

        Acquires the (possibly shared) uplink when the system defines
        one — consolidated sessions serialize their sends on it.  With
        faults injected (:mod:`repro.faults`), an outage window parks
        the sender until it lifts, and a packet-loss burst may drop the
        serialized frame (its inputs then ride the next delivery).
        """
        env = self.env
        faults = self.system.faults
        if faults is not None:
            release_at = faults.outage_release_at(env.now)
            if release_at is not None:
                yield env.timeout(release_at - env.now)
        request: Optional[Event] = None
        if self.system.link_resource is not None:
            request = self.system.link_resource.request()
            yield request
        frame.t_send_start = env.now
        yield env.timeout(self.serialize_ms(frame.size_bytes))
        frame.t_send_end = env.now
        self.system.trace.record("transmit", frame.t_send_start, frame.t_send_end)
        if self.system.telemetry is not None:
            self.system.telemetry.stage_complete(
                frame, "transmit", frame.t_send_start, frame.t_send_end
            )
        self.system.counter.record("transmit", env.now)
        self.sent_count += 1
        self.sent_bytes += frame.size_bytes
        if request is not None:
            self.system.link_resource.release(request)
        if faults is not None:
            if faults.frame_lost(env.now):
                faults.absorb_lost_frame(frame)
                return
            carried = faults.claim_carried_inputs()
            if carried:
                frame.input_ids |= carried
        client = self.system.client
        env.call_at(env.now + self.platform.downlink_ms, lambda f=frame: client.receive(f))
