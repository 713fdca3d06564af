"""The server proxy's encode stage (paper Fig. 2, step 5).

The proxy encodes copied frames into video frames.  *Who drives* the
encode loop is regulator policy (mailbox pull for the conventional
stack, Algorithm 1 for ODR); this module provides the mechanism:
:class:`ServerProxy` holds the encoder's state, and :class:`EncodeLoop`,
the base of every regulator's proxy actor, runs one stochastic-service-
time encode, inflated by the live DRAM-contention multiplier, records
the busy interval for the hardware models, stamps timestamps, and
assigns the encoded frame size.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.pipeline.frames import Frame
from repro.simcore import Actor
from repro.simcore.resources import ResourceRequest

if TYPE_CHECKING:  # pragma: no cover
    from repro.pipeline.system import CloudSystem

__all__ = ["EncodeLoop", "ServerProxy"]


class ServerProxy:
    """Frame encode stage on the cloud server."""

    def __init__(self, system: "CloudSystem") -> None:
        self.system = system
        self.env = system.env
        self._encode_sampler = system.samplers["encode"]

    def start_encode(self) -> float:
        """Begin one encode: return its drawn duration times the factor
        the DRAM-contention domain gives it as it enters."""
        return self._encode_sampler.next() * self.system.contention.begin("encode")

    def finish_encode(self, frame: Frame, start: float) -> None:
        """End the encode of ``frame`` begun at ``start``: trace it (the
        trace's interval is the run's record of the completion), stamp it
        and assign its encoded size."""
        env = self.env
        system = self.system
        system.contention.exit("encode")
        system.trace.record("encode", start, env.now)
        frame.t_encode_end = env.now
        # Read the sampler through the system so quality-ladder wrappers
        # (repro.pipeline.abr) spliced in after construction take effect.
        frame.size_bytes = system.size_sampler.next()


class EncodeLoop(Actor):
    """Base of the regulators' proxy actors: one encode at a time.

    :meth:`encode` runs one encode (step 5) on ``system.proxy``,
    acquiring a slot of the (possibly shared) encoder pool first when
    the system defines one (see :mod:`repro.multitenant`); subclasses
    continue in :meth:`encoded`.
    """

    def __init__(self, system: "CloudSystem", name: str) -> None:
        self.system = system
        self.env = system.env
        self.name = name
        #: The frame being encoded, its encode start, its encoder claim.
        self._frame: Optional[Frame] = None
        self._encode_start = 0.0
        self._encoder_request: Optional[ResourceRequest] = None

    def encode(self, frame: Frame) -> None:
        """Encode ``frame``; :meth:`encoded` runs when it is done."""
        self._frame = frame
        resource = self.system.encode_resource
        if resource is None:
            self._run_encode()
        else:
            self._encoder_request = resource.request(self._run_encode)

    def _run_encode(self) -> None:
        self._encode_start = self.env.now
        self.env.call_later(self.system.proxy.start_encode(), self._encode_done)

    def _encode_done(self) -> None:
        system = self.system
        frame = self._frame
        assert frame is not None
        system.proxy.finish_encode(frame, self._encode_start)
        if self._encoder_request is not None:
            assert system.encode_resource is not None
            system.encode_resource.release(self._encoder_request)
            self._encoder_request = None
        self.encoded(frame)

    def encoded(self, frame: Frame) -> None:
        """The encode of ``frame`` finished; continue the loop."""
        raise NotImplementedError
