"""Deployment platform and resolution profiles.

The paper evaluates two deployments (Sec. 6.1):

* a **private cloud** — i7-7820X + GTX 1080Ti server, 1 Gbps LAN to the
  client, ~2 ms ping: the "edge" deployment;
* **Google Compute Engine** — n1-highcpu-16 + Tesla P4 in us-central1,
  commodity Internet path, ~25 ms ping: the "public cloud" deployment.

A :class:`PlatformProfile` captures everything the simulation needs:
network latency/bandwidth, the TCP send-buffer budget that bounds
congestion queueing, and hardware speed factors relative to the private
cloud baseline on which the benchmark profiles are calibrated.

Effective bandwidth is application-level streaming throughput, not link
rate — a 1 Gbps LAN sustains far less through a VNC-style software
stack, and the GCE Internet path is modelled at tens of Mbps, matching
the paper's observed 15-60 Mbps usage and its finding that NoReg's
excessive frames congest the GCE path into seconds of latency.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

__all__ = ["GCE", "PLATFORMS", "PRIVATE_CLOUD", "PlatformProfile", "Resolution"]


class Resolution(enum.Enum):
    """Output resolutions used in the evaluation."""

    R720P = "720p"
    R1080P = "1080p"

    @property
    def render_scale(self) -> float:
        """Render-time multiplier relative to 720p."""
        return {"720p": 1.0, "1080p": 1.75}[self.value]

    @property
    def encode_scale(self) -> float:
        """Encode-time multiplier relative to 720p."""
        return {"720p": 1.0, "1080p": 1.85}[self.value]

    @property
    def copy_scale(self) -> float:
        """Framebuffer copy-time multiplier (scales with pixel count)."""
        return {"720p": 1.0, "1080p": 2.25}[self.value]

    @property
    def decode_scale(self) -> float:
        return {"720p": 1.0, "1080p": 1.9}[self.value]

    @property
    def size_scale(self) -> float:
        """Encoded frame-size multiplier relative to 720p."""
        return {"720p": 1.0, "1080p": 2.1}[self.value]

    @property
    def default_fps_target(self) -> int:
        """The paper's fixed QoS target at this resolution (Sec. 6.1)."""
        return {"720p": 60, "1080p": 30}[self.value]


@dataclass(frozen=True)
class PlatformProfile:
    """One deployment platform (hardware + network path)."""

    name: str
    description: str
    #: One-way client→cloud input latency (ms); ~ping/2 plus stack overhead.
    uplink_ms: float
    #: One-way cloud→client propagation latency (ms), before serialization.
    downlink_ms: float
    #: Effective application-level streaming bandwidth (Mbps).
    bandwidth_mbps: float
    #: Coefficient of variation of per-frame transmission time (path jitter).
    transmit_jitter_cv: float
    #: TCP-style send-buffer budget (bytes).  When the encoder outruns the
    #: network, queued bytes accumulate up to this bound and the encoder
    #: blocks — the congestion mechanism behind NoReg's seconds-scale MtP
    #: latency on GCE (Sec. 6.4).
    send_buffer_bytes: int
    #: Server GPU render-time factor vs the private-cloud 1080Ti baseline.
    render_time_factor: float
    #: Server CPU encode/copy-time factor vs the private-cloud baseline.
    encode_time_factor: float
    #: Client decode-time factor (the same client is used everywhere; kept
    #: for completeness/extension).
    decode_time_factor: float = 1.0

    def __post_init__(self) -> None:
        if self.bandwidth_mbps <= 0:
            raise ValueError("bandwidth must be positive")
        if self.send_buffer_bytes <= 0:
            raise ValueError("send buffer must be positive")
        if min(self.render_time_factor, self.encode_time_factor, self.decode_time_factor) <= 0:
            raise ValueError("time factors must be positive")

    @property
    def rtt_ms(self) -> float:
        """Round-trip time of the control path."""
        return self.uplink_ms + self.downlink_ms

    def transmit_ms(self, size_bytes: int) -> float:
        """Mean serialization time for ``size_bytes`` at this bandwidth."""
        bits = size_bytes * 8.0
        return bits / (self.bandwidth_mbps * 1000.0)


#: The paper's private cloud: i7-7820X + GTX 1080Ti, 1 Gbps LAN, ~2 ms ping.
PRIVATE_CLOUD = PlatformProfile(
    name="private",
    description="Private cloud / edge: i7-7820X + GTX 1080Ti, 1 Gbps LAN (~2 ms ping)",
    uplink_ms=1.0,
    downlink_ms=1.0,
    bandwidth_mbps=150.0,
    transmit_jitter_cv=0.15,
    send_buffer_bytes=4 * 1024 * 1024,
    render_time_factor=1.0,
    encode_time_factor=1.0,
)

#: Google Compute Engine: n1-highcpu-16 + Tesla P4, us-central1 (~25 ms ping).
#: Rendering is modestly faster than the private cloud (headless driver, no
#: display scan-out, more CPU headroom for the app's simulation threads);
#: the Internet path is the bottleneck instead.
GCE = PlatformProfile(
    name="gce",
    description="Google Compute Engine: n1-highcpu-16 + Tesla P4, us-central1 (~25 ms ping)",
    uplink_ms=12.5,
    downlink_ms=12.5,
    bandwidth_mbps=42.0,
    transmit_jitter_cv=0.30,
    send_buffer_bytes=6 * 1024 * 1024,
    render_time_factor=0.55,
    encode_time_factor=0.90,
)

#: Local (non-cloud) execution, used only as the user study's NonCloud
#: baseline (Sec. 6.7): no real network, and the "encode/transmit/decode"
#: stages degenerate to the compositor's negligible per-frame costs.
LOCAL_MACHINE = PlatformProfile(
    name="local",
    description="Local execution (the user study's NonCloud baseline)",
    uplink_ms=0.1,
    downlink_ms=0.1,
    bandwidth_mbps=20000.0,
    transmit_jitter_cv=0.05,
    send_buffer_bytes=32 * 1024 * 1024,
    render_time_factor=1.0,
    encode_time_factor=0.08,
    decode_time_factor=0.08,
)

#: Registry of platforms by name.
PLATFORMS = {p.name: p for p in (PRIVATE_CLOUD, GCE, LOCAL_MACHINE)}
