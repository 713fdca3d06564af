"""The declarative fault model: typed specs, composable plans.

A :class:`FaultSpec` is plain frozen data describing one adverse event
— *what* goes wrong, *where* in the pipeline, and *when* in simulated
time.  A :class:`FaultPlan` is an ordered tuple of specs.  Both are
hashable, picklable (pool workers receive them inside a
:class:`~repro.experiments.plan.CellSpec`), and canonically
serializable (:meth:`FaultSpec.to_dict` / :func:`fault_from_dict`), so
a cell that carries faults stays content-addressed: the plan is part of
the payload the ledger's ``run_id`` hashes.

Specs carry no randomness themselves.  Stochastic faults (stall
storms, packet-loss bursts) draw from the system's seeded RNG tree at
*apply* time (:func:`repro.faults.injectors.apply_fault_plan`), so a
faulted run remains a pure function of ``(config, seed)`` — the same
determinism contract every other input to the simulation obeys.

The taxonomy (``docs/ROBUSTNESS.md``):

==================  ====================================================
:class:`StageStall`       one scheduled service-time stall of a stage
:class:`StallStorm`       a Poisson burst of stalls over a window
:class:`NetworkOutage`    downlink blackhole: nothing serializes
:class:`BandwidthCollapse` capacity drops to a fraction for a window
:class:`PacketLossBurst`  frames sent in the window are lost w.p. *p*
:class:`ClientPause`      the client freezes (decode stall) and resumes
:class:`GpuPreemption`    render service times inflate while a
                          co-tenant holds the GPU (optionally periodic)
==================  ====================================================
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Any, ClassVar, Dict, Iterator, List, Mapping, Sequence, Tuple, Type

__all__ = [
    "BandwidthCollapse",
    "ClientPause",
    "FAULT_TYPES",
    "FaultPlan",
    "FaultSpec",
    "GpuPreemption",
    "NetworkOutage",
    "PacketLossBurst",
    "StageStall",
    "StallStorm",
    "fault_from_dict",
]

#: Stages whose service-time samplers faults may wrap.
SAMPLED_STAGES = ("render", "copy", "encode", "decode")


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ValueError(message)


@dataclass(frozen=True)
class FaultSpec:
    """Base class of all fault specs: plain, frozen, serializable."""

    #: Stable taxonomy name; keys :data:`FAULT_TYPES` and serialization.
    kind: ClassVar[str] = "fault"

    def window(self) -> Tuple[float, float]:
        """``(start_ms, end_ms)`` of this fault's active window."""
        raise NotImplementedError

    def label(self) -> str:
        """Short human-readable tag for traces and tables."""
        return self.kind

    def to_dict(self) -> Dict[str, Any]:
        """Canonical JSON-ready form (includes the ``kind`` discriminator)."""
        payload: Dict[str, Any] = {"kind": self.kind}
        for spec_field in fields(self):
            payload[spec_field.name] = getattr(self, spec_field.name)
        return payload


@dataclass(frozen=True)
class StageStall(FaultSpec):
    """One scheduled service-time stall: the next ``stage`` draw at or
    after ``at_ms`` is inflated by ``duration_ms`` (a descheduled
    thread, a shader recompile, an encoder scene cut)."""

    stage: str
    at_ms: float
    duration_ms: float

    kind: ClassVar[str] = "stage_stall"

    def __post_init__(self) -> None:
        _require(self.stage in SAMPLED_STAGES, f"unknown stage {self.stage!r}")
        _require(self.at_ms >= 0, "stall time must be non-negative")
        _require(self.duration_ms > 0, "stall duration must be positive")

    def window(self) -> Tuple[float, float]:
        return (self.at_ms, self.at_ms + self.duration_ms)

    def label(self) -> str:
        return f"{self.stage}_stall"


@dataclass(frozen=True)
class StallStorm(FaultSpec):
    """A Poisson burst of stalls on ``stage`` over ``[start, end)``.

    Stall times arrive at ``rate_per_s``; each stall's duration is
    exponential with mean ``mean_stall_ms``.  Both are drawn from the
    system's seeded ``("faults", ...)`` RNG stream at apply time.
    """

    stage: str
    start_ms: float
    end_ms: float
    rate_per_s: float
    mean_stall_ms: float

    kind: ClassVar[str] = "stall_storm"

    def __post_init__(self) -> None:
        _require(self.stage in SAMPLED_STAGES, f"unknown stage {self.stage!r}")
        _require(self.start_ms >= 0, "storm start must be non-negative")
        _require(self.end_ms > self.start_ms, "storm window must be non-empty")
        _require(self.rate_per_s > 0, "storm rate must be positive")
        _require(self.mean_stall_ms > 0, "mean stall duration must be positive")

    def window(self) -> Tuple[float, float]:
        return (self.start_ms, self.end_ms)

    def label(self) -> str:
        return f"{self.stage}_storm"


@dataclass(frozen=True)
class NetworkOutage(FaultSpec):
    """Downlink blackhole: no frame starts serializing during the
    window (transmission attempts park until the outage lifts)."""

    start_ms: float
    duration_ms: float

    kind: ClassVar[str] = "net_outage"

    def __post_init__(self) -> None:
        _require(self.start_ms >= 0, "outage start must be non-negative")
        _require(self.duration_ms > 0, "outage duration must be positive")

    def window(self) -> Tuple[float, float]:
        return (self.start_ms, self.start_ms + self.duration_ms)


@dataclass(frozen=True)
class BandwidthCollapse(FaultSpec):
    """Capacity drops to ``factor`` of nominal for the window — a
    congestion event composed onto the path's bandwidth schedule
    (:mod:`repro.pipeline.netdyn`)."""

    start_ms: float
    duration_ms: float
    factor: float

    kind: ClassVar[str] = "bw_collapse"

    def __post_init__(self) -> None:
        _require(self.start_ms >= 0, "collapse start must be non-negative")
        _require(self.duration_ms > 0, "collapse duration must be positive")
        _require(0 < self.factor <= 1, "collapse factor must be in (0, 1]")

    def window(self) -> Tuple[float, float]:
        return (self.start_ms, self.start_ms + self.duration_ms)


@dataclass(frozen=True)
class PacketLossBurst(FaultSpec):
    """Each frame whose transmission completes inside the window is
    lost with probability ``loss_prob`` (seeded Bernoulli).  Lost
    frames are drop-accounted (``DropReason.NETWORK_LOSS``) and their
    input ids carry to the next delivered frame, so MtP latency sees
    the retransmission cost."""

    start_ms: float
    duration_ms: float
    loss_prob: float

    kind: ClassVar[str] = "packet_loss"

    def __post_init__(self) -> None:
        _require(self.start_ms >= 0, "burst start must be non-negative")
        _require(self.duration_ms > 0, "burst duration must be positive")
        _require(0 < self.loss_prob <= 1, "loss probability must be in (0, 1]")

    def window(self) -> Tuple[float, float]:
        return (self.start_ms, self.start_ms + self.duration_ms)


@dataclass(frozen=True)
class ClientPause(FaultSpec):
    """The client freezes for ``duration_ms`` (app backgrounded, radio
    handover) and resumes: modeled as a decode-stage stall, so frames
    queue at the client and drain on reconnect."""

    at_ms: float
    duration_ms: float

    kind: ClassVar[str] = "client_pause"

    def __post_init__(self) -> None:
        _require(self.at_ms >= 0, "pause time must be non-negative")
        _require(self.duration_ms > 0, "pause duration must be positive")

    def window(self) -> Tuple[float, float]:
        return (self.at_ms, self.at_ms + self.duration_ms)


@dataclass(frozen=True)
class GpuPreemption(FaultSpec):
    """A co-tenant preempts the GPU: render service times multiply by
    ``slowdown`` during each preemption slice.  ``count`` slices of
    ``duration_ms`` repeat every ``period_ms`` (``count=1`` ignores the
    period) — the time-sliced sharing a consolidated server exhibits."""

    start_ms: float
    duration_ms: float
    slowdown: float
    period_ms: float = 0.0
    count: int = 1

    kind: ClassVar[str] = "gpu_preempt"

    def __post_init__(self) -> None:
        _require(self.start_ms >= 0, "preemption start must be non-negative")
        _require(self.duration_ms > 0, "preemption duration must be positive")
        _require(self.slowdown > 1, "slowdown must exceed 1")
        _require(self.count >= 1, "count must be >= 1")
        if self.count > 1:
            _require(
                self.period_ms >= self.duration_ms,
                "period must cover each preemption slice",
            )

    def slices(self) -> List[Tuple[float, float]]:
        """Every preemption slice as ``(start_ms, end_ms)``."""
        return [
            (
                self.start_ms + i * self.period_ms,
                self.start_ms + i * self.period_ms + self.duration_ms,
            )
            for i in range(self.count)
        ]

    def window(self) -> Tuple[float, float]:
        slices = self.slices()
        return (slices[0][0], slices[-1][1])


#: Registry of spec types by taxonomy name (serialization discriminator).
FAULT_TYPES: Dict[str, Type[FaultSpec]] = {
    spec_type.kind: spec_type
    for spec_type in (
        StageStall,
        StallStorm,
        NetworkOutage,
        BandwidthCollapse,
        PacketLossBurst,
        ClientPause,
        GpuPreemption,
    )
}


def fault_from_dict(payload: Mapping[str, Any]) -> FaultSpec:
    """Rebuild a spec from :meth:`FaultSpec.to_dict` output."""
    kind = payload.get("kind")
    if not isinstance(kind, str) or kind not in FAULT_TYPES:
        raise ValueError(f"unknown fault kind {kind!r}")
    spec_type = FAULT_TYPES[kind]
    names = {spec_field.name for spec_field in fields(spec_type)}
    kwargs = {key: value for key, value in payload.items() if key in names}
    extra = set(payload) - names - {"kind"}
    if extra:
        raise ValueError(f"unknown fields for {kind}: {sorted(extra)}")
    return spec_type(**kwargs)


@dataclass(frozen=True)
class FaultPlan:
    """An ordered, immutable collection of fault specs for one run."""

    faults: Tuple[FaultSpec, ...] = ()

    def __init__(self, faults: Sequence[FaultSpec] = ()) -> None:
        object.__setattr__(self, "faults", tuple(faults))

    def __iter__(self) -> Iterator[FaultSpec]:
        return iter(self.faults)

    def __len__(self) -> int:
        return len(self.faults)
