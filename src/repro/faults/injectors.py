"""Applying a fault plan to a live system: injectors and controller.

:func:`apply_fault_plan` turns the declarative specs of a
:class:`~repro.faults.spec.FaultPlan` into concrete mechanism on a
constructed (not yet run) :class:`~repro.pipeline.system.CloudSystem`:

* stage stalls / storms / client pauses wrap the stage's service-time
  sampler in a :class:`StallInjector`;
* GPU preemption wraps the render sampler in a
  :class:`WindowScaleSampler`;
* bandwidth collapses compose a windowed dip onto the network path's
  bandwidth schedule (:mod:`repro.pipeline.netdyn`);
* outages and packet-loss bursts register windows on the returned
  :class:`FaultController`, which the network path consults at
  transmit time.

All randomness (storm arrival times, loss draws) comes from the
system's seeded ``("faults", ...)`` RNG children, so a faulted run is
still a pure function of ``(config, seed)``.  Every fault window is
recorded on the controller, where run telemetry and recovery analytics
read it after the run, and the regulator is notified at the window
edges through its ``on_fault_begin`` / ``on_fault_end`` hooks.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import (
    TYPE_CHECKING,
    Deque,
    Dict,
    List,
    Optional,
    Protocol,
    Sequence,
    Set,
    Tuple,
    cast,
)

from repro.faults.spec import (
    BandwidthCollapse,
    ClientPause,
    FaultPlan,
    GpuPreemption,
    NetworkOutage,
    PacketLossBurst,
    StageStall,
    StallStorm,
)
from repro.pipeline.netdyn import BandwidthSchedule, compose
from repro.simcore import Environment, SeededRng

if TYPE_CHECKING:  # pragma: no cover
    from repro.pipeline.frames import Frame
    from repro.pipeline.system import CloudSystem

__all__ = [
    "FaultController",
    "FaultWindow",
    "StallInjector",
    "WindowScaleSampler",
    "apply_fault_plan",
]


class StageSampler(Protocol):
    """Anything the pipeline can draw stage service times from."""

    def next(self) -> float: ...


@dataclass(frozen=True)
class FaultWindow:
    """One recorded active window of one applied fault."""

    kind: str
    label: str
    start_ms: float
    end_ms: float


class StallInjector:
    """Sampler wrapper adding scheduled service-time stalls.

    At each programmed simulation time, the next draw after that point
    is inflated by the stall duration — a service-time stall, exactly
    how a descheduled thread manifests to the pipeline.
    """

    def __init__(
        self,
        base_sampler: StageSampler,
        env: Environment,
        stalls: Sequence[Tuple[float, float]],
    ) -> None:
        """``stalls`` is a sequence of ``(at_ms, duration_ms)`` pairs."""
        for at_ms, duration_ms in stalls:
            if duration_ms <= 0:
                raise ValueError("stall duration must be positive")
            if at_ms < 0:
                raise ValueError("stall time must be non-negative")
        self._base = base_sampler
        self._env = env
        #: Pending stalls, earliest first (popped from the left in O(1)).
        self._pending: Deque[Tuple[float, float]] = deque(sorted(stalls))
        #: (time, duration) of stalls already delivered.
        self.fired: List[Tuple[float, float]] = []

    def next(self) -> float:
        value = self._base.next()
        while self._pending and self._env.now >= self._pending[0][0]:
            _, duration_ms = self._pending.popleft()
            self.fired.append((self._env.now, duration_ms))
            value += duration_ms
        return value


class WindowScaleSampler:
    """Sampler wrapper multiplying draws inside fixed time windows.

    Models capacity loss rather than a one-off hiccup: every draw whose
    start falls inside a window is scaled by ``factor`` (e.g. GPU
    preemption slices slowing rendering).  Windows must be disjoint and
    are consumed in time order (simulation time never rewinds).
    """

    def __init__(
        self,
        base_sampler: StageSampler,
        env: Environment,
        windows: Sequence[Tuple[float, float]],
        factor: float,
    ) -> None:
        if factor <= 0:
            raise ValueError("scale factor must be positive")
        for start_ms, end_ms in windows:
            if end_ms <= start_ms:
                raise ValueError("scale window must be non-empty")
        self._base = base_sampler
        self._env = env
        self._windows = sorted(windows)
        self._factor = factor
        self._index = 0
        #: Draw count taken inside a window (observability/testing).
        self.scaled = 0

    def next(self) -> float:
        value = self._base.next()
        now = self._env.now
        while self._index < len(self._windows) and self._windows[self._index][1] <= now:
            self._index += 1
        if self._index < len(self._windows):
            start_ms, end_ms = self._windows[self._index]
            if start_ms <= now < end_ms:
                self.scaled += 1
                return value * self._factor
        return value


class FaultController:
    """Per-run fault state: applied injectors, windows, loss accounting.

    Constructed by :func:`apply_fault_plan` and attached as
    ``system.faults``; the network path consults it at transmit time
    (outage gating, loss draws, carried input ids), and recovery
    analytics read its recorded :attr:`windows` after the run.
    """

    def __init__(self, system: "CloudSystem") -> None:
        self.system = system
        self.env: Environment = system.env
        #: Every applied fault's active window(s), in plan order.
        self.windows: List[FaultWindow] = []
        #: Stall injectors, by stage (one per stalled stage).
        self.injectors: Dict[str, StallInjector] = {}
        #: Render-scale wrappers (GPU preemption), in plan order.
        self.scalers: List[WindowScaleSampler] = []
        self._outage_windows: List[Tuple[float, float]] = []
        self._loss_windows: List[Tuple[float, float, float]] = []
        self._loss_rng: Optional[SeededRng] = None
        self._carried_inputs: Set[int] = set()
        #: Frames lost to packet-loss bursts.
        self.frames_lost = 0
        #: Number of faults in the applied plan.
        self.applied = 0

    # -- transmit-time queries (called by NetworkPath) -------------------

    def outage_release_at(self, time_ms: float) -> Optional[float]:
        """When the outage covering ``time_ms`` lifts, or ``None``."""
        release: Optional[float] = None
        current = time_ms
        changed = True
        while changed:
            changed = False
            for start_ms, end_ms in self._outage_windows:
                if start_ms <= current < end_ms:
                    current = end_ms
                    release = end_ms
                    changed = True
        return release

    def frame_lost(self, time_ms: float) -> bool:
        """Seeded loss draw for a frame sent at ``time_ms``.

        Consumes randomness only inside a loss window, so runs with and
        without traffic during the window stay independently seeded.
        """
        for start_ms, end_ms, loss_prob in self._loss_windows:
            if start_ms <= time_ms < end_ms:
                if self._loss_rng is None:
                    self._loss_rng = self.system.rng.child("faults", "loss")
                return self._loss_rng.bernoulli(loss_prob)
        return False

    def absorb_lost_frame(self, frame: "Frame") -> None:
        """Account a frame the network dropped: mark, carry its inputs."""
        from repro.pipeline.frames import DropReason

        frame.drop(DropReason.NETWORK_LOSS, self.env.now)
        self.frames_lost += 1
        if frame.input_ids:
            self._carried_inputs |= frame.input_ids

    def claim_carried_inputs(self) -> Set[int]:
        """Input ids of lost frames, to graft onto the next delivery."""
        claimed = self._carried_inputs
        self._carried_inputs = set()
        return claimed

    # -- internal wiring ---------------------------------------------------

    def _record_window(self, kind: str, label: str, start_ms: float, end_ms: float) -> None:
        self.windows.append(FaultWindow(kind, label, start_ms, end_ms))
        regulator = self.system.regulator
        self.env.call_at(start_ms, lambda: regulator.on_fault_begin(kind, start_ms))
        self.env.call_at(end_ms, lambda: regulator.on_fault_end(kind, end_ms))


#: Where each stage component caches its sampler at construction.
_STAGE_ATTRS: Dict[str, Tuple[str, str]] = {
    "render": ("app", "_render_sampler"),
    "copy": ("app", "_copy_sampler"),
    "encode": ("proxy", "_encode_sampler"),
    "decode": ("client", "_decode_sampler"),
}


def _rebind_sampler(system: "CloudSystem", stage: str, sampler: StageSampler) -> None:
    """Swap a stage's sampler in both the registry and its component."""
    if stage not in _STAGE_ATTRS:
        raise KeyError(f"unknown stage {stage!r}; have {sorted(_STAGE_ATTRS)}")
    cast(Dict[str, StageSampler], system.samplers)[stage] = sampler
    owner_name, attr = _STAGE_ATTRS[stage]
    setattr(getattr(system, owner_name), attr, sampler)


def _window_dip(start_ms: float, end_ms: float, factor: float) -> BandwidthSchedule:
    """A capacity factor of ``factor`` inside the window, 1.0 outside."""

    def schedule(time_ms: float) -> float:
        return factor if start_ms <= time_ms < end_ms else 1.0

    return schedule


def apply_fault_plan(system: "CloudSystem", plan: FaultPlan) -> FaultController:
    """Wire every fault of ``plan`` into a constructed, un-run system."""
    controller = FaultController(system)
    controller.applied = len(plan)
    samplers = cast(Dict[str, StageSampler], system.samplers)
    stalls: Dict[str, List[Tuple[float, float]]] = {}
    dips: List[BandwidthSchedule] = []

    for index, fault in enumerate(plan):
        if isinstance(fault, StageStall):
            stalls.setdefault(fault.stage, []).append((fault.at_ms, fault.duration_ms))
            controller._record_window(fault.kind, fault.label(), *fault.window())
        elif isinstance(fault, ClientPause):
            stalls.setdefault("decode", []).append((fault.at_ms, fault.duration_ms))
            controller._record_window(fault.kind, fault.label(), *fault.window())
        elif isinstance(fault, StallStorm):
            rng = system.rng.child("faults", "storm", index)
            time_ms = fault.start_ms + rng.exponential(1000.0 / fault.rate_per_s)
            pairs = stalls.setdefault(fault.stage, [])
            while time_ms < fault.end_ms:
                pairs.append((time_ms, rng.exponential(fault.mean_stall_ms)))
                time_ms += rng.exponential(1000.0 / fault.rate_per_s)
            controller._record_window(fault.kind, fault.label(), *fault.window())
        elif isinstance(fault, GpuPreemption):
            scaler = WindowScaleSampler(
                samplers["render"], system.env, fault.slices(), fault.slowdown
            )
            _rebind_sampler(system, "render", scaler)
            controller.scalers.append(scaler)
            for start_ms, end_ms in fault.slices():
                controller._record_window(fault.kind, fault.label(), start_ms, end_ms)
        elif isinstance(fault, NetworkOutage):
            controller._outage_windows.append(fault.window())
            controller._record_window(fault.kind, fault.label(), *fault.window())
        elif isinstance(fault, BandwidthCollapse):
            start_ms, end_ms = fault.window()
            dips.append(_window_dip(start_ms, end_ms, fault.factor))
            controller._record_window(fault.kind, fault.label(), start_ms, end_ms)
        elif isinstance(fault, PacketLossBurst):
            start_ms, end_ms = fault.window()
            controller._loss_windows.append((start_ms, end_ms, fault.loss_prob))
            controller._record_window(fault.kind, fault.label(), start_ms, end_ms)
        else:  # pragma: no cover - the taxonomy is closed
            raise TypeError(f"unsupported fault spec {type(fault).__name__}")

    # One injector per stalled stage, wrapping whatever sampler the
    # stage currently has (possibly already scale-wrapped above).
    for stage, pairs in stalls.items():
        injector = StallInjector(samplers[stage], system.env, pairs)
        _rebind_sampler(system, stage, injector)
        controller.injectors[stage] = injector

    if dips:
        existing = system.network.bandwidth_schedule
        schedules = ([existing] if existing is not None else []) + dips
        system.network.bandwidth_schedule = compose(schedules)
    return controller
