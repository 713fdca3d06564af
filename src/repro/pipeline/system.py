"""Top-level wiring of the simulated cloud-3D system.

:class:`CloudSystem` assembles one complete deployment — benchmark
workload, platform, resolution, regulator — into a running simulation,
and :meth:`CloudSystem.run` executes it and returns a
:class:`RunResult` with everything the paper measures: per-stage FPS,
FPS gaps, MtP latency, QoS-window satisfaction, busy-interval traces
(for the hardware models), drop statistics, and bandwidth usage.

The measurement window excludes a warm-up period, mirroring the usual
benchmarking practice of discarding start-up transients.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Dict, Hashable, List, Optional, Union

from repro.metrics import (
    BoxStats,
    FpsCounter,
    FpsGapReport,
    MtpLatencyTracker,
    QosReport,
    fps_gap_report,
    qos_satisfaction,
)
from repro.pipeline.app import Application3D
from repro.pipeline.client import Client, FpsReporter
from repro.pipeline.contention import ContentionTracker
from repro.pipeline.frames import DropReason, Frame
from repro.pipeline.inputs import InputGenerator
from repro.pipeline.network import NetworkPath
from repro.pipeline.proxy import ServerProxy
from repro.simcore import Environment, IntervalTrace, Resource, SeededRng
from repro.workloads import (
    BenchmarkProfile,
    PlatformProfile,
    Resolution,
    get_benchmark,
)

if TYPE_CHECKING:  # pragma: no cover
    from repro.faults.injectors import FaultController
    from repro.faults.spec import FaultPlan
    from repro.obs import Telemetry
    from repro.pipeline.abr import AbrController, AdaptiveBitrate
    from repro.pipeline.display import DisplayModel
    from repro.regulators.base import Regulator

__all__ = ["CloudSystem", "RunResult", "SystemConfig"]


@dataclass(frozen=True)
class SystemConfig:
    """Everything that defines one simulated run except the regulator."""

    benchmark: Union[str, BenchmarkProfile]
    platform: PlatformProfile
    resolution: Resolution
    seed: int = 1
    #: Measured portion of the run (ms of simulated time).
    duration_ms: float = 30000.0
    #: Start-up transient excluded from all measurements (ms).
    warmup_ms: float = 3000.0
    #: Optional high-frequency polling input stream (0 = combined upstream).
    poll_hz: float = 0.0
    #: DRAM-contention slowdown per concurrently-busy memory-intensive
    #: stage (see :mod:`repro.pipeline.contention`).
    contention_beta: float = 0.25

    def resolve_benchmark(self) -> BenchmarkProfile:
        if isinstance(self.benchmark, BenchmarkProfile):
            return self.benchmark
        return get_benchmark(self.benchmark)


class CloudSystem:
    """One assembled cloud-3D deployment under a given regulator.

    ``display_model`` optionally replaces the default display-on-decode
    client with a presentation model from :mod:`repro.pipeline.display`
    (VSync / FreeSync — the paper's client-side future work).
    ``abr`` optionally attaches an adaptive-bitrate controller
    (:mod:`repro.pipeline.abr`), and ``bandwidth_schedule`` makes the
    network path's capacity time-varying (:mod:`repro.pipeline.netdyn`).
    ``telemetry`` opts into run observability (:mod:`repro.obs`):
    :meth:`run` reads per-frame spans, labeled metrics and fault windows
    into it from the finished run, and a probe the telemetry object
    carries watches the engine while it runs.  The pipeline never sees
    the telemetry object.  Engine statistics need neither: the
    environment counts them itself (``system.env.stats()``).
    ``fault_plan`` injects declarative adverse events
    (:mod:`repro.faults`) — stalls, outages, loss bursts, preemption —
    deterministically seeded from the run's RNG tree.

    A system built this way owns its environment, RNG tree and
    DRAM-contention domain, and its devices outright (no queueing).  A
    consolidated server (:mod:`repro.multitenant`) builds each of its
    sessions with :meth:`hosted` instead, over the server's shared ones.
    """

    def __init__(
        self,
        config: SystemConfig,
        regulator: "Regulator",
        display_model: Optional["DisplayModel"] = None,
        abr: Optional["AdaptiveBitrate"] = None,
        bandwidth_schedule: Optional[Callable[[float], float]] = None,
        telemetry: Optional["Telemetry"] = None,
        fault_plan: Optional["FaultPlan"] = None,
    ) -> None:
        self._telemetry = telemetry
        self._wire(
            config,
            regulator,
            Environment(probe=telemetry.probe if telemetry is not None else None),
            SeededRng(config.seed, name="system"),
            ContentionTracker(beta=config.contention_beta),
            display_model=display_model,
            abr=abr,
            bandwidth_schedule=bandwidth_schedule,
            fault_plan=fault_plan,
        )

    @classmethod
    def hosted(
        cls,
        config: SystemConfig,
        regulator: "Regulator",
        env: Environment,
        rng: SeededRng,
        contention: ContentionTracker,
        gpu: Resource,
        encoder_pool: Resource,
        uplink: Resource,
        app: Callable[["CloudSystem"], Application3D],
        reporter: str,
    ) -> "CloudSystem":
        """One session of a host that owns the environment, the RNG
        stream ``rng``, the DRAM-contention domain and the shared devices.

        ``app`` builds the session's application and ``reporter`` names
        its FPS reporter.  The host runs the environment and reads the
        session's :class:`RunResult` itself; the session takes no
        telemetry, display model, ABR, bandwidth schedule or faults.
        """
        system = cls.__new__(cls)
        system._telemetry = None
        system._wire(
            config,
            regulator,
            env,
            rng,
            contention,
            gpu=gpu,
            encoder_pool=encoder_pool,
            uplink=uplink,
            app=app,
            reporter=reporter,
        )
        return system

    def _wire(
        self,
        config: SystemConfig,
        regulator: "Regulator",
        env: Environment,
        rng: SeededRng,
        contention: ContentionTracker,
        gpu: Optional[Resource] = None,
        encoder_pool: Optional[Resource] = None,
        uplink: Optional[Resource] = None,
        app: Callable[["CloudSystem"], Application3D] = Application3D,
        reporter: str = "fps-reporter",
        display_model: Optional["DisplayModel"] = None,
        abr: Optional["AdaptiveBitrate"] = None,
        bandwidth_schedule: Optional[Callable[[float], float]] = None,
        fault_plan: Optional["FaultPlan"] = None,
    ) -> None:
        """Build the pipeline over ``env``, ``rng`` and ``contention``.
        The build order fixes the order in which actors start."""
        self.config = config
        self.benchmark = config.resolve_benchmark()
        self.platform = config.platform
        self.resolution = config.resolution
        self.regulator = regulator

        self.env = env
        self.rng = rng
        # Shared-device hooks: None when the system owns its devices,
        # otherwise the host's Resources, on which sessions queue.
        self.gpu_resource = gpu
        self.encode_resource = encoder_pool
        self.link_resource = uplink
        #: Fault-injection state; set below when a fault plan is given.
        self.faults: Optional["FaultController"] = None
        self.trace = IntervalTrace()
        self.counter = FpsCounter(self.trace)
        self.tracker = MtpLatencyTracker()
        self.contention = contention

        # Per-stage service-time samplers, scaled for platform/resolution.
        models = self.benchmark.stage_models(self.platform, self.resolution)
        self.samplers = {
            stage: model.sampler(rng.child("stage", stage))
            for stage, model in models.items()
        }
        self.size_sampler = self.benchmark.frame_size_model(self.resolution).sampler(
            rng.child("frame_size")
        )

        # Stage components.  The regulator may override the client refresh
        # rate (RVS uses 60 Hz or 240 Hz displays).
        self.proxy = ServerProxy(self)
        self.network = NetworkPath(self, bandwidth_schedule=bandwidth_schedule)
        self.client = Client(
            self,
            refresh_hz=regulator.client_refresh_hz,
            display_model=display_model,
        )
        self.app = app(self)
        self.inputs = InputGenerator(
            env=env,
            rng=rng.child("inputs"),
            actions_per_second=self.benchmark.actions_per_second,
            uplink_ms=self.platform.uplink_ms,
            deliver=self.app.deliver_input,
            tracker=self.tracker,
            poll_hz=config.poll_hz,
        )

        # Regulator-owned plumbing (buffers + proxy/network processes).
        regulator.attach(self)

        # Optional adaptive-bitrate controller (wraps the size sampler).
        self.abr: Optional["AbrController"] = (
            abr.attach(self) if abr is not None else None
        )

        # Client-FPS feedback reports (used by adaptive regulators such as
        # IntMax; a no-op hook for the others).
        FpsReporter(self, reporter)

        # Declarative fault injection (imported lazily: repro.faults
        # pulls pipeline modules, like the abr import above).
        if fault_plan is not None and len(fault_plan):
            from repro.faults.injectors import apply_fault_plan

            self.faults = apply_fault_plan(self, fault_plan)

    def run(self) -> "RunResult":
        """Execute the simulation and collect results."""
        config = self.config
        end = config.warmup_ms + config.duration_ms
        self.env.run(until=end)
        if self._telemetry is not None:
            self._telemetry.read_run(self)
        return RunResult(system=self)


@dataclass
class RunResult:
    """Measurements of one completed run (analysis-side accessors).

    Every windowed quantity the record builders share — stage FPS and
    FPS series, the FPS gap, MtP samples, QoS, drops, utilizations — is
    measured once, on first use, and memoised in ``_cache``, so
    :func:`~repro.obs.runmeta.build_record` and
    :func:`~repro.experiments.record.build_experiment_record` over one
    result pay for each pass once.  A result describes a *finished* run:
    its values are not refreshed if the environment runs on.  Accessors
    that return lists return a fresh copy, so a caller may mutate it.
    """

    system: CloudSystem
    _cache: Dict[Hashable, Any] = field(default_factory=dict, repr=False)

    @property
    def config(self) -> SystemConfig:
        return self.system.config

    @property
    def t_start(self) -> float:
        return self.config.warmup_ms

    @property
    def t_end(self) -> float:
        return self.config.warmup_ms + self.config.duration_ms

    @property
    def counter(self) -> FpsCounter:
        return self.system.counter

    @property
    def tracker(self) -> MtpLatencyTracker:
        return self.system.tracker

    @property
    def trace(self) -> IntervalTrace:
        return self.system.trace

    def _memo(self, key: Hashable, measure: Callable[[], Any]) -> Any:
        cache = self._cache
        if key not in cache:
            cache[key] = measure()
        return cache[key]

    # -- FPS metrics -------------------------------------------------------

    def stage_mean_fps(self, stage: str) -> float:
        return self._memo(
            ("mean_fps", stage),
            lambda: self.counter.mean_fps(stage, self.t_start, self.t_end),
        )

    @property
    def render_fps(self) -> float:
        return self.stage_mean_fps("render")

    @property
    def encode_fps(self) -> float:
        return self.stage_mean_fps("encode")

    @property
    def client_fps(self) -> float:
        """Client decode FPS — the paper's "client FPS"."""
        return self.stage_mean_fps("decode")

    def fps_series(self, stage: str, window_ms: float) -> List[float]:
        """Per-window FPS of ``stage`` over the measurement window."""
        series = self._memo(
            ("fps_series", stage, window_ms),
            lambda: self.counter.fps_series(stage, self.t_start, self.t_end, window_ms),
        )
        return list(series)

    def client_fps_box(self, window_ms: float = 1000.0) -> BoxStats:
        from repro.metrics.stats import summarize

        return summarize(self.fps_series("decode", window_ms))

    def fps_gap(self) -> FpsGapReport:
        """Cloud render FPS minus client decode FPS (Table 2)."""
        window = self.counter.window_ms
        gap: FpsGapReport = self._memo(
            ("fps_gap",),
            lambda: fps_gap_report(
                self.fps_series("render", window), self.fps_series("decode", window)
            ),
        )
        return FpsGapReport(gap.mean_gap, gap.max_gap, list(gap.series))

    # -- latency metrics -----------------------------------------------------

    def mtp_samples(self) -> List[float]:
        """Closed MtP latencies for inputs issued inside the window."""
        samples = self._memo(
            ("mtp_samples",),
            lambda: [
                s.latency_ms
                for s in self.tracker.samples
                if self.t_start <= s.issued_at < self.t_end
            ],
        )
        return list(samples)

    def mean_mtp_ms(self) -> float:
        samples = self.mtp_samples()
        if not samples:
            raise ValueError("no MtP samples in the measurement window")
        return sum(samples) / len(samples)

    def mtp_box(self) -> BoxStats:
        from repro.metrics.stats import summarize

        return summarize(self.mtp_samples())

    # -- QoS ------------------------------------------------------------------

    def qos(self, target_fps: float, window_ms: float = 200.0) -> QosReport:
        """The paper's windowed QoS criterion over client display times."""
        return self._memo(
            ("qos", target_fps, window_ms),
            lambda: qos_satisfaction(
                self.counter.times("decode"), target_fps, self.t_start, self.t_end, window_ms
            ),
        )

    # -- efficiency inputs ------------------------------------------------------

    def dropped_frames(self, reason: Optional[DropReason] = None) -> List[Frame]:
        dropped: List[Frame] = self._memo(
            ("dropped_frames",),
            lambda: [f for f in self.system.app.frames if f.dropped is not None],
        )
        if reason is None:
            return list(dropped)
        return [f for f in dropped if f.dropped is reason]

    def frames_rendered(self) -> int:
        return self.counter.count("render")

    def bandwidth_mbps(self) -> float:
        """Mean network usage over the whole simulated time."""
        total_ms = self.t_end
        return self.system.network.sent_bytes * 8.0 / (total_ms / 1000.0) / 1e6

    def busy_ms(self, stage: str) -> float:
        """Busy time of ``stage`` inside the measurement window."""
        return self._memo(
            ("busy_ms", stage),
            lambda: self.trace.busy_time(stage, self.t_start, self.t_end),
        )

    def stage_utilization(self, stage: str) -> float:
        return self.busy_ms(stage) / (self.t_end - self.t_start)
