"""A shared cloud server hosting several independent game sessions.

Each :class:`TenantSession` is a full pipeline — app, proxy, network
sender, client, input stream, regulator — structurally identical to a
single-session :class:`~repro.pipeline.system.CloudSystem`, but all
sessions live in **one** simulation environment and share:

* the **GPU** (a capacity-1 resource: concurrent renders serialize,
  exactly like contexts time-sharing one device);
* the **encoder pool** (capacity = CPU encode slots);
* the **uplink** (one serial transmitter; per-session traffic
  interleaves frame-by-frame);
* the **DRAM-contention domain** (every busy stage of every session
  inflates everyone's service times).

Per-session metrics (FPS, gap, MtP, QoS) stay separate; server-level
power is computed from the merged activity.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, List, Optional, Sequence

from repro.hardware.power import PowerModel
from repro.metrics import FpsCounter, MtpLatencyTracker, qos_satisfaction
from repro.metrics.stats import BoxStats, summarize
from repro.pipeline.app import Application3D
from repro.pipeline.client import Client, FpsReporter
from repro.pipeline.contention import ContentionTracker
from repro.pipeline.frames import Frame
from repro.pipeline.inputs import InputGenerator
from repro.pipeline.network import NetworkPath
from repro.pipeline.proxy import ServerProxy
from repro.regulators.base import Regulator
from repro.simcore import Environment, IntervalTrace, Resource, SeededRng
from repro.workloads import (
    BenchmarkProfile,
    PlatformProfile,
    Resolution,
    get_benchmark,
)

if TYPE_CHECKING:  # pragma: no cover
    from repro.obs import Telemetry

__all__ = ["SessionResult", "SharedServer", "TenantSession"]


class SessionApp(Application3D):
    """A session's application; it also logs, server-wide, that its
    session opened a frame (the order run telemetry stores spans in)."""

    def __init__(self, session: "TenantSession") -> None:
        self._open_order = session.server.open_order
        self._index = session.index
        super().__init__(session)

    def _begin_frame(self) -> Frame:
        self._open_order.append(self._index)
        return super()._begin_frame()


class TenantSession:
    """One session's private pipeline inside a shared server.

    Duck-compatible with :class:`~repro.pipeline.system.CloudSystem`
    where the stage components require it (``env``, ``samplers``,
    ``counter``, ``tracker``, ``trace``, ``contention``, ``regulator``,
    shared-resource handles, ...).
    """

    def __init__(
        self,
        server: "SharedServer",
        index: int,
        benchmark: BenchmarkProfile,
        regulator: Regulator,
    ):
        self.server = server
        self.index = index
        self.benchmark = benchmark
        self.platform = server.platform
        self.resolution = server.resolution
        self.regulator = regulator

        self.env = server.env
        self.rng = server.rng.child("session", index)
        self.counter = FpsCounter()
        self.tracker = MtpLatencyTracker()
        self.trace = IntervalTrace()

        # shared server state
        self.contention = server.contention
        self.gpu_resource = server.gpu
        self.encode_resource = server.encoder_pool
        self.link_resource = server.uplink
        self.abr = None
        # No per-session fault injection (CloudSystem duck interface).
        self.faults = None

        models = benchmark.stage_models(self.platform, self.resolution)
        self.samplers = {
            stage: model.sampler(self.rng.child("stage", stage))
            for stage, model in models.items()
        }
        self.size_sampler = benchmark.frame_size_model(self.resolution).sampler(
            self.rng.child("frame_size")
        )

        self.proxy = ServerProxy(self)
        self.network = NetworkPath(self)
        self.client = Client(self, refresh_hz=regulator.client_refresh_hz)
        self.app = SessionApp(self)
        self.inputs = InputGenerator(
            env=self.env,
            rng=self.rng.child("inputs"),
            actions_per_second=benchmark.actions_per_second,
            uplink_ms=self.platform.uplink_ms,
            deliver=self.app.deliver_input,
            tracker=self.tracker,
        )
        regulator.attach(self)
        # Per-session client-FPS feedback (adaptive regulators' hook).
        FpsReporter(self, f"fps-reporter-{index}")


@dataclass(frozen=True)
class SessionResult:
    """Per-session measurements of one shared-server run."""

    index: int
    benchmark: str
    regulator: str
    render_fps: float
    client_fps: float
    fps_gap_mean: float
    mtp_mean_ms: Optional[float]
    mtp_box: Optional[BoxStats]
    qos_satisfaction: float


class SharedServer:
    """N sessions consolidated onto one simulated server.

    Parameters
    ----------
    benchmarks:
        One benchmark (name or profile) per session.
    regulator_factory:
        Called once per session index to create its regulator (sessions
        must not share regulator instances).
    gpu_slots, encode_slots:
        Device capacities.  One GPU context renders at a time by
        default; a 16-core server comfortably runs a few encoder
        threads.
    telemetry:
        Optional :class:`repro.obs.Telemetry`; :meth:`run` reads each
        session's spans and series into it under a ``session="s<index>"``
        label.
    """

    def __init__(
        self,
        benchmarks: Sequence,
        platform: PlatformProfile,
        resolution: Resolution,
        regulator_factory: Callable[[int], Regulator],
        seed: int = 1,
        duration_ms: float = 20000.0,
        warmup_ms: float = 3000.0,
        gpu_slots: int = 1,
        encode_slots: int = 4,
        contention_beta: float = 0.25,
        qos_target_fps: Optional[float] = None,
        telemetry: Optional["Telemetry"] = None,
    ):
        if not benchmarks:
            raise ValueError("need at least one session")
        if gpu_slots < 1 or encode_slots < 1:
            raise ValueError("device capacities must be >= 1")
        self.platform = platform
        self.resolution = resolution
        self.duration_ms = duration_ms
        self.warmup_ms = warmup_ms
        self.qos_target_fps = (
            qos_target_fps
            if qos_target_fps is not None
            else float(resolution.default_fps_target)
        )
        self._telemetry = telemetry
        #: The session index of every frame opened on the server, in order.
        self.open_order = array("q")

        self.env = Environment(probe=telemetry.probe if telemetry is not None else None)
        self.rng = SeededRng(seed, name="server")
        self.contention = ContentionTracker(beta=contention_beta)
        self.gpu = Resource(self.env, capacity=gpu_slots)
        self.encoder_pool = Resource(self.env, capacity=encode_slots)
        self.uplink = Resource(self.env, capacity=1)

        self.sessions: List[TenantSession] = []
        for index, bench in enumerate(benchmarks):
            profile = bench if isinstance(bench, BenchmarkProfile) else get_benchmark(bench)
            regulator = regulator_factory(index)
            self.sessions.append(TenantSession(self, index, profile, regulator))

    @property
    def t_start(self) -> float:
        return self.warmup_ms

    @property
    def t_end(self) -> float:
        return self.warmup_ms + self.duration_ms

    def run(self) -> List[SessionResult]:
        """Execute the shared simulation; return per-session results."""
        self.env.run(until=self.t_end)
        if self._telemetry is not None:
            self._telemetry.read_sessions(self.sessions, self.open_order)
        results = []
        for session in self.sessions:
            counter = session.counter
            gap = counter.fps_gap(self.t_start, self.t_end)
            samples = [
                s.latency_ms
                for s in session.tracker.samples
                if self.t_start <= s.issued_at < self.t_end
            ]
            qos = qos_satisfaction(
                counter.times("decode"), self.qos_target_fps, self.t_start, self.t_end
            )
            results.append(
                SessionResult(
                    index=session.index,
                    benchmark=session.benchmark.name,
                    regulator=session.regulator.name,
                    render_fps=counter.mean_fps("render", self.t_start, self.t_end),
                    client_fps=counter.mean_fps("decode", self.t_start, self.t_end),
                    fps_gap_mean=gap.mean_gap,
                    mtp_mean_ms=(sum(samples) / len(samples)) if samples else None,
                    mtp_box=summarize(samples) if samples else None,
                    qos_satisfaction=qos.satisfaction if qos.n_windows else 0.0,
                )
            )
        return results

    # -- server-level metrics -------------------------------------------------

    def gpu_utilization(self) -> float:
        """Merged render busy fraction across all sessions."""
        window = self.t_end - self.t_start
        busy = sum(
            s.trace.busy_time("render", self.t_start, self.t_end) for s in self.sessions
        )
        return busy / (window * self.gpu.capacity)

    def server_power_w(self, model: PowerModel = PowerModel()) -> float:
        """Wall power of the whole server (merged activity).

        Uses the same coefficients as the single-session model: one
        idle platform plus the sessions' summed dynamic terms.
        """
        window = self.t_end - self.t_start
        total = model.idle_w
        gpu_busy = 0.0
        cpu_busy = 0.0
        for session in self.sessions:
            counter = session.counter
            render_fps = counter.mean_fps("render", self.t_start, self.t_end)
            encode_fps = counter.mean_fps("encode", self.t_start, self.t_end)
            logic_factor = 0.75 + 0.25 * session.benchmark.logic_cpu_weight
            total += model.render_w_per_fps * logic_factor * render_fps
            total += model.encode_w_per_fps * encode_fps
            gpu_busy += session.trace.busy_time("render", self.t_start, self.t_end)
            cpu_busy += session.trace.busy_time("encode", self.t_start, self.t_end)
        total += model.gpu_residency_w * min(1.0, gpu_busy / (window * self.gpu.capacity))
        total += model.cpu_residency_w * min(
            1.0, cpu_busy / (window * self.encoder_pool.capacity)
        )
        return total
