"""A shared cloud server hosting several independent game sessions.

Each session is a :class:`~repro.pipeline.system.CloudSystem` — app,
proxy, network sender, client, input stream, regulator — built with
:meth:`~repro.pipeline.system.CloudSystem.hosted` over the server's
**one** simulation environment, so all sessions share:

* the **GPU** (a capacity-1 resource: concurrent renders serialize,
  exactly like contexts time-sharing one device);
* the **encoder pool** (capacity = CPU encode slots);
* the **uplink** (one serial transmitter; per-session traffic
  interleaves frame-by-frame);
* the **DRAM-contention domain** (every busy stage of every session
  inflates everyone's service times).

:meth:`SharedServer.run` returns one :class:`~repro.pipeline.system.RunResult`
per session, so per-session metrics (FPS, gap, MtP, QoS) are read as for
a single run; server-level power and GPU utilization are computed from
the merged activity (:mod:`repro.hardware.power`).
"""

from __future__ import annotations

from array import array
from functools import partial
from typing import TYPE_CHECKING, Callable, List, Optional, Sequence, Union

from repro.hardware.power import PowerModel, busy_fraction
from repro.pipeline.app import Application3D
from repro.pipeline.contention import ContentionTracker
from repro.pipeline.frames import Frame
from repro.pipeline.system import CloudSystem, RunResult, SystemConfig
from repro.regulators.base import Regulator
from repro.simcore import Environment, Resource, SeededRng
from repro.workloads import BenchmarkProfile, PlatformProfile, Resolution

if TYPE_CHECKING:  # pragma: no cover
    from repro.obs import Telemetry

__all__ = ["SharedServer"]


class SessionApp(Application3D):
    """A session's application; it also logs, server-wide, that its
    session opened a frame (the order run telemetry stores spans in)."""

    def __init__(self, system: CloudSystem, open_order: "array[int]", index: int) -> None:
        self._open_order = open_order
        self._index = index
        super().__init__(system)

    def _begin_frame(self) -> Frame:
        self._open_order.append(self._index)
        return super()._begin_frame()


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
        benchmarks: Sequence[Union[str, BenchmarkProfile]],
        platform: PlatformProfile,
        resolution: Resolution,
        regulator_factory: Callable[[int], Regulator],
        seed: int = 1,
        duration_ms: float = 20000.0,
        warmup_ms: float = 3000.0,
        gpu_slots: int = 1,
        encode_slots: int = 4,
        contention_beta: float = 0.25,
        telemetry: Optional["Telemetry"] = None,
    ):
        if not benchmarks:
            raise ValueError("need at least one session")
        if gpu_slots < 1 or encode_slots < 1:
            raise ValueError("device capacities must be >= 1")
        self._telemetry = telemetry
        #: The session index of every frame opened on the server, in order.
        self.open_order = array("q")

        self.env = Environment(probe=telemetry.probe if telemetry is not None else None)
        self.rng = SeededRng(seed, name="server")
        self.contention = ContentionTracker(beta=contention_beta)
        self.gpu = Resource(self.env, capacity=gpu_slots)
        self.encoder_pool = Resource(self.env, capacity=encode_slots)
        self.uplink = Resource(self.env, capacity=1)

        self.sessions: List[CloudSystem] = []
        for index, bench in enumerate(benchmarks):
            config = SystemConfig(
                bench,
                platform,
                resolution,
                seed=seed,
                duration_ms=duration_ms,
                warmup_ms=warmup_ms,
                contention_beta=contention_beta,
            )
            session = CloudSystem.hosted(
                config,
                regulator_factory(index),
                self.env,
                self.rng.child("session", index),
                self.contention,
                gpu=self.gpu,
                encoder_pool=self.encoder_pool,
                uplink=self.uplink,
                app=partial(SessionApp, open_order=self.open_order, index=index),
                reporter=f"fps-reporter-{index}",
            )
            self.sessions.append(session)
        #: One result per session, set by :meth:`run`.
        self.results: List[RunResult] = []

    def run(self) -> List[RunResult]:
        """Execute the shared simulation; return one result per session."""
        config = self.sessions[0].config
        self.env.run(until=config.warmup_ms + config.duration_ms)
        if self._telemetry is not None:
            self._telemetry.read_sessions(self.sessions, self.open_order)
        self.results = [RunResult(system=session) for session in self.sessions]
        return list(self.results)

    # -- server-level metrics (of the last run) -------------------------------

    def gpu_utilization(self) -> float:
        """Merged render busy fraction across all sessions."""
        return busy_fraction(self.results, "render", self.gpu.capacity)

    def server_power_w(self, model: PowerModel = PowerModel()) -> float:
        """Wall power of the whole server (merged activity)."""
        return model.evaluate_server(
            self.results, self.gpu.capacity, self.encoder_pool.capacity
        ).total_w
