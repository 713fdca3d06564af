"""The experiment record: every number the paper reports for one run.

:class:`ExperimentRecord` is the flat measurement bundle one executed
(benchmark × configuration × seed) cell produces: per-stage FPS,
FPS-gap statistics, MtP latency, windowed QoS satisfaction,
DRAM/IPC/power, and bandwidth.  :func:`build_experiment_record`
assembles one from a finished :class:`~repro.pipeline.system.RunResult`.

Records are plain frozen dataclasses, so they pickle across process
boundaries (the parallel executor returns them from worker processes)
and round-trip through JSON bit-identically
(:func:`record_as_dict` / :func:`record_from_dict`, the result store's
on-disk format).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Any, Dict, Mapping, Optional, TYPE_CHECKING

from repro.hardware import HardwareReport, evaluate_hardware
from repro.hardware.dram import DramReport
from repro.hardware.pmu import PmuCounters
from repro.hardware.power import PowerReport
from repro.metrics import BoxStats, RecoveryStats

if TYPE_CHECKING:  # pragma: no cover
    from repro.pipeline.system import RunResult

__all__ = [
    "RECORD_DICT_SCHEMA",
    "ExperimentRecord",
    "build_experiment_record",
    "record_as_dict",
    "record_from_dict",
]

#: Bumped whenever the serialized record layout changes incompatibly;
#: the result store refuses (re-executes) cells with a stale schema.
#: 2: added the optional ``recovery`` block (fault-injection analytics).
RECORD_DICT_SCHEMA = 2


@dataclass(frozen=True)
class ExperimentRecord:
    """All measurements of one (benchmark, configuration, seed) run."""

    benchmark: str
    config_label: str
    platform: str
    resolution: str
    regulator: str
    fps_target: Optional[float]

    render_fps: float
    encode_fps: float
    client_fps: float
    client_fps_box: BoxStats
    fps_gap_mean: float
    fps_gap_max: float

    mtp_mean_ms: Optional[float]
    mtp_box: Optional[BoxStats]

    qos_target: float
    qos_satisfaction: float

    hardware: HardwareReport
    bandwidth_mbps: float
    frames_rendered: int
    frames_dropped: int

    #: Fault-recovery analytics (:mod:`repro.metrics.recovery`);
    #: ``None`` for runs without an injected fault plan.
    recovery: Optional[RecoveryStats] = None

    def headline(self) -> Dict[str, float]:
        """The per-cell headline numbers ``odr-sim compare`` pairs, with
        ``mtp_mean_ms`` only when the run has MtP samples."""
        result = {
            "render_fps": self.render_fps,
            "encode_fps": self.encode_fps,
            "client_fps": self.client_fps,
            "fps_gap_mean": self.fps_gap_mean,
            "fps_gap_max": self.fps_gap_max,
            "bandwidth_mbps": self.bandwidth_mbps,
        }
        if self.mtp_mean_ms is not None:
            result["mtp_mean_ms"] = self.mtp_mean_ms
        return result

    @property
    def power_w(self) -> float:
        return self.hardware.power.total_w

    @property
    def ipc(self) -> float:
        return self.hardware.ipc

    @property
    def row_miss_rate(self) -> float:
        return self.hardware.dram.row_miss_rate

    @property
    def read_access_ns(self) -> float:
        return self.hardware.dram.read_access_ns


def build_experiment_record(
    result: "RunResult",
    benchmark: str,
    config_label: str,
    platform: str,
    resolution: str,
    regulator_name: str,
    fps_target: Optional[float],
    qos_target: float,
    recovery: Optional[RecoveryStats] = None,
) -> ExperimentRecord:
    """Measure a finished run into one :class:`ExperimentRecord`."""
    gap = result.fps_gap()
    mtp_samples = result.mtp_samples()
    mtp_mean = sum(mtp_samples) / len(mtp_samples) if mtp_samples else None
    mtp_box = result.mtp_box() if mtp_samples else None
    qos = result.qos(qos_target)

    return ExperimentRecord(
        benchmark=benchmark,
        config_label=config_label,
        platform=platform,
        resolution=resolution,
        regulator=regulator_name,
        fps_target=fps_target,
        render_fps=result.render_fps,
        encode_fps=result.encode_fps,
        client_fps=result.client_fps,
        client_fps_box=result.client_fps_box(),
        fps_gap_mean=gap.mean_gap,
        fps_gap_max=gap.max_gap,
        mtp_mean_ms=mtp_mean,
        mtp_box=mtp_box,
        qos_target=qos_target,
        qos_satisfaction=qos.satisfaction if qos.n_windows else 0.0,
        hardware=evaluate_hardware(result),
        bandwidth_mbps=result.bandwidth_mbps(),
        frames_rendered=result.frames_rendered(),
        frames_dropped=len(result.dropped_frames()),
        recovery=recovery,
    )


def record_as_dict(record: ExperimentRecord) -> Dict[str, Any]:
    """Flatten a record into a JSON-serializable dict (lossless)."""
    return asdict(record)


def _box_from(payload: Optional[Mapping[str, Any]]) -> Optional[BoxStats]:
    if payload is None:
        return None
    return BoxStats(
        count=int(payload["count"]),
        mean=float(payload["mean"]),
        p1=float(payload["p1"]),
        p25=float(payload["p25"]),
        p75=float(payload["p75"]),
        p99=float(payload["p99"]),
    )


def record_from_dict(payload: Mapping[str, Any]) -> ExperimentRecord:
    """Rebuild a record from :func:`record_as_dict` output."""
    data = dict(payload)
    client_box = _box_from(data["client_fps_box"])
    assert client_box is not None
    data["client_fps_box"] = client_box
    data["mtp_box"] = _box_from(data["mtp_box"])
    hardware = data["hardware"]
    data["hardware"] = HardwareReport(
        dram=DramReport(**hardware["dram"]),
        ipc=float(hardware["ipc"]),
        power=PowerReport(**hardware["power"]),
        pmu=PmuCounters(**hardware["pmu"]),
    )
    recovery = data.get("recovery")
    data["recovery"] = RecoveryStats(**recovery) if recovery is not None else None
    return ExperimentRecord(**data)
