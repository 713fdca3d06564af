"""One-call hardware evaluation of a finished run."""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.hardware.cpu import IpcModel
from repro.hardware.dram import DramModel, DramReport
from repro.hardware.pmu import PmuCounters, simulate_pmu_counters
from repro.hardware.power import PowerModel, PowerReport

if TYPE_CHECKING:  # pragma: no cover
    from repro.pipeline.system import RunResult

__all__ = ["HardwareReport", "evaluate_hardware"]


@dataclass(frozen=True)
class HardwareReport:
    """All hardware efficiency metrics of one run (the Fig. 7/12/13 set)."""

    dram: DramReport
    ipc: float
    power: PowerReport
    pmu: PmuCounters


def evaluate_hardware(
    result: "RunResult",
    dram_model: DramModel = DramModel(),
    ipc_model: IpcModel = IpcModel(),
    power_model: PowerModel = PowerModel(),
) -> HardwareReport:
    """Run the DRAM, IPC, PMU, and power models over a finished run."""
    dram = dram_model.evaluate(result.trace, result.t_start, result.t_end)
    ipc = ipc_model.evaluate(dram, result.system.benchmark.ipc_peak)
    power = power_model.evaluate(result)
    pmu = simulate_pmu_counters(dram, result.t_end - result.t_start)
    return HardwareReport(dram=dram, ipc=ipc, power=power, pmu=pmu)
