"""Server wall-power model (the paper's Klein CL110 meter, Sec. 6.5).

Power is decomposed into:

* a **static** term — idle platform power (fans, DRAM refresh, PSU
  losses, device idle states);
* **per-frame dynamic energy** — every rendered frame costs GPU
  shading + memory traffic, every encoded frame costs CPU/codec work;
  these scale with the respective frame *rates* (the term excessive
  rendering wastes);
* **utilization residency** — a device that stays busy cannot enter
  low-power states, modelled as terms proportional to GPU (render) and
  CPU (encode) busy fractions.

Game logic intensity modulates the per-rendered-frame CPU cost via the
benchmark's ``logic_cpu_weight`` (an RTS burns more CPU per frame than
a lightweight VR scene).

A consolidated server (:mod:`repro.multitenant`) is one platform:
:meth:`PowerModel.evaluate_server` charges its idle power once, every
session's dynamic terms, and the residency of the sessions' merged busy
fractions (:func:`busy_fraction`).  One run is its one-session case.

Coefficients are fitted to the paper's 720p private-cloud averages:
NoReg ≈ 198.7 W, ODRMax ≈ −7.9 %, ODR60 ≈ −22 %, with IMHOTEP (the
fastest renderer) the highest NoReg consumer and the biggest saver.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

if TYPE_CHECKING:  # pragma: no cover
    from repro.pipeline.system import RunResult

__all__ = ["PowerModel", "PowerReport", "busy_fraction"]


@dataclass(frozen=True)
class PowerReport:
    """Wall power of one run, with its additive breakdown (watts)."""

    total_w: float
    idle_w: float
    render_dynamic_w: float
    encode_dynamic_w: float
    gpu_residency_w: float
    cpu_residency_w: float


@dataclass(frozen=True)
class PowerModel:
    """Frame-rate + utilization → wall power mapping."""

    #: Idle platform power (W).
    idle_w: float = 109.0
    #: Dynamic energy per rendered frame, expressed as W per render-FPS.
    render_w_per_fps: float = 0.25
    #: Dynamic energy per encoded frame, W per encode-FPS.
    encode_w_per_fps: float = 0.20
    #: GPU active-residency power at 100 % render utilization (W).
    gpu_residency_w: float = 13.8
    #: CPU active-residency power at 100 % encode utilization (W).
    cpu_residency_w: float = 25.0

    def evaluate(self, result: "RunResult") -> PowerReport:
        """Average wall power over the run's measurement window."""
        return self.evaluate_server([result], gpu_slots=1, encode_slots=1)

    def evaluate_server(
        self, results: Sequence["RunResult"], gpu_slots: int, encode_slots: int
    ) -> PowerReport:
        """Wall power of one server hosting the sessions of ``results``
        over their shared measurement window.

        One idle platform, every session's dynamic terms, and the
        residency of the merged busy fractions on ``gpu_slots`` GPUs and
        ``encode_slots`` encoders, capped at full residency.
        """
        total = self.idle_w
        render_dyn = encode_dyn = 0.0
        for result in results:
            # Game-logic CPU intensity modulates per-rendered-frame cost.
            logic_factor = 0.75 + 0.25 * result.system.benchmark.logic_cpu_weight
            render_w = self.render_w_per_fps * logic_factor * result.render_fps
            encode_w = self.encode_w_per_fps * result.encode_fps
            total += render_w
            total += encode_w
            render_dyn += render_w
            encode_dyn += encode_w
        gpu_res = self.gpu_residency_w * min(1.0, busy_fraction(results, "render", gpu_slots))
        cpu_res = self.cpu_residency_w * min(1.0, busy_fraction(results, "encode", encode_slots))
        total += gpu_res
        total += cpu_res
        return PowerReport(
            total_w=total,
            idle_w=self.idle_w,
            render_dynamic_w=render_dyn,
            encode_dynamic_w=encode_dyn,
            gpu_residency_w=gpu_res,
            cpu_residency_w=cpu_res,
        )


def busy_fraction(results: Sequence["RunResult"], stage: str, slots: int) -> float:
    """Busy time of ``stage`` summed over ``results``, as a fraction of
    their shared measurement window on ``slots`` devices."""
    window = results[0].t_end - results[0].t_start
    return sum(result.busy_ms(stage) for result in results) / (window * slots)
