"""MtP latency decomposition.

The paper reasons about *where* motion-to-photon time goes (input
queuing under NoReg, injected delays under Int/RVS, the priority path
under ODR); this module measures it.  For every closed MtP sample the
answering frame's timestamps decompose the latency into:

* ``input_wait`` — input issue (client) until the answering frame's
  render start: uplink plus however long the input waited for the app
  loop (this is where regulation delays and NoReg's loop cadence show);
* ``render`` / ``copy`` — the frame's own GPU work;
* ``encode_wait`` — copy end until encode end: mailbox/Mul-Buf queueing
  plus the encode itself (NoReg's encoder backlog lives here);
* ``transmit_wait`` — encode end until fully serialized: send-queue
  congestion plus serialization (the GCE blow-up lives here);
* ``deliver`` — propagation plus client receive-queue plus decode.

Sums of components equal the measured MtP latency exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List

from repro.metrics.stats import mean

if TYPE_CHECKING:  # pragma: no cover
    from repro.pipeline.system import RunResult

__all__ = ["LatencyBreakdown", "latency_breakdown"]

#: Component names in pipeline order.
COMPONENTS = ("input_wait", "render", "copy", "encode_wait", "transmit_wait", "deliver")


@dataclass(frozen=True)
class LatencyBreakdown:
    """Mean per-component MtP latency over a run (milliseconds)."""

    samples: int
    components: Dict[str, float]

    @property
    def total_ms(self) -> float:
        return sum(self.components.values())

    def fraction(self, component: str) -> float:
        return self.components[component] / self.total_ms

    def __str__(self) -> str:
        parts = " + ".join(
            f"{name} {value:.1f}" for name, value in self.components.items()
        )
        return f"MtP {self.total_ms:.1f} ms = {parts} (n={self.samples})"


def latency_breakdown(result: "RunResult") -> LatencyBreakdown:
    """Decompose the run's MtP latency by pipeline component.

    Uses every displayed frame that answered at least one tracked input
    inside the measurement window.
    """
    t_start, t_end = result.t_start, result.t_end
    issued_at = {s.input_id: s.issued_at for s in result.tracker.samples}
    per_component: Dict[str, List[float]] = {name: [] for name in COMPONENTS}
    samples = 0
    for frame in result.system.client.displayed:
        if not frame.input_ids or frame.t_displayed is None:
            continue
        answered = [
            issued_at[i]
            for i in frame.input_ids
            if i in issued_at and t_start <= issued_at[i] < t_end
        ]
        if not answered:
            continue
        # one decomposition per answered input (as MtP sampling does)
        for issue_time in answered:
            samples += 1
            per_component["input_wait"].append(frame.t_render_start - issue_time)
            per_component["render"].append(frame.t_render_end - frame.t_render_start)
            per_component["copy"].append(frame.t_copy_end - frame.t_render_end)
            per_component["encode_wait"].append(frame.t_encode_end - frame.t_copy_end)
            per_component["transmit_wait"].append(frame.t_send_end - frame.t_encode_end)
            per_component["deliver"].append(frame.t_displayed - frame.t_send_end)
    if samples == 0:
        raise ValueError("no answered inputs in the measurement window")
    return LatencyBreakdown(
        samples=samples,
        components={name: mean(values) for name, values in per_component.items()},
    )
