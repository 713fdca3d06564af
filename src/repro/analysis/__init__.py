"""Post-run analysis utilities.

Tools a downstream user needs to work with simulation output beyond the
paper's tables:

* :mod:`repro.analysis.traces` — record a run's per-stage service-time
  traces and **replay** them through the pipeline (deterministic
  what-if studies on identical workloads, or driving the simulator with
  frame-time traces profiled from a real game).

Multi-seed comparisons are not done here: they run as seed-axis plans
(``odr-sim compare``) summarised by
:func:`repro.metrics.stats.paired_delta_cis`.
"""

from repro.analysis.latency import LatencyBreakdown, latency_breakdown
from repro.analysis.traces import (
    RecordedStageModel,
    StageTraces,
    record_stage_traces,
)

__all__ = [
    "LatencyBreakdown",
    "RecordedStageModel",
    "StageTraces",
    "latency_breakdown",
    "record_stage_traces",
]
