"""Post-run analysis utilities.

Tools a downstream user needs to work with simulation output beyond the
paper's tables:

* :mod:`repro.analysis.frame_log` — export a run's complete per-frame
  journey (every timestamp, size, drop reason) to CSV and load it back;
* :mod:`repro.analysis.traces` — record a run's per-stage service-time
  traces and **replay** them through the pipeline (deterministic
  what-if studies on identical workloads, or driving the simulator with
  frame-time traces profiled from a real game).

Multi-seed comparisons are not done here: they run as seed-axis plans
(``odr-sim compare``) summarised by
:func:`repro.metrics.stats.paired_delta_cis`.
"""

from repro.analysis.frame_log import export_frame_log, load_frame_log
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
    "export_frame_log",
    "latency_breakdown",
    "load_frame_log",
    "record_stage_traces",
]
