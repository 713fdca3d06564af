"""Measurement machinery for simulated cloud-3D runs.

Mirrors what the Pictor benchmarking framework measures on the real
system:

* per-stage frame rates (render / encode / decode FPS) and the **FPS
  gap** between cloud rendering and client decoding — the paper's
  headline inefficiency metric (Fig. 1, Fig. 3, Table 2);
* **motion-to-photon (MtP) latency** from user input to the displayed
  responding frame (Fig. 6, Fig. 9b, Fig. 11);
* windowed **QoS checks** — "ODR could ensure 30 or 60 FPS for every
  200 ms interval at least" (Sec. 5.2);
* distribution summaries matching the paper's box plots (1 %ile,
  25 %ile, mean, 75 %ile, 99 %ile).
"""

from repro.metrics.counters import FpsCounter, FpsGapReport, fps_gap_report
from repro.metrics.latency import LatencySample, MtpLatencyTracker
from repro.metrics.qos import QosReport, qos_satisfaction
from repro.metrics.recovery import RecoveryStats, compute_recovery, recovery_stats
from repro.metrics.stats import (
    BootstrapCI,
    BoxStats,
    MannWhitneyResult,
    bootstrap_diff_ci,
    bootstrap_mean_ci,
    mann_whitney_u,
    mean,
    percentile,
    summarize,
)

__all__ = [
    "BootstrapCI",
    "BoxStats",
    "FpsCounter",
    "FpsGapReport",
    "fps_gap_report",
    "LatencySample",
    "MannWhitneyResult",
    "MtpLatencyTracker",
    "QosReport",
    "RecoveryStats",
    "compute_recovery",
    "recovery_stats",
    "bootstrap_diff_ci",
    "bootstrap_mean_ci",
    "mann_whitney_u",
    "mean",
    "percentile",
    "qos_satisfaction",
    "summarize",
]
