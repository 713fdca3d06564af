"""Recovery analytics: how a regulator behaves around an injected fault.

The paper's argument for ODR's *acceleration* path (Sec. 4.1) is
graceful recovery from "suddenly-increased processing time": after a
stall, ODR renders above the target rate until the client-side buffer
refills, then settles back.  This module quantifies that behaviour for
any fault (:mod:`repro.faults`):

* **pre-fault FPS** — client decode rate in the window leading up to
  the fault: the level recovery is measured against;
* **time to recover** — simulated ms from the fault window's end until
  the windowed decode FPS re-enters the pre-fault band
  (``band_frac × pre_fault_fps``) and *stays* there for
  ``hold_windows`` consecutive windows (``None`` if it never does);
* **frames lost** — deliveries missing during the fault window versus
  the pre-fault rate;
* **worst FPS-gap excursion** — max windowed (render − decode) FPS gap
  over the fault-plus-recovery region: how much excessive rendering
  the disturbance provoked;
* **MtP p99 during recovery** — tail latency of inputs issued between
  fault start and recovery.

:func:`compute_recovery` is the pure, series-based core (unit-testable
on synthetic event times); :func:`recovery_stats` adapts a finished
:class:`~repro.pipeline.system.RunResult` plus its fault windows.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Optional, Sequence, Tuple

from repro.metrics.stats import percentile

if TYPE_CHECKING:  # pragma: no cover
    from repro.pipeline.system import RunResult

__all__ = ["RecoveryStats", "compute_recovery", "recovery_stats"]

#: FPS-band fraction of the pre-fault level that counts as recovered.
DEFAULT_BAND_FRAC = 0.9
#: Windowed-FPS sampling width (ms) for recovery detection.
DEFAULT_WINDOW_MS = 250.0
#: Consecutive in-band windows required to declare recovery.
DEFAULT_HOLD_WINDOWS = 4
#: How far before the fault the pre-fault FPS level is estimated (ms).
_PRE_FAULT_SPAN_MS = 5000.0


@dataclass(frozen=True)
class RecoveryStats:
    """Recovery behaviour of one run around its injected fault window."""

    #: Fault envelope: first window start / last window end (ms).
    fault_start_ms: float
    fault_end_ms: float
    #: Client decode FPS in the window leading up to the fault.
    pre_fault_fps: float
    #: ms after the fault end until decode FPS re-entered the pre-fault
    #: band and held; ``None`` = never recovered within the run.
    time_to_recover_ms: Optional[float]
    #: Deliveries missing during the fault vs the pre-fault rate.
    frames_lost: float
    #: Max windowed (render − decode) FPS gap over fault + recovery.
    worst_fps_gap: float
    #: p99 MtP latency of inputs issued between fault start and
    #: recovery (``None`` when no such input closed).
    recovery_mtp_p99_ms: Optional[float]


def _window_count(times: Sequence[float], start: float, end: float) -> int:
    """Events in ``[start, end)`` of a sorted time series."""
    return bisect_left(times, end) - bisect_left(times, start)


def compute_recovery(
    decode_times: Sequence[float],
    render_times: Sequence[float],
    mtp_samples: Sequence[Tuple[float, float]],
    fault_start_ms: float,
    fault_end_ms: float,
    t_start: float,
    t_end: float,
    band_frac: float = DEFAULT_BAND_FRAC,
    window_ms: float = DEFAULT_WINDOW_MS,
    hold_windows: int = DEFAULT_HOLD_WINDOWS,
) -> RecoveryStats:
    """Recovery stats from raw event series (pure; unit-testable).

    ``decode_times`` / ``render_times`` are the stage completion times
    (sorted ascending, as :class:`~repro.metrics.counters.FpsCounter`
    reads them from the run's trace); ``mtp_samples`` are
    ``(issued_at_ms, latency_ms)`` pairs.
    """
    if fault_end_ms <= fault_start_ms:
        raise ValueError("fault window must be non-empty")
    if not 0 < band_frac <= 1:
        raise ValueError("band fraction must be in (0, 1]")
    if window_ms <= 0 or hold_windows < 1:
        raise ValueError("window_ms must be positive and hold_windows >= 1")
    decode_sorted = sorted(decode_times)
    render_sorted = sorted(render_times)

    # Pre-fault level: the stretch just before the fault, falling back
    # to the whole measured window when the fault starts immediately.
    pre_start = max(t_start, fault_start_ms - _PRE_FAULT_SPAN_MS)
    pre_span = fault_start_ms - pre_start
    if pre_span >= window_ms:
        pre_fault_fps = _window_count(decode_sorted, pre_start, fault_start_ms) * (
            1000.0 / pre_span
        )
    else:
        whole_span = max(t_end - t_start, 1e-9)
        pre_fault_fps = _window_count(decode_sorted, t_start, t_end) * (
            1000.0 / whole_span
        )
    # A window of `window_ms` quantizes FPS to multiples of one frame
    # (4 FPS at 250 ms) and under-reads a phase-shifted stream by up to
    # one event, so the band threshold concedes that one quantum —
    # otherwise a pipeline steady at exactly the target rate could
    # never "recover" to 0.9x of a pre-fault estimate just above it.
    quantum_fps = 1000.0 / window_ms
    band_fps = band_frac * pre_fault_fps - quantum_fps

    # Time to recover: first run of `hold_windows` consecutive windows
    # after the fault end whose decode FPS is back in the band.
    time_to_recover: Optional[float] = None
    n_windows = int((t_end - fault_end_ms) // window_ms)
    in_band_run = 0
    for index in range(n_windows):
        w_start = fault_end_ms + index * window_ms
        fps = _window_count(decode_sorted, w_start, w_start + window_ms) * (
            1000.0 / window_ms
        )
        in_band_run = in_band_run + 1 if fps >= band_fps else 0
        if in_band_run >= hold_windows:
            time_to_recover = (index + 1 - hold_windows) * window_ms
            break

    # Frames lost during the fault vs the pre-fault delivery rate.
    fault_span = fault_end_ms - fault_start_ms
    delivered = _window_count(decode_sorted, fault_start_ms, fault_end_ms)
    expected = pre_fault_fps * fault_span / 1000.0
    frames_lost = max(0.0, expected - delivered)

    # Worst excessive-rendering excursion over fault + recovery.
    if time_to_recover is not None:
        region_end = min(t_end, fault_end_ms + time_to_recover + hold_windows * window_ms)
    else:
        region_end = t_end
    worst_gap = 0.0
    cursor = fault_start_ms
    while cursor + window_ms <= region_end:
        rendered = _window_count(render_sorted, cursor, cursor + window_ms)
        shown = _window_count(decode_sorted, cursor, cursor + window_ms)
        worst_gap = max(worst_gap, (rendered - shown) * 1000.0 / window_ms)
        cursor += window_ms

    # MtP tail for inputs issued while the disturbance was in effect.
    latencies = [
        latency
        for issued_at, latency in mtp_samples
        if fault_start_ms <= issued_at < region_end
    ]
    mtp_p99 = percentile(latencies, 99.0) if latencies else None

    return RecoveryStats(
        fault_start_ms=fault_start_ms,
        fault_end_ms=fault_end_ms,
        pre_fault_fps=pre_fault_fps,
        time_to_recover_ms=time_to_recover,
        frames_lost=frames_lost,
        worst_fps_gap=worst_gap,
        recovery_mtp_p99_ms=mtp_p99,
    )


def recovery_stats(
    result: "RunResult",
    fault_windows: Sequence[Tuple[float, float]],
    band_frac: float = DEFAULT_BAND_FRAC,
    window_ms: float = DEFAULT_WINDOW_MS,
    hold_windows: int = DEFAULT_HOLD_WINDOWS,
) -> Optional[RecoveryStats]:
    """Recovery stats of a finished run over its fault envelope.

    ``fault_windows`` is the applied plan's ``(start_ms, end_ms)``
    windows (``system.faults.windows``); the envelope — first start to
    last end, clipped to the measured window — is treated as one
    disturbance.  Returns ``None`` when no window overlaps the
    measured portion of the run.
    """
    if not fault_windows:
        return None
    fault_start = min(start for start, _ in fault_windows)
    fault_end = max(end for _, end in fault_windows)
    fault_start = max(fault_start, result.t_start)
    fault_end = min(fault_end, result.t_end)
    if fault_end <= fault_start:
        return None
    mtp_pairs: List[Tuple[float, float]] = [
        (sample.issued_at, sample.latency_ms) for sample in result.tracker.samples
    ]
    return compute_recovery(
        decode_times=result.counter.times("decode"),
        render_times=result.counter.times("render"),
        mtp_samples=mtp_pairs,
        fault_start_ms=fault_start,
        fault_end_ms=fault_end,
        t_start=result.t_start,
        t_end=result.t_end,
        band_frac=band_frac,
        window_ms=window_ms,
        hold_windows=hold_windows,
    )
