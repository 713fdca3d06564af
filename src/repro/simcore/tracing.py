"""Busy-interval tracing.

The hardware-efficiency models (:mod:`repro.hardware`) do not get PMU
counters from real silicon; instead they are driven by *when each
pipeline stage was busy* in simulated time.  Stages record their busy
intervals into an :class:`IntervalTrace`; the DRAM model then computes
how often memory-intensive stages overlapped, which the paper identifies
as the mechanism behind row-buffer contention ("frequent rendering will
increase the probability that these tasks execute simultaneously").
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

__all__ = ["IntervalTrace", "TraceRecord", "overlap_profile"]


@dataclass(frozen=True)
class TraceRecord:
    """One busy interval of one pipeline stage."""

    stage: str
    start: float
    end: float

    @property
    def duration(self) -> float:
        return self.end - self.start


#: One busy interval as stored: ``(stage, start, end)``.
_Interval = Tuple[str, float, float]


class IntervalTrace:
    """Accumulates per-stage busy intervals during a simulation run.

    Intervals are kept as plain ``(stage, start, end)`` tuples, both in
    global insertion order (for cross-stage analyses like
    :func:`overlap_profile`) and indexed per stage, so repeated
    per-stage queries — ``busy_time``/``utilization`` are called once
    per stage per window by the hardware reports — cost O(records of
    that stage) instead of O(all records).  :meth:`records` builds
    :class:`TraceRecord` objects only when asked.
    """

    def __init__(self) -> None:
        self._records: List[_Interval] = []
        self._by_stage: Dict[str, List[_Interval]] = {}

    def record(self, stage: str, start: float, end: float) -> None:
        """Record that ``stage`` was busy on ``[start, end)``."""
        if end > start:
            rec = (stage, start, end)
            self._records.append(rec)
            per_stage = self._by_stage.get(stage)
            if per_stage is None:
                self._by_stage[stage] = [rec]
            else:
                per_stage.append(rec)
        elif end < start:
            raise ValueError(f"interval ends before it starts: {start}..{end}")

    def __len__(self) -> int:
        return len(self._records)

    def records(self, stage: Optional[str] = None) -> List[TraceRecord]:
        """All records, optionally filtered by stage name."""
        intervals = self._records if stage is None else self._by_stage.get(stage, [])
        return [TraceRecord(*rec) for rec in intervals]

    def stages(self) -> List[str]:
        return sorted(self._by_stage)

    def busy_time(self, stage: str, start: float = 0.0, end: float = float("inf")) -> float:
        """Total busy time of ``stage`` clipped to ``[start, end)``."""
        total = 0.0
        for _, rec_start, rec_end in self._by_stage.get(stage, ()):
            lo = max(rec_start, start)
            hi = min(rec_end, end)
            if hi > lo:
                total += hi - lo
        return total

    def utilization(self, stage: str, start: float, end: float) -> float:
        """Busy fraction of ``stage`` over the window ``[start, end)``."""
        if end <= start:
            raise ValueError("empty window")
        return self.busy_time(stage, start, end) / (end - start)


def overlap_profile(
    trace: IntervalTrace,
    stages: Sequence[str],
    start: float,
    end: float,
) -> Dict[int, float]:
    """Fraction of ``[start, end)`` during which exactly *k* of ``stages``
    were simultaneously busy.

    Returns a mapping ``k -> fraction`` with keys ``0..len(stages)``.
    This is the driver for the DRAM row-buffer contention model: the
    more time two or more memory-intensive stages overlap, the higher
    the row-buffer miss rate.
    """
    if end <= start:
        raise ValueError("empty window")
    wanted = set(stages)
    deltas: List[Tuple[float, int]] = []
    for stage, rec_start, rec_end in trace._records:
        if stage not in wanted:
            continue
        lo = max(rec_start, start)
        hi = min(rec_end, end)
        if hi > lo:
            deltas.append((lo, +1))
            deltas.append((hi, -1))
    profile = {k: 0.0 for k in range(len(stages) + 1)}
    if not deltas:
        profile[0] = 1.0
        return profile
    deltas.sort()
    span = end - start
    level = 0
    prev = start
    for time, delta in deltas:
        if time > prev:
            profile[min(level, len(stages))] += (time - prev) / span
        level += delta
        prev = time
    if end > prev:
        profile[min(level, len(stages))] += (end - prev) / span
    return profile


def windowed_counts(times: Iterable[float], window: float, start: float, end: float) -> List[int]:
    """Count events per fixed window over ``[start, end)``.

    Shared helper for FPS-style counters: given the completion times of
    some per-frame step, return the number of completions in each
    ``window``-sized bucket.
    """
    if window <= 0:
        raise ValueError("window must be positive")
    if end <= start:
        return []
    sorted_times = sorted(t for t in times if start <= t < end)
    n_windows = int((end - start) // window)
    counts: List[int] = []
    for i in range(n_windows):
        lo = start + i * window
        hi = lo + window
        a = bisect.bisect_left(sorted_times, lo)
        b = bisect.bisect_left(sorted_times, hi)
        counts.append(b - a)
    return counts
