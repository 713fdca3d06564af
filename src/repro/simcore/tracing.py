"""Busy-interval tracing.

The hardware-efficiency models (:mod:`repro.hardware`) do not get PMU
counters from real silicon; instead they are driven by *when each
pipeline stage was busy* in simulated time.  Stages record their busy
intervals into an :class:`IntervalTrace`; the DRAM model then computes
how often memory-intensive stages overlapped, which the paper identifies
as the mechanism behind row-buffer contention ("frequent rendering will
increase the probability that these tasks execute simultaneously").

The trace is also the run's only record of stage completions: a frame
completes a stage when that stage's interval for it ends, so
:class:`~repro.metrics.counters.FpsCounter` counts FPS from a stage's
end column (:meth:`IntervalTrace.ends`).
"""

from __future__ import annotations

import bisect
from array import array
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

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


#: One stage's intervals as two float columns, ``(starts, ends)``, in
#: record order.
_Columns = Tuple["array[float]", "array[float]"]

_NO_INTERVALS = np.empty(0)
_NO_ENDS: Sequence[float] = ()


def _sequential_sum(values: np.ndarray) -> float:
    """``0.0 + values[0] + values[1] + ...``, added strictly left to right.

    The window statistics must equal a plain Python accumulation loop
    bit for bit; ``np.cumsum`` adds in that order, whereas ``np.sum``
    (pairwise), ``math.fsum`` and, from Python 3.12, ``sum`` (compensated)
    round differently.
    """
    return float(np.cumsum(values)[-1]) if values.size else 0.0


class IntervalTrace:
    """Accumulates per-stage busy intervals during a simulation run.

    Each interval is stored once, in its stage's pair of ``array('d')``
    columns (``starts``, ``ends``), so the window statistics —
    :meth:`busy_time`, :meth:`utilization`, :func:`overlap_profile` —
    are numpy passes over one stage's columns, which numpy reads
    through the buffer protocol without a per-element conversion.  A
    list of stage names remembers the global record order, which
    :meth:`records` restores (the Fig. 5 renderer sorts that list
    stably by start time).
    """

    def __init__(self) -> None:
        self._columns: Dict[str, _Columns] = {}
        #: The stage of every stored interval, in global record order.
        self._order: List[str] = []

    def record(self, stage: str, start: float, end: float) -> None:
        """Record that ``stage`` was busy on ``[start, end)``."""
        if end > start:
            columns = self._columns.get(stage)
            if columns is None:
                columns = self._columns[stage] = (array("d"), array("d"))
            columns[0].append(start)
            columns[1].append(end)
            self._order.append(stage)
        elif end < start:
            raise ValueError(f"interval ends before it starts: {start}..{end}")

    def __len__(self) -> int:
        return len(self._order)

    def records(self, stage: Optional[str] = None) -> List[TraceRecord]:
        """All records, optionally filtered by stage name, in record order."""
        if stage is not None:
            columns = self._columns.get(stage)
            if columns is None:
                return []
            return [TraceRecord(stage, lo, hi) for lo, hi in zip(*columns)]
        cursors = {name: zip(*columns) for name, columns in self._columns.items()}
        return [TraceRecord(name, *next(cursors[name])) for name in self._order]

    def intervals(self, stage: str) -> Iterator[Tuple[float, float]]:
        """``(start, end)`` of every interval of ``stage``, in record order."""
        columns = self._columns.get(stage)
        if columns is None:
            return iter(())
        return zip(columns[0], columns[1])

    def ends(self, stage: str) -> Sequence[float]:
        """End times of ``stage``'s intervals, in record order: the live
        column, not a copy, so its length is the stage's completion count
        so far."""
        columns = self._columns.get(stage)
        return _NO_ENDS if columns is None else columns[1]

    def stages(self) -> List[str]:
        return sorted(self._columns)

    def _clipped(self, stage: str, start: float, end: float) -> Tuple[np.ndarray, np.ndarray]:
        """``stage``'s intervals clipped to ``[start, end)``, as ``(lo, hi)``
        arrays in record order; intervals that clip to nothing are dropped."""
        columns = self._columns.get(stage)
        if columns is None:
            return _NO_INTERVALS, _NO_INTERVALS
        lo = np.maximum(columns[0], start)
        hi = np.minimum(columns[1], end)
        keep = hi > lo
        return lo[keep], hi[keep]

    def busy_time(self, stage: str, start: float = 0.0, end: float = float("inf")) -> float:
        """Total busy time of ``stage`` clipped to ``[start, end)``."""
        lo, hi = self._clipped(stage, start, end)
        return _sequential_sum(hi - lo)

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

    Returns a mapping ``k -> fraction`` with keys ``0..len(stages)``;
    more than ``len(stages)`` concurrent intervals (a stage overlapping
    itself) count in the top level.  This is the driver for the DRAM
    row-buffer contention model: the more time two or more
    memory-intensive stages overlap, the higher the row-buffer miss rate.

    The sweep sorts every clipped interval's ``+1``/``-1`` edge by
    ``(time, delta)`` and adds each positive gap between consecutive
    edges, divided by the window, to the level in force over it — one
    ``np.cumsum`` per level, in sweep order.
    """
    if end <= start:
        raise ValueError("empty window")
    top = len(stages)
    profile = {k: 0.0 for k in range(top + 1)}
    # A stage listed twice still contributes its intervals once.
    pairs = [trace._clipped(stage, start, end) for stage in dict.fromkeys(stages)]
    lo = np.concatenate([pair[0] for pair in pairs]) if pairs else _NO_INTERVALS
    if not lo.size:
        profile[0] = 1.0
        return profile
    hi = np.concatenate([pair[1] for pair in pairs])
    times = np.concatenate((lo, hi))
    deltas = np.concatenate((np.ones(lo.size, np.int64), np.full(hi.size, -1, np.int64)))
    order = np.lexsort((deltas, times))
    times = times[order]
    # Gap i runs from edge i-1 (the window start for i = 0) to edge i at
    # the level after edge i-1; the last gap runs on to the window end.
    gap_start = np.concatenate(((start,), times))
    gap_end = np.concatenate((times, (end,)))
    levels = np.minimum(np.concatenate(((0,), np.cumsum(deltas[order]))), top)
    keep = gap_end > gap_start
    fractions = (gap_end - gap_start)[keep] / (end - start)
    levels = levels[keep]
    for level in range(top + 1):
        profile[level] = _sequential_sum(fractions[levels == level])
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
