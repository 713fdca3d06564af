"""In-memory spans and the small statistics the benchmark reports.

A span is one timed call into a layer: ``name``, ``start``/``end`` in
host seconds (``time.perf_counter``), the id of the span that caused it
(``parent``) and the id of the job or pass it belongs to (``trace``).
Spans stay in memory while the benchmark runs and are written out once,
as a Chrome trace, when it ends.  Per-layer metrics are medians over the
durations of the spans that carry the layer's name, so the trace file
and the printed numbers cannot disagree.
"""

from __future__ import annotations

import json
import math
import os
import threading
import time
from contextlib import contextmanager
from typing import Any, Dict, Iterator, List, Optional, Sequence


def pct(values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile (0..100) by linear interpolation."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100.0
    low = math.floor(pos)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (pos - low)


def median(values: Sequence[float]) -> float:
    return pct(values, 50.0)


class Tracer:
    """Thread-safe, append-only span recorder."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._next_id = 0
        self.spans: List[Dict[str, Any]] = []
        self.origin = time.perf_counter()

    def _new_id(self) -> int:
        with self._lock:
            self._next_id += 1
            return self._next_id

    def _append(
        self,
        span_id: int,
        name: str,
        start: float,
        end: float,
        parent: Optional[int],
        trace: Optional[int],
        attrs: Dict[str, Any],
    ) -> None:
        span = {
            "id": span_id,
            "name": name,
            "start": start,
            "end": end,
            "parent": parent,
            "trace": trace if trace is not None else span_id,
        }
        if attrs:
            span["attrs"] = attrs
        with self._lock:
            self.spans.append(span)

    def add(
        self,
        name: str,
        start: float,
        end: float,
        parent: Optional[int] = None,
        trace: Optional[int] = None,
        **attrs: Any,
    ) -> int:
        """Record a span timed by the caller (or taken from an event stream)."""
        span_id = self._new_id()
        self._append(span_id, name, start, end, parent, trace, attrs)
        return span_id

    @contextmanager
    def span(
        self, name: str, parent: Optional[int] = None, trace: Optional[int] = None, **attrs: Any
    ) -> Iterator[int]:
        """Time the body as one span; yields the span id for children."""
        span_id = self._new_id()
        start = time.perf_counter()
        try:
            yield span_id
        finally:
            self._append(span_id, name, start, time.perf_counter(), parent, trace, attrs)

    def durations_ms(self, name: str) -> List[float]:
        with self._lock:
            return [(s["end"] - s["start"]) * 1000.0 for s in self.spans if s["name"] == name]

    def children(self, span_id: int) -> List[Dict[str, Any]]:
        with self._lock:
            return [s for s in self.spans if s["parent"] == span_id]

    def by_name(self, name: str) -> List[Dict[str, Any]]:
        with self._lock:
            return [s for s in self.spans if s["name"] == name]

    def write_chrome(self, path: str) -> None:
        """Write every span as a Chrome-trace complete event (µs)."""
        with self._lock:
            spans = list(self.spans)
        events = []
        for span in spans:
            args = {"id": span["id"], "parent": span["parent"], "trace": span["trace"]}
            args.update(span.get("attrs", {}))
            events.append(
                {
                    "name": span["name"],
                    "ph": "X",
                    "pid": 1,
                    "tid": span["trace"],
                    "ts": (span["start"] - self.origin) * 1e6,
                    "dur": (span["end"] - span["start"]) * 1e6,
                    "args": args,
                }
            )
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"traceEvents": events}, handle)
