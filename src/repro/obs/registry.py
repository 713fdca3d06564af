"""Labeled metrics: counters, gauges, histograms.

A :class:`MetricsRegistry` holds named, labeled time series in the
style of Prometheus client libraries: a *series* is identified by a
metric name plus a frozen set of ``label=value`` pairs, e.g.
``frames_dropped_total{reason="mailbox_overwrite", session="s1"}``.

:class:`~repro.obs.telemetry.Telemetry` fills the registry from a
finished run, one instrument lookup per series; analysis code reads
back via :meth:`MetricsRegistry.snapshot`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Mapping, Optional, Tuple

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "HistogramStats",
    "MetricsRegistry",
    "MetricsSnapshot",
    "SeriesKey",
]

LabelItems = Tuple[Tuple[str, str], ...]


@dataclass(frozen=True)
class SeriesKey:
    """Identity of one time series: metric name + sorted labels."""

    name: str
    labels: LabelItems = ()

    @staticmethod
    def make(name: str, labels: Mapping[str, object]) -> "SeriesKey":
        items = tuple(sorted((str(k), str(v)) for k, v in labels.items()))
        return SeriesKey(name, items)

    def label(self, key: str) -> Optional[str]:
        for k, v in self.labels:
            if k == key:
                return v
        return None

    def __str__(self) -> str:
        if not self.labels:
            return self.name
        inner = ",".join(f'{k}="{v}"' for k, v in self.labels)
        return f"{self.name}{{{inner}}}"


class Counter:
    """Monotonically increasing value (events, frames, bytes, ...)."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters only go up")
        self.value += amount


class Gauge:
    """Point-in-time value that can go up and down (queue depth, ...)."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)


class Histogram:
    """Distribution of observed values (latencies, sizes, ...).

    Observations are retained in full — simulation runs produce at most
    a few thousand per series, and exact percentiles beat bucket
    approximations for paper-style analysis.
    """

    __slots__ = ("values",)

    def __init__(self) -> None:
        self.values: List[float] = []

    def observe(self, value: float) -> None:
        self.values.append(float(value))

    def stats(self) -> "HistogramStats":
        return HistogramStats.from_values(self.values)


@dataclass(frozen=True)
class HistogramStats:
    """Summary of a histogram at snapshot time."""

    count: int
    sum: float
    min: float
    max: float
    p50: float
    p99: float

    @staticmethod
    def from_values(values: Iterable[float]) -> "HistogramStats":
        data = sorted(values)
        if not data:
            return HistogramStats(0, 0.0, 0.0, 0.0, 0.0, 0.0)

        def pct(q: float) -> float:
            idx = min(len(data) - 1, max(0, round(q * (len(data) - 1))))
            return data[idx]

        return HistogramStats(
            count=len(data),
            sum=float(sum(data)),
            min=data[0],
            max=data[-1],
            p50=pct(0.50),
            p99=pct(0.99),
        )

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def to_dict(self) -> dict:
        return {
            "count": self.count,
            "sum": self.sum,
            "min": self.min,
            "max": self.max,
            "mean": self.mean,
            "p50": self.p50,
            "p99": self.p99,
        }


class MetricsRegistry:
    """Registry of labeled counters, gauges, and histograms.

    Instruments are kept per series: ``registry.counter(name, **labels)``
    returns the same counter each time it is called with the same name
    and labels.  A name registered as one instrument kind cannot be
    reused as another.
    """

    def __init__(self) -> None:
        self._counters: Dict[SeriesKey, Counter] = {}
        self._gauges: Dict[SeriesKey, Gauge] = {}
        self._histograms: Dict[SeriesKey, Histogram] = {}
        self._kinds: Dict[str, str] = {}

    def _claim(self, name: str, kind: str) -> None:
        seen = self._kinds.setdefault(name, kind)
        if seen != kind:
            raise ValueError(f"metric {name!r} already registered as a {seen}")

    # -- instruments -----------------------------------------------------

    def counter(self, name: str, **labels: object) -> Counter:
        self._claim(name, "counter")
        key = SeriesKey.make(name, labels)
        instrument = self._counters.get(key)
        if instrument is None:
            instrument = self._counters[key] = Counter()
        return instrument

    def gauge(self, name: str, **labels: object) -> Gauge:
        self._claim(name, "gauge")
        key = SeriesKey.make(name, labels)
        instrument = self._gauges.get(key)
        if instrument is None:
            instrument = self._gauges[key] = Gauge()
        return instrument

    def histogram(self, name: str, **labels: object) -> Histogram:
        self._claim(name, "histogram")
        key = SeriesKey.make(name, labels)
        instrument = self._histograms.get(key)
        if instrument is None:
            instrument = self._histograms[key] = Histogram()
        return instrument

    # -- reading ---------------------------------------------------------

    def histogram_stats(self, name: str, **labels: object) -> HistogramStats:
        """Summary of one histogram series, read without creating it.

        A series that does not exist reads as empty, as in
        :meth:`MetricsSnapshot.histogram_stats`, and stays absent.
        """
        instrument = self._histograms.get(SeriesKey.make(name, labels))
        return HistogramStats.from_values(instrument.values if instrument is not None else ())

    def series(self) -> List[SeriesKey]:
        """Every series currently registered, sorted by name then labels."""
        keys = list(self._counters) + list(self._gauges) + list(self._histograms)
        return sorted(keys, key=lambda k: (k.name, k.labels))

    def snapshot(self) -> "MetricsSnapshot":
        """Immutable point-in-time copy of every series."""
        return MetricsSnapshot(
            counters={k: c.value for k, c in self._counters.items()},
            gauges={k: g.value for k, g in self._gauges.items()},
            histograms={k: h.stats() for k, h in self._histograms.items()},
        )


@dataclass(frozen=True)
class MetricsSnapshot:
    """Frozen registry state."""

    counters: Dict[SeriesKey, float]
    gauges: Dict[SeriesKey, float]
    histograms: Dict[SeriesKey, HistogramStats]

    def counter_value(self, name: str, **labels: object) -> float:
        return self.counters.get(SeriesKey.make(name, labels), 0.0)

    def histogram_stats(self, name: str, **labels: object) -> HistogramStats:
        key = SeriesKey.make(name, labels)
        return self.histograms.get(key, HistogramStats.from_values(()))

    def to_dict(self) -> dict:
        """Flatten for JSONL export (series keys become label strings)."""
        return {
            "counters": {str(k): v for k, v in sorted(self.counters.items(), key=lambda i: str(i[0]))},
            "gauges": {str(k): v for k, v in sorted(self.gauges.items(), key=lambda i: str(i[0]))},
            "histograms": {
                str(k): v.to_dict()
                for k, v in sorted(self.histograms.items(), key=lambda i: str(i[0]))
            },
        }
