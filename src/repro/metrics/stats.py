"""Distribution summaries and cross-run inference, pure stdlib.

Two layers live here:

* the paper's reporting style — box plots (Fig. 10, Fig. 11) show the
  1 %ile, 25 %ile, mean, 75 %ile, and 99 %ile; :class:`BoxStats`
  captures exactly those five numbers plus the count;
* cross-run inference — a Mann-Whitney U rank test and bootstrap
  confidence intervals (for one mean, for a difference of means, and
  per metric for paired common-random-number deltas,
  :func:`paired_delta_cis`), all implemented with nothing beyond
  ``math`` so the regression sentinel (:mod:`repro.obs.sentinel`),
  ``odr-sim compare`` and the replicated-headline bench need no SciPy.
  Bootstrap resampling uses an embedded splitmix64 generator
  (:class:`SplitMix64`) rather than :mod:`random` or the simulation's
  seeded streams: the resampling randomness is part of the
  *analysis*, must be reproducible from an explicit seed, and must
  never touch the simulation's streams (analyzer rule P2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Mapping, Sequence, Tuple

__all__ = [
    "BootstrapCI",
    "BoxStats",
    "MannWhitneyResult",
    "SplitMix64",
    "bootstrap_diff_ci",
    "bootstrap_mean_ci",
    "mann_whitney_u",
    "mean",
    "paired_delta_cis",
    "percentile",
    "summarize",
]


def mean(values: Sequence[float]) -> float:
    """Arithmetic mean; raises on empty input."""
    values = list(values)
    if not values:
        raise ValueError("mean of empty sequence")
    return sum(values) / len(values)


def percentile(values: Sequence[float], pct: float) -> float:
    """Linear-interpolation percentile (``pct`` in [0, 100])."""
    if not 0 <= pct <= 100:
        raise ValueError(f"percentile {pct} outside [0, 100]")
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of empty sequence")
    if len(ordered) == 1:
        return ordered[0]
    rank = (pct / 100.0) * (len(ordered) - 1)
    lo = int(math.floor(rank))
    hi = int(math.ceil(rank))
    if lo == hi or ordered[lo] == ordered[hi]:
        return ordered[lo]
    frac = rank - lo
    return ordered[lo] * (1.0 - frac) + ordered[hi] * frac


@dataclass(frozen=True)
class BoxStats:
    """The five-number summary used throughout the paper's figures."""

    count: int
    mean: float
    p1: float
    p25: float
    p75: float
    p99: float

    def __str__(self) -> str:
        return (
            f"mean={self.mean:.1f} "
            f"[p1={self.p1:.1f} p25={self.p25:.1f} p75={self.p75:.1f} p99={self.p99:.1f}]"
        )


def summarize(values: Sequence[float]) -> BoxStats:
    """Compute the paper-style box summary of ``values``."""
    values = list(values)
    if not values:
        raise ValueError("summarize of empty sequence")
    return BoxStats(
        count=len(values),
        mean=mean(values),
        p1=percentile(values, 1),
        p25=percentile(values, 25),
        p75=percentile(values, 75),
        p99=percentile(values, 99),
    )


# ---------------------------------------------------------------------------
# Cross-run inference (regression sentinel support)
# ---------------------------------------------------------------------------


class SplitMix64:
    """Tiny deterministic PRNG (splitmix64) for bootstrap resampling.

    Statistically solid for resampling indices, reproducible from an
    explicit integer seed, and dependency-free.  Deliberately *not* a
    simulation stream: analysis randomness must never share state with
    (or be mistaken for) workload randomness.
    """

    _MASK = (1 << 64) - 1

    def __init__(self, seed: int) -> None:
        self._state = int(seed) & self._MASK

    def next_u64(self) -> int:
        """Next 64-bit output word."""
        self._state = (self._state + 0x9E3779B97F4A7C15) & self._MASK
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & self._MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & self._MASK
        return z ^ (z >> 31)

    def randrange(self, n: int) -> int:
        """Uniform integer in ``[0, n)`` (rejection-free multiply-shift)."""
        if n <= 0:
            raise ValueError("randrange bound must be positive")
        return (self.next_u64() * n) >> 64


@dataclass(frozen=True)
class MannWhitneyResult:
    """Outcome of a two-sided Mann-Whitney U rank test."""

    u: float
    #: Two-sided p-value from the normal approximation (tie-corrected,
    #: continuity-corrected).  1.0 when either sample is empty or all
    #: observations are tied.
    p_value: float
    n_a: int
    n_b: int


def _rank_sum(a: Sequence[float], b: Sequence[float]) -> Tuple[float, float]:
    """Rank-sum of sample ``a`` in the pooled ranking, plus tie term."""
    pooled = sorted(
        [(float(v), 0) for v in a] + [(float(v), 1) for v in b],
        key=lambda pair: pair[0],
    )
    rank_a = 0.0
    tie_term = 0.0
    index = 0
    while index < len(pooled):
        stop = index
        while stop < len(pooled) and pooled[stop][0] == pooled[index][0]:
            stop += 1
        # Average rank for the tied block [index, stop).
        avg_rank = (index + stop + 1) / 2.0  # ranks are 1-based
        block = stop - index
        tie_term += block ** 3 - block
        for position in range(index, stop):
            if pooled[position][1] == 0:
                rank_a += avg_rank
        index = stop
    return rank_a, tie_term


def mann_whitney_u(a: Sequence[float], b: Sequence[float]) -> MannWhitneyResult:
    """Two-sided Mann-Whitney U test via the normal approximation.

    Pure stdlib: average ranks for ties, tie-corrected variance,
    continuity correction, and a two-sided p-value from ``math.erfc``.
    Degenerate inputs (empty samples, zero variance — e.g. comparing a
    deterministic re-run against itself) report ``p_value = 1.0``.
    """
    n_a, n_b = len(a), len(b)
    if n_a == 0 or n_b == 0:
        return MannWhitneyResult(u=0.0, p_value=1.0, n_a=n_a, n_b=n_b)
    rank_a, tie_term = _rank_sum(a, b)
    u_a = rank_a - n_a * (n_a + 1) / 2.0
    n = n_a + n_b
    mu = n_a * n_b / 2.0
    variance = (n_a * n_b / 12.0) * ((n + 1) - tie_term / (n * (n - 1)))
    if variance <= 0.0:
        return MannWhitneyResult(u=u_a, p_value=1.0, n_a=n_a, n_b=n_b)
    z = (abs(u_a - mu) - 0.5) / math.sqrt(variance)
    if z < 0.0:
        z = 0.0
    p = math.erfc(z / math.sqrt(2.0))
    return MannWhitneyResult(u=u_a, p_value=min(1.0, p), n_a=n_a, n_b=n_b)


@dataclass(frozen=True)
class BootstrapCI:
    """A percentile bootstrap confidence interval for a statistic."""

    estimate: float
    low: float
    high: float
    confidence: float
    resamples: int

    def contains(self, value: float) -> bool:
        return self.low <= value <= self.high

    def as_dict(self) -> dict:
        return {
            "estimate": self.estimate,
            "low": self.low,
            "high": self.high,
            "confidence": self.confidence,
            "resamples": self.resamples,
        }


def _resample_mean(values: Sequence[float], rng: SplitMix64) -> float:
    n = len(values)
    total = 0.0
    for _ in range(n):
        total += values[rng.randrange(n)]
    return total / n


def bootstrap_mean_ci(
    values: Sequence[float],
    confidence: float = 0.95,
    resamples: int = 2000,
    seed: int = 0,
) -> BootstrapCI:
    """Percentile bootstrap CI for the mean of one sample."""
    values = [float(v) for v in values]
    if not values:
        raise ValueError("bootstrap of empty sequence")
    if not 0.0 < confidence < 1.0:
        raise ValueError(f"confidence {confidence} outside (0, 1)")
    rng = SplitMix64(seed)
    means: List[float] = [_resample_mean(values, rng) for _ in range(resamples)]
    tail = (1.0 - confidence) / 2.0 * 100.0
    return BootstrapCI(
        estimate=mean(values),
        low=percentile(means, tail),
        high=percentile(means, 100.0 - tail),
        confidence=confidence,
        resamples=resamples,
    )


def bootstrap_diff_ci(
    a: Sequence[float],
    b: Sequence[float],
    confidence: float = 0.95,
    resamples: int = 2000,
    seed: int = 0,
) -> BootstrapCI:
    """Percentile bootstrap CI for ``mean(b) - mean(a)``.

    Both samples are resampled independently per replicate, so the
    interval reflects sampling variability on both sides of a run
    comparison.
    """
    a = [float(v) for v in a]
    b = [float(v) for v in b]
    if not a or not b:
        raise ValueError("bootstrap of empty sequence")
    if not 0.0 < confidence < 1.0:
        raise ValueError(f"confidence {confidence} outside (0, 1)")
    rng = SplitMix64(seed)
    diffs: List[float] = [
        _resample_mean(b, rng) - _resample_mean(a, rng) for _ in range(resamples)
    ]
    tail = (1.0 - confidence) / 2.0 * 100.0
    return BootstrapCI(
        estimate=mean(b) - mean(a),
        low=percentile(diffs, tail),
        high=percentile(diffs, 100.0 - tail),
        confidence=confidence,
        resamples=resamples,
    )


def paired_delta_cis(
    a: Sequence[Mapping[str, float]],
    b: Sequence[Mapping[str, float]],
) -> Dict[str, BootstrapCI]:
    """Per metric, a 95 % bootstrap CI for the mean paired delta ``b - a``.

    ``a[i]`` and ``b[i]`` are one common-random-number pair — the same
    seed run under two configurations — so each delta is free of the
    workload variance the pair shares.  A metric enters a pair's deltas
    only when both sides report it.  A delta is significant when its CI
    excludes 0.  With 3 pairs or fewer the CI is [min delta, max delta]
    (the all-minimum resample is more likely than the 2.5 % tail), so
    it only says whether every delta has the same sign.
    """
    if len(a) != len(b):
        raise ValueError(f"unpaired samples: {len(a)} vs {len(b)}")
    if not a:
        raise ValueError("need at least one pair")
    deltas: Dict[str, List[float]] = {}
    for row_a, row_b in zip(a, b):
        for name in sorted(set(row_a) & set(row_b)):
            deltas.setdefault(name, []).append(float(row_b[name]) - float(row_a[name]))
    return {
        name: bootstrap_mean_ci(values)
        for name, values in sorted(deltas.items())
    }
