"""Deterministic random-number streams.

Every stochastic component in the simulation (render times, encode
times, network jitter, user inputs, frame sizes, ...) draws from its own
named :class:`SeededRng` stream derived from a single experiment seed.
This gives two properties the evaluation depends on:

* **Reproducibility** — a run is a pure function of (config, seed).
* **Common random numbers** — comparing two regulators under the same
  seed exposes them to the *same* workload randomness, which sharpens
  paired comparisons (the paper compares regulators on the same
  benchmark runs).
"""

from __future__ import annotations

import hashlib
import math
from typing import Dict, Iterator, List, Sequence, TypeVar

import numpy as np

__all__ = ["RngRegistry", "SeededRng", "derive_seed"]

T = TypeVar("T")


def derive_seed(root_seed: int, *names: object) -> int:
    """Derive a child seed from a root seed and a path of names.

    Hash-based so that adding a new stream never perturbs existing
    streams (unlike sequential ``seed + i`` schemes).
    """
    digest = hashlib.sha256()
    digest.update(str(int(root_seed)).encode())
    for name in names:
        digest.update(b"/")
        digest.update(str(name).encode())
    return int.from_bytes(digest.digest()[:8], "little")


class SeededRng:
    """A named deterministic random stream.

    Thin wrapper over :class:`numpy.random.Generator` adding the
    distributions the workload models need and the hash-derived
    sub-stream factory.
    """

    def __init__(self, seed: int, name: str = "root") -> None:
        self.seed = int(seed)
        self.name = name
        self._gen = np.random.default_rng(self.seed)

    def child(self, *names: object) -> "SeededRng":
        """Create an independent sub-stream identified by ``names``."""
        return SeededRng(derive_seed(self.seed, *names), name="/".join(map(str, names)))

    # -- basic draws ----------------------------------------------------

    def uniform(self, low: float = 0.0, high: float = 1.0) -> float:
        return float(self._gen.uniform(low, high))

    def random(self) -> float:
        return float(self._gen.random())

    def randint(self, low: int, high: int) -> int:
        """Integer in ``[low, high]`` inclusive."""
        return int(self._gen.integers(low, high + 1))

    def choice(self, seq: Sequence[T]) -> T:
        return seq[int(self._gen.integers(0, len(seq)))]

    def normal(self, mean: float = 0.0, std: float = 1.0) -> float:
        return float(self._gen.normal(mean, std))

    def exponential(self, mean: float) -> float:
        """Exponential with the given *mean* (not rate)."""
        if mean <= 0:
            raise ValueError("mean must be positive")
        return float(self._gen.exponential(mean))

    def lognormal_mean_cv(self, mean: float, cv: float) -> float:
        """Log-normal draw parameterized by mean and coefficient of variation.

        This is the natural parameterization for frame-time bodies: the
        paper's CDFs (Fig. 4a) show right-skewed distributions whose
        bulk sits well below 16.6 ms.
        """
        if mean <= 0:
            raise ValueError("mean must be positive")
        if cv < 0:
            raise ValueError("cv must be non-negative")
        if cv == 0:
            return mean
        sigma2 = math.log(1.0 + cv * cv)
        mu = math.log(mean) - sigma2 / 2.0
        return float(self._gen.lognormal(mu, math.sqrt(sigma2)))

    def pareto(self, scale: float, alpha: float) -> float:
        """Pareto draw with minimum ``scale`` and shape ``alpha``."""
        if scale <= 0 or alpha <= 0:
            raise ValueError("scale and alpha must be positive")
        return float(scale * (1.0 + self._gen.pareto(alpha)))

    def bernoulli(self, p: float) -> bool:
        return bool(self._gen.random() < p)

    def poisson_interarrivals(self, rate_per_ms: float) -> Iterator[float]:
        """Infinite stream of exponential inter-arrival gaps (ms)."""
        if rate_per_ms <= 0:
            raise ValueError("rate must be positive")
        mean = 1.0 / rate_per_ms
        while True:
            yield float(self._gen.exponential(mean))

    def shuffle(self, seq: List[T]) -> None:
        self._gen.shuffle(seq)  # type: ignore[arg-type]

    def __repr__(self) -> str:
        return f"<SeededRng {self.name!r} seed={self.seed}>"


class RngRegistry:
    """The root of all randomness for one run: named, memoized streams.

    One registry is seeded from the experiment seed; every stochastic
    component asks it for a stream by path (``registry.stream("stage",
    "render")``).  Asking twice for the same path returns the *same*
    stream object, so components sharing a path share a draw sequence,
    and the set of registered paths documents exactly where randomness
    enters a run.

    Analyzer rule P2 enforces the inverse property: no module outside
    :mod:`repro.simcore.rng` may touch ``random`` / ``numpy.random``
    directly, so every draw in the simulation is reachable from a
    registry (or a :class:`SeededRng` derived the same hash-based way)
    and therefore a pure function of the experiment seed.
    """

    def __init__(self, root_seed: int) -> None:
        self.root_seed = int(root_seed)
        self._root = SeededRng(self.root_seed, name="root")
        self._streams: Dict[str, SeededRng] = {}

    @property
    def root(self) -> SeededRng:
        """The root stream (prefer named sub-streams via :meth:`stream`)."""
        return self._root

    def stream(self, *names: object) -> SeededRng:
        """The memoized stream for ``names`` (created on first request)."""
        if not names:
            raise ValueError("stream path must not be empty")
        key = "/".join(map(str, names))
        stream = self._streams.get(key)
        if stream is None:
            stream = self._root.child(*names)
            self._streams[key] = stream
        return stream

    def registered(self) -> List[str]:
        """Sorted paths of every stream handed out so far."""
        return sorted(self._streams)

    def __repr__(self) -> str:
        return (
            f"<RngRegistry seed={self.root_seed} "
            f"streams={len(self._streams)}>"
        )
