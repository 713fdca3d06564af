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

Block-drawn streams
-------------------
A scalar draw through :class:`SeededRng` costs one Python call into
numpy per draw.  A stream with **one consumer that draws from one
distribution** can instead take its standard normals in blocks
(:meth:`SeededRng.claim_normals`, ``NORMAL_BLOCK`` at a time).  This is
exact, not approximate: numpy's ``Generator`` fills
``standard_normal(n)`` by running the scalar sampler ``n`` times on the
same bit stream, so the *k*-th value of the blocks is the *k*-th scalar
draw; ``normal(0, 1)`` is ``0 + 1*z`` and ``lognormal(mu, sigma)`` is
``exp(mu + sigma*z)`` on that same ``z``.  Drawing ahead only changes
*when* values are taken from the bit stream, which nobody else sees —
hence the one-consumer condition.  A stream that mixes distributions
(``stage/render`` and ``stage/encode`` interleave ``normal``, ``random``
and ``pareto``) cannot be block-drawn without reordering its draws.

The **claim rule** keeps the condition honest: handing out the block
source claims the stream, and every later draw through it (including a
second claim) raises, so two consumers can never split one stream.  The
source lives on the :class:`SeededRng` instance, never at module level,
so a run cannot inherit another run's unread block.
"""

from __future__ import annotations

import hashlib
import math
from typing import Any, Callable, Iterator, Sequence, Tuple, TypeVar, cast

import numpy as np

__all__ = ["NORMAL_BLOCK", "SeededRng", "derive_seed", "lognormal_params"]

T = TypeVar("T")

#: Standard normals a block-drawn source takes from numpy per refill.
NORMAL_BLOCK = 256


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


def lognormal_params(mean: float, cv: float) -> Tuple[float, float]:
    """``(mu, sigma)`` of the log-normal with the given mean and CV."""
    if mean <= 0:
        raise ValueError("mean must be positive")
    if cv < 0:
        raise ValueError("cv must be non-negative")
    sigma2 = math.log(1.0 + cv * cv)
    return math.log(mean) - sigma2 / 2.0, math.sqrt(sigma2)


def _normal_blocks(standard_normal: Callable[[int], Any]) -> Iterator[float]:
    while True:
        yield from standard_normal(NORMAL_BLOCK).tolist()


class _ClaimedGenerator:
    """Stands in for the numpy generator of a claimed stream: any draw raises."""

    __slots__ = ("_name",)

    def __init__(self, name: str) -> None:
        self._name = name

    def __getattr__(self, attr: str) -> Any:
        raise RuntimeError(
            f"stream {self._name!r} is claimed by a block-drawn source; "
            "draw from that source or use another stream"
        )


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

    # -- hot-path sources -----------------------------------------------

    def claim_normals(self) -> Callable[[], float]:
        """Claim this stream; return a zero-argument standard-normal source.

        The source yields exactly the values successive ``normal()``
        calls would, but draws them ``NORMAL_BLOCK`` at a time.  After
        the claim every draw through this wrapper raises (see the module
        docstring), so only the caller may consume the stream.
        """
        blocks = _normal_blocks(self._gen.standard_normal)
        self._gen = cast(np.random.Generator, _ClaimedGenerator(self.name))
        return blocks.__next__

    def numpy_draws(self) -> Tuple[Callable[[], float], Callable[[], float]]:
        """The bound numpy ``(standard_normal, random)`` of this stream.

        For hot loops that must interleave distributions in a fixed
        order: each call is one scalar draw, identical to ``normal()``
        and ``random()`` without the wrapper's Python frame.  Does not
        claim the stream.
        """
        gen = self._gen
        return gen.standard_normal, gen.random

    # -- basic draws ----------------------------------------------------

    def uniform(self, low: float = 0.0, high: float = 1.0) -> float:
        return float(self._gen.uniform(low, high))

    def random(self) -> float:
        return float(self._gen.random())

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
        mu, sigma = lognormal_params(mean, cv)
        if cv == 0:
            return mean
        return float(self._gen.lognormal(mu, sigma))

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

    def __repr__(self) -> str:
        return f"<SeededRng {self.name!r} seed={self.seed}>"
