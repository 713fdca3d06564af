"""Stochastic models for frame processing times and frame sizes.

:class:`StageTimeModel` generates per-frame service times for one
pipeline stage as::

    time = body + spike

* ``body`` is log-normal with an AR(1)-correlated latent Gaussian, so
  successive frames drift smoothly (scene complexity changes slowly);
* ``spike`` is an occasional Pareto excursion (sudden scene changes,
  cloud performance variation — the "suddenly-increased processing
  time" of Sec. 4.1).

The constructor takes the *total* target mean; the body mean is derived
by subtracting the analytic spike contribution, so the long-run average
service time equals ``mean_ms`` regardless of spike settings.  That lets
benchmark profiles be calibrated directly against the paper's FPS
numbers (stage FPS ≈ 1000 / mean_ms when the stage is the bottleneck).

:class:`FrameSizeModel` generates encoded frame sizes with a video
group-of-pictures (GoP) structure: every ``gop_length``-th frame is an
I-frame several times larger than the P-frames around it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

from repro.simcore.rng import SeededRng, lognormal_params

__all__ = ["FrameSizeModel", "FrameSizeSampler", "StageTimeModel", "StageTimeSampler"]


@dataclass(frozen=True)
class StageTimeModel:
    """Distribution of one stage's per-frame processing time.

    Parameters
    ----------
    mean_ms:
        Long-run mean of the generated times (body + spikes).
    cv:
        Coefficient of variation of the log-normal body.
    spike_prob:
        Per-frame probability of a Pareto spike.
    spike_scale_ms, spike_alpha:
        Pareto minimum and shape of the spike magnitude.  ``alpha`` must
        exceed 1 so the spike mean is finite.
    rho:
        AR(1) coefficient of the latent body process in [0, 1).
    floor_ms:
        Hard lower bound on generated times (no stage is free).
    """

    mean_ms: float
    cv: float = 0.3
    spike_prob: float = 0.0
    spike_scale_ms: float = 0.0
    spike_alpha: float = 2.0
    rho: float = 0.5
    floor_ms: float = 0.05

    def __post_init__(self) -> None:
        if self.mean_ms <= 0:
            raise ValueError("mean_ms must be positive")
        if not 0 <= self.spike_prob < 1:
            raise ValueError("spike_prob must be in [0, 1)")
        if self.spike_prob > 0 and self.spike_alpha <= 1:
            raise ValueError("spike_alpha must exceed 1 for a finite spike mean")
        if not 0 <= self.rho < 1:
            raise ValueError("rho must be in [0, 1)")
        if self.body_mean_ms <= 0:
            raise ValueError(
                "spike contribution exceeds total mean; reduce spike_prob/scale"
            )

    @property
    def spike_mean_ms(self) -> float:
        """Analytic mean of one spike (0 when spikes are disabled)."""
        # Sentinel check on a configured parameter (exact literal 0.0 set
        # by the user), not arithmetic on a simulation timestamp.
        if self.spike_prob == 0 or self.spike_scale_ms == 0:  # analyzer: allow=D2 -- configured sentinel, see above
            return 0.0
        return self.spike_scale_ms * self.spike_alpha / (self.spike_alpha - 1.0)

    @property
    def body_mean_ms(self) -> float:
        """Mean of the log-normal body after budgeting for spikes."""
        return self.mean_ms - self.spike_prob * self.spike_mean_ms

    def scaled(self, factor: float) -> "StageTimeModel":
        """A copy with all time parameters multiplied by ``factor``.

        Used for resolution scaling (1080p frames take proportionally
        longer) and platform scaling (GCE hardware differs from the
        private cloud's).
        """
        if factor <= 0:
            raise ValueError("scale factor must be positive")
        return StageTimeModel(
            mean_ms=self.mean_ms * factor,
            cv=self.cv,
            spike_prob=self.spike_prob,
            spike_scale_ms=self.spike_scale_ms * factor,
            spike_alpha=self.spike_alpha,
            rho=self.rho,
            floor_ms=self.floor_ms,
        )

    def sampler(self, rng: SeededRng) -> "StageTimeSampler":
        """Create a stateful per-run sampler drawing from ``rng``."""
        return StageTimeSampler(self, rng)


class StageTimeSampler:
    """Stateful AR(1) log-normal + Pareto-spike time generator.

    Without spikes the stream feeds only the AR(1) normals, so the
    sampler claims it as a block-drawn source and binds :meth:`next` to
    the body draw alone; with spikes it calls the stream's bound numpy
    draws in the scalar order (normal, spike Bernoulli, Pareto) — see
    :mod:`repro.simcore.rng`.
    """

    #: Draw the next frame's processing time (ms).
    next: Callable[[], float]

    def __init__(self, model: StageTimeModel, rng: SeededRng):
        self.model = model
        self._rng = rng
        # Log-normal parameters for the body with the requested mean/cv.
        cv = max(model.cv, 1e-9)
        self._sigma2 = math.log(1.0 + cv * cv)
        self._mu = math.log(model.body_mean_ms) - self._sigma2 / 2.0
        self._sigma = math.sqrt(self._sigma2)
        self._rho = model.rho
        self._innovation = math.sqrt(1.0 - model.rho * model.rho)
        self._floor = model.floor_ms
        self._spike_prob = model.spike_prob
        self._random: Callable[[], float]
        if model.spike_prob > 0:
            self._normal, self._random = rng.numpy_draws()
            self.next = self._next_spiky
        else:
            self._normal = rng.claim_normals()
            self.next = self._next_body
        # Latent standard-normal AR(1) state, initialized stationary.
        self._z = self._normal()

    def _next_body(self) -> float:
        self._z = z = self._rho * self._z + self._innovation * self._normal()
        time = math.exp(self._mu + self._sigma * z)
        floor = self._floor
        return floor if floor > time else time

    def _next_spiky(self) -> float:
        self._z = z = self._rho * self._z + self._innovation * self._normal()
        time = math.exp(self._mu + self._sigma * z)
        if self._random() < self._spike_prob:
            model = self.model
            time += self._rng.pareto(model.spike_scale_ms, model.spike_alpha)
        floor = self._floor
        return floor if floor > time else time

    def draw_many(self, n: int) -> list:
        """Convenience: a list of ``n`` consecutive draws."""
        return [self.next() for _ in range(n)]


@dataclass(frozen=True)
class FrameSizeModel:
    """Encoded frame sizes with a GoP (I/P-frame) structure.

    Parameters
    ----------
    mean_kb:
        Long-run mean encoded size in kilobytes.
    cv:
        Coefficient of variation of individual frame sizes.
    gop_length:
        An I-frame every ``gop_length`` frames.
    i_frame_ratio:
        I-frame mean size relative to P-frame mean size.
    """

    mean_kb: float
    cv: float = 0.25
    gop_length: int = 30
    i_frame_ratio: float = 4.0

    def __post_init__(self) -> None:
        if self.mean_kb <= 0:
            raise ValueError("mean_kb must be positive")
        if self.gop_length < 1:
            raise ValueError("gop_length must be >= 1")
        if self.i_frame_ratio < 1:
            raise ValueError("i_frame_ratio must be >= 1")

    @property
    def p_frame_mean_kb(self) -> float:
        """Mean P-frame size so the GoP average equals ``mean_kb``."""
        # One I-frame of ratio*p plus (gop-1) P-frames of p per GoP.
        weight = (self.i_frame_ratio + (self.gop_length - 1)) / self.gop_length
        return self.mean_kb / weight

    def scaled(self, factor: float) -> "FrameSizeModel":
        """A copy with the mean size multiplied by ``factor`` (resolution)."""
        if factor <= 0:
            raise ValueError("scale factor must be positive")
        return FrameSizeModel(
            mean_kb=self.mean_kb * factor,
            cv=self.cv,
            gop_length=self.gop_length,
            i_frame_ratio=self.i_frame_ratio,
        )

    def sampler(self, rng: SeededRng) -> "FrameSizeSampler":
        return FrameSizeSampler(self, rng)


class FrameSizeSampler:
    """Stateful GoP-position-aware frame size generator.

    Each size is ``exp(mu + sigma*z)`` on a block-drawn standard normal
    ``z`` — the same value :meth:`SeededRng.lognormal_mean_cv` returns —
    with ``mu``/``sigma`` precomputed for I- and P-frames.  With
    ``cv == 0`` every frame is its mean and nothing is drawn.
    """

    def __init__(self, model: FrameSizeModel, rng: SeededRng):
        self.model = model
        self._position = 0
        self._gop_length = model.gop_length
        p_mean = model.p_frame_mean_kb
        self._i_mean = p_mean * model.i_frame_ratio
        self._p_mean = p_mean
        self._i_mu, self._sigma = lognormal_params(self._i_mean, model.cv)
        self._p_mu, _ = lognormal_params(self._p_mean, model.cv)
        self._normal: Optional[Callable[[], float]] = (
            rng.claim_normals() if model.cv != 0 else None
        )

    def next(self) -> int:
        """Size in bytes of the next encoded frame."""
        is_i_frame = self._position % self._gop_length == 0
        self._position += 1
        if self._normal is None:
            kb = self._i_mean if is_i_frame else self._p_mean
        else:
            mu = self._i_mu if is_i_frame else self._p_mu
            kb = math.exp(mu + self._sigma * self._normal())
        return max(1, int(kb * 1024))
