"""Block-drawn samplers give exactly the scalar draws they replace.

Each sampler below takes its standard normals from a claimed,
block-drawn stream (``SeededRng.claim_normals``) or from the stream's
bound numpy draws.  The reference is the scalar formula the samplers
used to evaluate, drawn through the ``SeededRng`` wrapper on a twin
stream of the same seed.  Reordering, skipping or sharing a draw makes
the sequences differ.
"""

import math

import pytest

from repro.pipeline import CloudSystem, SystemConfig
from repro.regulators import make_regulator
from repro.simcore import SeededRng
from repro.workloads import BENCHMARKS, PLATFORMS, FrameSizeModel, Resolution

SEEDS = range(20)
DRAWS = 5000


def scalar_stage_times(model, rng, n):
    """The per-draw ``StageTimeSampler`` formula on wrapper draws."""
    cv = max(model.cv, 1e-9)
    sigma2 = math.log(1.0 + cv * cv)
    mu = math.log(model.body_mean_ms) - sigma2 / 2.0
    sigma = math.sqrt(sigma2)
    rho = model.rho
    z = rng.normal()
    out = []
    for _ in range(n):
        z = rho * z + math.sqrt(1.0 - rho * rho) * rng.normal()
        time = math.exp(mu + sigma * z)
        if model.spike_prob > 0 and rng.bernoulli(model.spike_prob):
            time += rng.pareto(model.spike_scale_ms, model.spike_alpha)
        out.append(max(time, model.floor_ms))
    return out


def scalar_frame_sizes(model, rng, n):
    """The per-draw ``FrameSizeSampler`` formula on wrapper draws."""
    out = []
    for position in range(n):
        is_i_frame = position % model.gop_length == 0
        mean = model.p_frame_mean_kb * (model.i_frame_ratio if is_i_frame else 1.0)
        out.append(max(1, int(rng.lognormal_mean_cv(mean, model.cv) * 1024)))
    return out


@pytest.mark.parametrize("stage", ["copy", "decode"])
@pytest.mark.parametrize("name", sorted(BENCHMARKS))
def test_block_drawn_stage_sampler_matches_scalar_draws(name, stage):
    model = getattr(BENCHMARKS[name], stage)
    assert model.spike_prob == 0  # a single-distribution stream
    for seed in SEEDS:
        sampler = model.sampler(SeededRng(seed))
        draws = [sampler.next() for _ in range(DRAWS)]
        assert draws == scalar_stage_times(model, SeededRng(seed), DRAWS)


@pytest.mark.parametrize("stage", ["render", "encode"])
def test_spiky_stage_sampler_keeps_scalar_draw_order(stage):
    model = getattr(BENCHMARKS["IM"], stage)
    assert model.spike_prob > 0  # normal, Bernoulli and Pareto interleave
    for seed in range(5):
        sampler = model.sampler(SeededRng(seed))
        draws = [sampler.next() for _ in range(2000)]
        assert draws == scalar_stage_times(model, SeededRng(seed), 2000)


@pytest.mark.parametrize("cv", [0.25, 0.0])
def test_frame_size_sampler_matches_scalar_draws(cv):
    model = FrameSizeModel(mean_kb=62.0, cv=cv, gop_length=7)
    for seed in SEEDS:
        sampler = model.sampler(SeededRng(seed))
        draws = [sampler.next() for _ in range(DRAWS)]
        assert draws == scalar_frame_sizes(model, SeededRng(seed), DRAWS)


def test_frame_size_sampler_at_zero_cv_draws_nothing():
    rng = SeededRng(3)
    FrameSizeModel(mean_kb=62.0, cv=0.0).sampler(rng).next()
    assert rng.random() == SeededRng(3).random()  # unclaimed, undrawn


@pytest.mark.parametrize("platform", sorted(PLATFORMS))
def test_network_jitter_matches_scalar_draws(platform):
    profile = PLATFORMS[platform]
    assert profile.transmit_jitter_cv > 0
    sizes = [1 + (37 * i) % 400_000 for i in range(DRAWS)]
    for seed in SEEDS:
        config = SystemConfig("IM", profile, Resolution("720p"), seed=seed)
        network = CloudSystem(config, make_regulator("NoReg")).network
        twin = SeededRng(seed).child("network", "jitter")
        expected = [
            profile.transmit_ms(size) * twin.lognormal_mean_cv(1.0, profile.transmit_jitter_cv)
            + network.PER_FRAME_OVERHEAD_MS
            for size in sizes
        ]
        assert [network.serialize_ms(size) for size in sizes] == expected
