"""Tests for stage-time and frame-size models."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.simcore import SeededRng
from repro.workloads import FrameSizeModel, StageTimeModel


class TestStageTimeModelValidation:
    def test_negative_mean_rejected(self):
        with pytest.raises(ValueError):
            StageTimeModel(mean_ms=-1)

    def test_bad_spike_prob_rejected(self):
        with pytest.raises(ValueError):
            StageTimeModel(mean_ms=10, spike_prob=1.5)

    def test_alpha_at_most_one_rejected(self):
        with pytest.raises(ValueError):
            StageTimeModel(mean_ms=10, spike_prob=0.1, spike_scale_ms=5, spike_alpha=1.0)

    def test_bad_rho_rejected(self):
        with pytest.raises(ValueError):
            StageTimeModel(mean_ms=10, rho=1.0)

    def test_spike_budget_exceeding_mean_rejected(self):
        with pytest.raises(ValueError):
            StageTimeModel(mean_ms=1.0, spike_prob=0.5, spike_scale_ms=10, spike_alpha=2.0)


class TestStageTimeModelAnalytics:
    def test_spike_mean_formula(self):
        model = StageTimeModel(mean_ms=10, spike_prob=0.1, spike_scale_ms=6, spike_alpha=2.0)
        assert model.spike_mean_ms == pytest.approx(12.0)
        assert model.body_mean_ms == pytest.approx(10 - 1.2)

    def test_no_spikes_body_is_mean(self):
        model = StageTimeModel(mean_ms=8.0)
        assert model.spike_mean_ms == 0.0
        assert model.body_mean_ms == 8.0

    def test_scaled_preserves_shape(self):
        model = StageTimeModel(mean_ms=10, cv=0.3, spike_prob=0.1, spike_scale_ms=5)
        doubled = model.scaled(2.0)
        assert doubled.mean_ms == 20
        assert doubled.spike_scale_ms == 10
        assert doubled.cv == model.cv
        assert doubled.spike_prob == model.spike_prob

    def test_scaled_validation(self):
        with pytest.raises(ValueError):
            StageTimeModel(mean_ms=10).scaled(0)


class TestStageTimeSampler:
    def test_long_run_mean_matches_target(self):
        model = StageTimeModel(
            mean_ms=10.0, cv=0.35, spike_prob=0.1, spike_scale_ms=5.0, spike_alpha=2.2
        )
        sampler = model.sampler(SeededRng(42))
        draws = sampler.draw_many(60000)
        assert sum(draws) / len(draws) == pytest.approx(10.0, rel=0.05)

    def test_floor_respected(self):
        model = StageTimeModel(mean_ms=0.2, cv=1.0, floor_ms=0.1)
        sampler = model.sampler(SeededRng(7))
        assert all(d >= 0.1 for d in sampler.draw_many(2000))

    def test_deterministic_given_seed(self):
        model = StageTimeModel(mean_ms=5.0, cv=0.3)
        a = model.sampler(SeededRng(3)).draw_many(50)
        b = model.sampler(SeededRng(3)).draw_many(50)
        assert a == b

    def test_autocorrelation_positive(self):
        model = StageTimeModel(mean_ms=10.0, cv=0.4, rho=0.8)
        draws = model.sampler(SeededRng(11)).draw_many(20000)
        mu = sum(draws) / len(draws)
        num = sum((a - mu) * (b - mu) for a, b in zip(draws, draws[1:]))
        den = sum((d - mu) ** 2 for d in draws)
        lag1 = num / den
        assert lag1 > 0.5

    def test_zero_rho_uncorrelated(self):
        model = StageTimeModel(mean_ms=10.0, cv=0.4, rho=0.0)
        draws = model.sampler(SeededRng(13)).draw_many(20000)
        mu = sum(draws) / len(draws)
        num = sum((a - mu) * (b - mu) for a, b in zip(draws, draws[1:]))
        den = sum((d - mu) ** 2 for d in draws)
        assert abs(num / den) < 0.05

    def test_spike_tail_present(self):
        model = StageTimeModel(
            mean_ms=6.0, cv=0.3, spike_prob=0.12, spike_scale_ms=8.0, spike_alpha=1.8
        )
        draws = model.sampler(SeededRng(17)).draw_many(20000)
        above = sum(1 for d in draws if d > 16.6) / len(draws)
        # the paper's Fig. 4a: roughly 10-20% of frames well above 16.6 ms
        assert 0.05 < above < 0.25

    @given(
        mean=st.floats(min_value=1.0, max_value=50.0),
        cv=st.floats(min_value=0.05, max_value=0.8),
        seed=st.integers(min_value=0, max_value=10**6),
    )
    @settings(max_examples=40, deadline=None)
    def test_draws_always_positive(self, mean, cv, seed):
        model = StageTimeModel(mean_ms=mean, cv=cv)
        for d in model.sampler(SeededRng(seed)).draw_many(100):
            assert d > 0 and math.isfinite(d)


class TestFrameSizeModel:
    def test_validation(self):
        with pytest.raises(ValueError):
            FrameSizeModel(mean_kb=0)
        with pytest.raises(ValueError):
            FrameSizeModel(mean_kb=10, gop_length=0)
        with pytest.raises(ValueError):
            FrameSizeModel(mean_kb=10, i_frame_ratio=0.5)

    def test_p_frame_mean_weighting(self):
        model = FrameSizeModel(mean_kb=60, gop_length=30, i_frame_ratio=4.0)
        # 1 I-frame (4p) + 29 P-frames per GoP must average to 60
        p = model.p_frame_mean_kb
        assert (4 * p + 29 * p) / 30 == pytest.approx(60)

    def test_long_run_mean(self):
        model = FrameSizeModel(mean_kb=60, cv=0.25)
        sampler = model.sampler(SeededRng(5))
        sizes = [sampler.next() for _ in range(30000)]
        mean_kb = sum(sizes) / len(sizes) / 1024
        assert mean_kb == pytest.approx(60, rel=0.05)

    def test_i_frames_larger_on_average(self):
        model = FrameSizeModel(mean_kb=60, gop_length=10, i_frame_ratio=4.0, cv=0.1)
        sampler = model.sampler(SeededRng(9))
        sizes = [sampler.next() for _ in range(1000)]
        i_frames = sizes[::10]
        p_frames = [s for i, s in enumerate(sizes) if i % 10 != 0]
        assert sum(i_frames) / len(i_frames) > 2.5 * sum(p_frames) / len(p_frames)

    def test_sizes_positive_ints(self):
        sampler = FrameSizeModel(mean_kb=1, cv=0.5).sampler(SeededRng(3))
        for _ in range(100):
            size = sampler.next()
            assert isinstance(size, int) and size >= 1

    def test_scaled(self):
        model = FrameSizeModel(mean_kb=60)
        assert model.scaled(2.1).mean_kb == pytest.approx(126)
        with pytest.raises(ValueError):
            model.scaled(-1)
