"""Unit tests for ODR's FPS regulator clock (Algorithm 1)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import FpsRegulatorClock


def clock(target=60.0, **kwargs):
    kwargs.setdefault("pacing_margin", 0.0)
    return FpsRegulatorClock(target_fps=target, **kwargs)


class TestConstruction:
    def test_interval_from_target(self):
        assert clock(60).interval_ms == pytest.approx(1000 / 60)
        assert clock(30).interval_ms == pytest.approx(1000 / 30)

    def test_max_mode_has_no_interval(self):
        assert clock(None).interval_ms is None

    def test_pacing_margin_shrinks_interval(self):
        margined = FpsRegulatorClock(target_fps=60, pacing_margin=0.04)
        assert margined.interval_ms < 1000 / 60

    def test_validation(self):
        with pytest.raises(ValueError):
            FpsRegulatorClock(target_fps=0)
        with pytest.raises(ValueError):
            FpsRegulatorClock(target_fps=60, debt_window_ms=-1)
        with pytest.raises(ValueError):
            FpsRegulatorClock(target_fps=60, pacing_margin=-0.1)


class TestAlgorithm1:
    def test_fast_frame_sleeps_the_difference(self):
        c = clock(60)
        sleep = c.frame_processed(10.0)
        assert sleep == pytest.approx(1000 / 60 - 10.0)
        assert c.acc_delay_ms == 0.0

    def test_exactly_on_interval_no_sleep(self):
        c = clock(50)  # 20ms interval
        assert c.frame_processed(20.0) == 0.0

    def test_slow_frame_accumulates_debt(self):
        c = clock(60)  # 16.67ms
        assert c.frame_processed(25.0) == 0.0
        assert c.acc_delay_ms == pytest.approx(1000 / 60 - 25.0)
        assert c.accelerated_frames == 1

    def test_debt_repaid_by_fast_frames(self):
        c = clock(50)  # 20ms
        c.frame_processed(30.0)  # debt -10
        sleep = c.frame_processed(5.0)  # diff +15 -> acc +5
        assert sleep == pytest.approx(5.0)
        assert c.acc_delay_ms == 0.0

    def test_acceleration_runs_until_debt_repaid(self):
        c = clock(50)
        c.frame_processed(60.0)  # debt -40
        assert c.frame_processed(5.0) == 0.0  # -25
        assert c.frame_processed(5.0) == 0.0  # -10
        assert c.frame_processed(5.0) == pytest.approx(5.0)  # +5 -> sleep

    def test_max_mode_never_sleeps(self):
        c = clock(None)
        for elapsed in (1.0, 100.0, 0.1):
            assert c.frame_processed(elapsed) == 0.0

    def test_debt_window_bounds_catchup(self):
        c = clock(50, debt_window_ms=40.0)
        c.frame_processed(500.0)  # enormous stall
        assert c.acc_delay_ms == -40.0

    def test_no_accelerate_ablation_forgets_debt(self):
        c = clock(50, accelerate=False)
        c.frame_processed(30.0)
        assert c.acc_delay_ms == 0.0
        # next fast frame sleeps the full difference (no catch-up)
        assert c.frame_processed(5.0) == pytest.approx(15.0)

    def test_cancel_debt(self):
        c = clock(50)
        c.frame_processed(30.0)
        c.cancel_debt()
        assert c.acc_delay_ms == 0.0

    def test_negative_elapsed_rejected(self):
        with pytest.raises(ValueError):
            clock(60).frame_processed(-1.0)

    def test_sleep_counter(self):
        c = clock(50)
        c.frame_processed(5.0)
        c.frame_processed(5.0)
        assert c.sleeps == 2


class TestLongRunRate:
    """The regulator's whole point: long-run rate == target."""

    def test_steady_workload_hits_target(self):
        c = clock(60)
        total_time = 0.0
        frames = 0
        for _ in range(1000):
            elapsed = 10.0
            sleep = c.frame_processed(elapsed)
            total_time += elapsed + sleep
            frames += 1
        assert frames / (total_time / 1000.0) == pytest.approx(60.0, rel=0.01)

    def test_spiky_workload_still_hits_target(self):
        """10% of frames take 3x the interval; acceleration recovers."""
        c = clock(60)
        total_time = 0.0
        frames = 0
        for i in range(3000):
            elapsed = 50.0 if i % 10 == 0 else 8.0
            sleep = c.frame_processed(elapsed)
            total_time += elapsed + sleep
            frames += 1
        rate = frames / (total_time / 1000.0)
        assert rate == pytest.approx(60.0, rel=0.02)

    def test_delay_only_ablation_undershoots_on_spikes(self):
        c = clock(60, accelerate=False)
        total_time = 0.0
        for i in range(3000):
            elapsed = 50.0 if i % 10 == 0 else 8.0
            total_time += elapsed + c.frame_processed(elapsed)
        rate = 3000 / (total_time / 1000.0)
        assert rate < 55.0  # the Int-style failure mode

    @given(
        target=st.sampled_from([30.0, 60.0, 90.0]),
        seed=st.integers(min_value=0, max_value=1000),
    )
    @settings(max_examples=30, deadline=None)
    def test_rate_never_exceeds_target_with_feasible_workload(self, target, seed):
        import random  # analyzer: allow=P2 -- seeded jitter drives the clock, not sim randomness

        rng = random.Random(seed)
        c = FpsRegulatorClock(target_fps=target, pacing_margin=0.0)
        total_time = 0.0
        n = 800
        for _ in range(n):
            elapsed = rng.uniform(0.2, 0.9) * (1000.0 / target)
            total_time += elapsed + c.frame_processed(elapsed)
        rate = n / (total_time / 1000.0)
        assert rate <= target * 1.01

    @given(seed=st.integers(min_value=0, max_value=1000))
    @settings(max_examples=30, deadline=None)
    def test_acc_delay_bounded_below_by_debt_window(self, seed):
        import random  # analyzer: allow=P2 -- seeded jitter drives the clock, not sim randomness

        rng = random.Random(seed)
        c = clock(60, debt_window_ms=200.0)
        for _ in range(500):
            c.frame_processed(rng.uniform(0.0, 100.0))
            assert c.acc_delay_ms >= -200.0
            assert c.acc_delay_ms <= 0.0 or c.acc_delay_ms == 0.0
