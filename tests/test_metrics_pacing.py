"""Tests for frame-pacing analysis."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import CloudSystem, SystemConfig, make_regulator
from repro.metrics.pacing import pacing_report
from repro.workloads import PRIVATE_CLOUD, Resolution


class TestPacingReport:
    def test_perfect_stream(self):
        report = pacing_report([i * 10.0 for i in range(100)])
        assert report.mean_gap_ms == 10.0
        assert report.jitter_ms == 0.0
        assert report.stutter_events == 0
        assert report.badness == 1.0
        assert report.mean_fps == pytest.approx(100.0)

    def test_single_stutter_detected(self):
        times = [i * 10.0 for i in range(50)]
        times = times[:25] + [t + 25.0 for t in times[25:]]  # one 35ms gap
        report = pacing_report(times)
        assert report.stutter_events == 1
        assert report.max_gap_ms == pytest.approx(35.0)

    def test_stutter_threshold_respected(self):
        times = [0.0, 10.0, 29.0, 39.0]  # one 19ms gap, factor 2 of median 10
        assert pacing_report(times, stutter_factor=2.0).stutter_events == 0
        assert pacing_report(times, stutter_factor=1.5).stutter_events == 1

    def test_stutter_rate_per_minute(self):
        # 60s of 10ms frames with 6 stutters -> 6 per minute
        times = []
        t = 0.0
        for i in range(6000):
            t += 25.0 if i % 1000 == 500 else 10.0
            times.append(t)
        report = pacing_report(times)
        assert report.stutter_rate_per_minute == pytest.approx(6.0, rel=0.05)

    def test_validation(self):
        with pytest.raises(ValueError):
            pacing_report([1.0, 2.0])
        with pytest.raises(ValueError):
            pacing_report([3.0, 2.0, 1.0])
        with pytest.raises(ValueError):
            pacing_report([1.0, 2.0, 3.0], stutter_factor=1.0)
        with pytest.raises(ValueError):
            pacing_report([1.0, 1.0, 1.0])  # zero median gap

    @given(
        gaps=st.lists(st.floats(min_value=0.5, max_value=100.0), min_size=3, max_size=200)
    )
    @settings(max_examples=80, deadline=None)
    def test_invariants(self, gaps):
        times = []
        t = 0.0
        for g in gaps:
            t += g
            times.append(t)
        report = pacing_report(times)
        assert report.median_gap_ms <= report.p99_gap_ms <= report.max_gap_ms
        assert report.badness >= 1.0 - 1e-9
        assert 0 <= report.stutter_events <= len(gaps)


class TestPacingOnRuns:
    def run(self, spec):
        config = SystemConfig("IM", PRIVATE_CLOUD, Resolution.R720P, seed=1,
                              duration_ms=10000, warmup_ms=1500)
        return CloudSystem(config, make_regulator(spec)).run()

    def test_odr_paces_more_evenly_than_noreg_at_client(self):
        """Regulated delivery has lower relative pacing badness than the
        free-running stream whose encoder queue breathes with load."""
        odr = pacing_report(self.run("ODR60").counter.times("decode"))
        noreg = pacing_report(self.run("NoReg").counter.times("decode"))
        assert odr.badness <= noreg.badness * 1.6  # at least comparable
        assert odr.stutter_rate_per_minute < 60

    def test_interval_grid_shows_in_render_pacing(self):
        result = self.run("Int60")
        report = pacing_report(result.counter.times("render"))
        # renders land on the 16.6ms grid: median gap is the interval
        assert report.median_gap_ms == pytest.approx(1000 / 60, rel=0.02)
