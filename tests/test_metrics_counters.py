"""Tests for FPS counters and gap computation."""

import pytest

from repro.metrics import FpsCounter


def regular_times(fps, duration_ms, offset=0.0):
    gap = 1000.0 / fps
    n = int(duration_ms / gap)
    return [offset + i * gap for i in range(n)]


class TestFpsCounter:
    def test_record_and_count(self):
        counter = FpsCounter()
        counter.record("render", 1.0)
        counter.record("render", 2.0)
        counter.record("decode", 3.0)
        assert counter.count("render") == 2
        assert counter.count("decode") == 1
        assert counter.count("missing") == 0

    def test_mean_fps_regular_stream(self):
        counter = FpsCounter()
        for t in regular_times(60, 5000):
            counter.record("decode", t)
        assert counter.mean_fps("decode", 0, 5000) == pytest.approx(60, abs=0.5)

    def test_mean_fps_respects_range(self):
        counter = FpsCounter()
        for t in regular_times(100, 1000):  # only first second
            counter.record("render", t)
        assert counter.mean_fps("render", 0, 2000) == pytest.approx(50, abs=1)

    def test_mean_fps_empty_window_raises(self):
        with pytest.raises(ValueError):
            FpsCounter().mean_fps("render", 5, 5)

    def test_fps_series_scaling(self):
        counter = FpsCounter(window_ms=500.0)
        for t in regular_times(60, 2000):
            counter.record("decode", t)
        series = counter.fps_series("decode", 0, 2000)
        assert len(series) == 4
        for fps in series:
            assert fps == pytest.approx(60, abs=2)


class TestFpsGap:
    def test_gap_between_stages(self):
        counter = FpsCounter()
        for t in regular_times(180, 5000):
            counter.record("render", t)
        for t in regular_times(90, 5000):
            counter.record("decode", t)
        gap = counter.fps_gap(0, 5000)
        assert gap.mean_gap == pytest.approx(90, abs=2)
        assert gap.max_gap >= gap.mean_gap

    def test_zero_gap_when_rates_match(self):
        counter = FpsCounter()
        for t in regular_times(60, 5000):
            counter.record("render", t)
            counter.record("decode", t + 5.0)
        gap = counter.fps_gap(0, 5000)
        assert gap.mean_gap < 1.5

    def test_negative_gaps_clamped(self):
        counter = FpsCounter()
        for t in regular_times(30, 3000):
            counter.record("render", t)
        for t in regular_times(60, 3000):
            counter.record("decode", t)
        gap = counter.fps_gap(0, 3000)
        assert gap.mean_gap == 0.0

    def test_gap_series_length(self):
        counter = FpsCounter()
        for t in regular_times(60, 4000):
            counter.record("render", t)
            counter.record("decode", t)
        gap = counter.fps_gap(0, 4000)
        assert len(gap.series) == 4

    def test_gap_without_data_raises(self):
        with pytest.raises(ValueError):
            FpsCounter().fps_gap(0, 10)
