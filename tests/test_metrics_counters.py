"""Tests for FPS counters and gap computation.

Stage completions are the ends of the run's busy intervals, so each test
feeds them through an :class:`IntervalTrace`, as the pipeline stages do.
"""

import pytest

from repro.metrics import FpsCounter
from repro.simcore import IntervalTrace

#: Busy time before each recorded completion (any positive length).
BUSY_MS = 0.5


def regular_times(fps, duration_ms, offset=0.0):
    gap = 1000.0 / fps
    n = int(duration_ms / gap)
    return [offset + i * gap for i in range(n)]


def complete(counter, stage, *times):
    """Record a busy interval of ``stage`` ending at each of ``times``."""
    for t in times:
        counter.trace.record(stage, t - BUSY_MS, t)


def new_counter(**kwargs):
    return FpsCounter(IntervalTrace(), **kwargs)


class TestFpsCounter:
    def test_record_and_count(self):
        counter = new_counter()
        complete(counter, "render", 1.0, 2.0)
        complete(counter, "decode", 3.0)
        assert counter.count("render") == 2
        assert counter.count("decode") == 1
        assert counter.count("missing") == 0
        assert counter.times("render") == [1.0, 2.0]

    def test_counts_follow_the_trace_during_a_run(self):
        counter = new_counter()
        complete(counter, "decode", 1.0)
        assert counter.count("decode") == 1
        complete(counter, "decode", 2.0)
        assert counter.count("decode") == 2

    def test_display_is_the_counter_own_list(self):
        counter = new_counter()
        counter.record_display(4.0)
        counter.record_display(5.0)
        assert counter.count("display") == 2
        assert counter.times("display") == [4.0, 5.0]
        assert len(counter.trace) == 0

    def test_times_is_a_copy(self):
        counter = new_counter()
        complete(counter, "render", 1.0)
        counter.times("render").append(9.0)
        assert counter.times("render") == [1.0]

    def test_mean_fps_regular_stream(self):
        counter = new_counter()
        complete(counter, "decode", *regular_times(60, 5000))
        assert counter.mean_fps("decode", 0, 5000) == pytest.approx(60, abs=0.5)

    def test_mean_fps_respects_range(self):
        counter = new_counter()
        complete(counter, "render", *regular_times(100, 1000))  # only first second
        assert counter.mean_fps("render", 0, 2000) == pytest.approx(50, abs=1)

    def test_mean_fps_empty_window_raises(self):
        with pytest.raises(ValueError):
            new_counter().mean_fps("render", 5, 5)

    def test_fps_series_scaling(self):
        counter = new_counter(window_ms=500.0)
        complete(counter, "decode", *regular_times(60, 2000))
        series = counter.fps_series("decode", 0, 2000)
        assert len(series) == 4
        for fps in series:
            assert fps == pytest.approx(60, abs=2)


class TestFpsGap:
    def test_gap_between_stages(self):
        counter = new_counter()
        complete(counter, "render", *regular_times(180, 5000))
        complete(counter, "decode", *regular_times(90, 5000))
        gap = counter.fps_gap(0, 5000)
        assert gap.mean_gap == pytest.approx(90, abs=2)
        assert gap.max_gap >= gap.mean_gap

    def test_zero_gap_when_rates_match(self):
        counter = new_counter()
        for t in regular_times(60, 5000):
            complete(counter, "render", t)
            complete(counter, "decode", t + 5.0)
        gap = counter.fps_gap(0, 5000)
        assert gap.mean_gap < 1.5

    def test_negative_gaps_clamped(self):
        counter = new_counter()
        complete(counter, "render", *regular_times(30, 3000))
        complete(counter, "decode", *regular_times(60, 3000))
        gap = counter.fps_gap(0, 3000)
        assert gap.mean_gap == 0.0

    def test_gap_series_length(self):
        counter = new_counter()
        for t in regular_times(60, 4000):
            complete(counter, "render", t)
            complete(counter, "decode", t)
        gap = counter.fps_gap(0, 4000)
        assert len(gap.series) == 4

    def test_gap_without_data_raises(self):
        with pytest.raises(ValueError):
            new_counter().fps_gap(0, 10)
