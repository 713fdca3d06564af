"""Tests for MtP latency tracking and windowed QoS checks."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.metrics import MtpLatencyTracker, qos_satisfaction


class TestMtpLatencyTracker:
    def test_single_sample(self):
        tracker = MtpLatencyTracker()
        tracker.input_issued(1, 100.0)
        closed = tracker.frame_displayed([1], 150.0)
        assert len(closed) == 1
        assert closed[0].latency_ms == 50.0
        assert [s.latency_ms for s in tracker.samples] == [50.0]

    def test_input_combining_closes_multiple(self):
        tracker = MtpLatencyTracker()
        tracker.input_issued(1, 100.0)
        tracker.input_issued(2, 110.0)
        closed = tracker.frame_displayed([1, 2], 160.0)
        assert sorted(s.latency_ms for s in closed) == [50.0, 60.0]

    def test_first_display_wins(self):
        tracker = MtpLatencyTracker()
        tracker.input_issued(1, 0.0)
        tracker.frame_displayed([1], 30.0)
        again = tracker.frame_displayed([1], 60.0)
        assert again == []
        assert [s.latency_ms for s in tracker.samples] == [30.0]

    def test_unknown_input_ignored(self):
        tracker = MtpLatencyTracker()
        assert tracker.frame_displayed([42], 10.0) == []

    def test_duplicate_input_id_raises(self):
        tracker = MtpLatencyTracker()
        tracker.input_issued(1, 0.0)
        with pytest.raises(ValueError):
            tracker.input_issued(1, 5.0)

    def test_display_before_issue_raises(self):
        tracker = MtpLatencyTracker()
        tracker.input_issued(1, 100.0)
        with pytest.raises(ValueError):
            tracker.frame_displayed([1], 50.0)

    def test_open_count(self):
        tracker = MtpLatencyTracker()
        tracker.input_issued(1, 0.0)
        tracker.input_issued(2, 0.0)
        tracker.frame_displayed([1], 10.0)
        assert tracker.open_count == 1

    @given(
        issue_times=st.lists(
            st.floats(min_value=0, max_value=1e4), min_size=1, max_size=30, unique=True
        ),
        delay=st.floats(min_value=0.1, max_value=500),
    )
    @settings(max_examples=60, deadline=None)
    def test_latency_always_equals_delay(self, issue_times, delay):
        tracker = MtpLatencyTracker()
        for i, t in enumerate(issue_times):
            tracker.input_issued(i, t)
            tracker.frame_displayed([i], t + delay)
        for sample in tracker.samples:
            assert sample.latency_ms == pytest.approx(delay)


class TestQosSatisfaction:
    def make_stream(self, fps, duration_ms):
        gap = 1000.0 / fps
        return [i * gap for i in range(int(duration_ms / gap))]

    def test_steady_stream_meets_target(self):
        report = qos_satisfaction(self.make_stream(60, 10000), 60, 0, 10000)
        assert report.satisfaction == 1.0

    def test_slow_stream_fails_target(self):
        report = qos_satisfaction(self.make_stream(30, 10000), 60, 0, 10000)
        assert report.satisfaction < 0.2

    def test_stall_detected(self):
        # steady 60 FPS except for a 400ms stall at 5s
        times = [t for t in self.make_stream(60, 10000) if not 5000 <= t < 5400]
        report = qos_satisfaction(times, 60, 0, 10000)
        assert report.satisfaction < 1.0
        assert report.worst_window_fps < 30

    def test_window_count(self):
        report = qos_satisfaction(self.make_stream(60, 1000), 60, 0, 1000, window_ms=200)
        assert report.n_windows == 5

    def test_bad_target_raises(self):
        with pytest.raises(ValueError):
            qos_satisfaction([1.0], 0, 0, 100)

    def test_satisfaction_without_windows_raises(self):
        report = qos_satisfaction([], 60, 0, 100)
        with pytest.raises(ValueError):
            _ = report.satisfaction

    def test_tolerance_allows_boundary_jitter(self):
        # exactly-at-target stream shifted by half a frame
        times = [t + 8.0 for t in self.make_stream(60, 10000)]
        report = qos_satisfaction(times, 60, 0, 10000)
        assert report.satisfaction > 0.95
