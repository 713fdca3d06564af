"""Tests for busy-interval tracing and the overlap profile."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.simcore import IntervalTrace, SeededRng
from repro.simcore.tracing import TraceRecord, overlap_profile, windowed_counts


class TestIntervalTrace:
    def test_record_and_filter(self):
        trace = IntervalTrace()
        trace.record("render", 0, 5)
        trace.record("encode", 3, 9)
        assert len(trace) == 2
        assert [r.stage for r in trace.records("render")] == ["render"]
        assert trace.stages() == ["encode", "render"]

    def test_zero_length_intervals_skipped(self):
        trace = IntervalTrace()
        trace.record("render", 5, 5)
        assert len(trace) == 0

    def test_backwards_interval_rejected(self):
        trace = IntervalTrace()
        with pytest.raises(ValueError):
            trace.record("render", 5, 4)

    def test_busy_time_with_clipping(self):
        trace = IntervalTrace()
        trace.record("render", 0, 10)
        trace.record("render", 20, 30)
        assert trace.busy_time("render") == 20
        assert trace.busy_time("render", start=5, end=25) == 10

    def test_utilization(self):
        trace = IntervalTrace()
        trace.record("encode", 0, 25)
        assert trace.utilization("encode", 0, 100) == 0.25

    def test_utilization_empty_window_raises(self):
        with pytest.raises(ValueError):
            IntervalTrace().utilization("x", 5, 5)

    def test_record_duration(self):
        trace = IntervalTrace()
        trace.record("net", 2, 9)
        assert trace.records()[0].duration == 7

    def test_records_preserve_global_insertion_order(self):
        trace = IntervalTrace()
        trace.record("b", 0, 1)
        trace.record("a", 1, 2)
        trace.record("b", 2, 3)
        assert [(r.stage, r.start) for r in trace.records()] == [
            ("b", 0), ("a", 1), ("b", 2)
        ]
        assert [r.start for r in trace.records("b")] == [0, 2]

    def test_per_stage_queries_match_linear_scan(self):
        trace = IntervalTrace()
        for i in range(50):
            trace.record(f"stage{i % 5}", i, i + 0.5)
        for stage in trace.stages():
            expected = sum(
                r.duration for r in trace.records() if r.stage == stage
            )
            assert trace.busy_time(stage) == pytest.approx(expected)
        assert trace.busy_time("absent") == 0.0
        assert trace.records("absent") == []


def _reference_overlap_profile(records, stages, start, end):
    """The overlap sweep over ``TraceRecord`` objects, for comparison."""
    wanted = set(stages)
    deltas = []
    for r in records:
        if r.stage not in wanted:
            continue
        lo = max(r.start, start)
        hi = min(r.end, end)
        if hi > lo:
            deltas.append((lo, +1))
            deltas.append((hi, -1))
    profile = {k: 0.0 for k in range(len(stages) + 1)}
    if not deltas:
        profile[0] = 1.0
        return profile
    deltas.sort()
    span = end - start
    level = 0
    prev = start
    for time, delta in deltas:
        if time > prev:
            profile[min(level, len(stages))] += (time - prev) / span
        level += delta
        prev = time
    if end > prev:
        profile[min(level, len(stages))] += (end - prev) / span
    return profile


class TestTupleStorageMatchesReference:
    """The tuple-backed trace answers exactly as a list of records would."""

    STAGES = ["render", "copy", "encode", "transmit", "decode"]

    @pytest.mark.parametrize("seed", range(10))
    def test_random_trace_queries_equal_reference(self, seed):
        rng = SeededRng(seed)
        trace = IntervalTrace()
        reference = []
        for _ in range(400):
            stage = rng.choice(self.STAGES)
            start = rng.uniform(0.0, 1000.0)
            end = start if rng.bernoulli(0.1) else start + rng.exponential(8.0)
            trace.record(stage, start, end)
            if end > start:
                reference.append(TraceRecord(stage, start, end))

        assert trace.records() == reference
        assert len(trace) == len(reference)
        for stage in self.STAGES:
            mine = [r for r in reference if r.stage == stage]
            assert trace.records(stage) == mine
            for lo, hi in [(0.0, float("inf")), (100.0, 350.0), (990.0, 1200.0)]:
                expected = 0.0
                for r in mine:
                    a, b = max(r.start, lo), min(r.end, hi)
                    if b > a:
                        expected += b - a
                assert trace.busy_time(stage, lo, hi) == expected
            assert trace.utilization(stage, 100.0, 350.0) == (
                trace.busy_time(stage, 100.0, 350.0) / 250.0
            )
        for stages in (["render", "copy", "encode"], ["transmit"], self.STAGES):
            assert overlap_profile(trace, stages, 50.0, 900.0) == (
                _reference_overlap_profile(reference, stages, 50.0, 900.0)
            )

    def test_backwards_interval_raises_and_records_nothing(self):
        trace = IntervalTrace()
        trace.record("render", 1.0, 2.0)
        with pytest.raises(ValueError):
            trace.record("render", 5.0, 4.999)
        assert trace.records() == [TraceRecord("render", 1.0, 2.0)]


class TestOverlapProfile:
    def test_disjoint_intervals_never_overlap(self):
        trace = IntervalTrace()
        trace.record("a", 0, 10)
        trace.record("b", 10, 20)
        profile = overlap_profile(trace, ["a", "b"], 0, 20)
        assert profile[1] == pytest.approx(1.0)
        assert profile[2] == pytest.approx(0.0)

    def test_full_overlap(self):
        trace = IntervalTrace()
        trace.record("a", 0, 10)
        trace.record("b", 0, 10)
        profile = overlap_profile(trace, ["a", "b"], 0, 10)
        assert profile[2] == pytest.approx(1.0)

    def test_partial_overlap(self):
        trace = IntervalTrace()
        trace.record("a", 0, 6)
        trace.record("b", 4, 10)
        profile = overlap_profile(trace, ["a", "b"], 0, 10)
        assert profile[0] == pytest.approx(0.0)
        assert profile[1] == pytest.approx(0.8)
        assert profile[2] == pytest.approx(0.2)

    def test_idle_time_counted_as_zero_level(self):
        trace = IntervalTrace()
        trace.record("a", 2, 4)
        profile = overlap_profile(trace, ["a"], 0, 10)
        assert profile[0] == pytest.approx(0.8)
        assert profile[1] == pytest.approx(0.2)

    def test_unlisted_stage_ignored(self):
        trace = IntervalTrace()
        trace.record("a", 0, 10)
        trace.record("other", 0, 10)
        profile = overlap_profile(trace, ["a"], 0, 10)
        assert profile[1] == pytest.approx(1.0)

    def test_empty_trace_all_idle(self):
        profile = overlap_profile(IntervalTrace(), ["a", "b"], 0, 10)
        assert profile[0] == 1.0

    def test_empty_window_raises(self):
        with pytest.raises(ValueError):
            overlap_profile(IntervalTrace(), ["a"], 5, 5)

    def test_interval_straddling_window_start_is_clipped(self):
        trace = IntervalTrace()
        trace.record("a", -5, 5)
        profile = overlap_profile(trace, ["a"], 0, 10)
        assert profile[1] == pytest.approx(0.5)
        assert profile[0] == pytest.approx(0.5)

    def test_interval_straddling_window_end_is_clipped(self):
        trace = IntervalTrace()
        trace.record("a", 8, 15)
        profile = overlap_profile(trace, ["a"], 0, 10)
        assert profile[1] == pytest.approx(0.2)

    def test_interval_spanning_whole_window(self):
        trace = IntervalTrace()
        trace.record("a", -10, 20)
        profile = overlap_profile(trace, ["a"], 0, 10)
        assert profile[1] == pytest.approx(1.0)
        assert profile[0] == pytest.approx(0.0)

    def test_interval_clipped_to_zero_length_contributes_nothing(self):
        # Entirely outside [start, end): clips to an empty interval.
        trace = IntervalTrace()
        trace.record("a", 10, 20)
        trace.record("b", -5, 0)  # touches the boundary exactly
        profile = overlap_profile(trace, ["a", "b"], 0, 10)
        assert profile[0] == pytest.approx(1.0)
        assert profile[1] == pytest.approx(0.0)

    def test_unsorted_record_times_handled(self):
        # Records arriving out of chronological order must not corrupt
        # the sweep (deltas are sorted internally).
        trace = IntervalTrace()
        trace.record("a", 6, 9)
        trace.record("b", 1, 4)
        trace.record("a", 3, 7)
        profile = overlap_profile(trace, ["a", "b"], 0, 10)
        # busy levels: [0,1)=0, [1,3)=1, [3,4)=2, [4,6)=1, [6,7)=2, [7,9)=1, [9,10)=0
        assert profile[0] == pytest.approx(0.2)
        assert profile[1] == pytest.approx(0.6)
        assert profile[2] == pytest.approx(0.2)

    def test_level_clamped_when_one_stage_self_overlaps(self):
        # Two records of the SAME stage overlapping push the sweep level
        # past len(stages); the profile clamps to the top bucket.
        trace = IntervalTrace()
        trace.record("a", 0, 10)
        trace.record("a", 0, 10)
        profile = overlap_profile(trace, ["a"], 0, 10)
        assert profile[1] == pytest.approx(1.0)
        assert sum(profile.values()) == pytest.approx(1.0)

    def test_profile_keys_cover_zero_to_len_stages(self):
        profile = overlap_profile(IntervalTrace(), ["a", "b", "c"], 0, 10)
        assert sorted(profile) == [0, 1, 2, 3]

    @given(
        intervals=st.lists(
            st.tuples(
                st.sampled_from(["a", "b", "c"]),
                st.floats(min_value=0, max_value=90),
                st.floats(min_value=0.1, max_value=10),
            ),
            max_size=20,
        )
    )
    @settings(max_examples=80, deadline=None)
    def test_profile_fractions_sum_to_one(self, intervals):
        trace = IntervalTrace()
        for stage, start, duration in intervals:
            trace.record(stage, start, start + duration)
        profile = overlap_profile(trace, ["a", "b", "c"], 0, 100)
        assert sum(profile.values()) == pytest.approx(1.0)
        assert all(v >= -1e-12 for v in profile.values())


class TestWindowedCounts:
    def test_basic_counting(self):
        times = [0.5, 1.5, 1.6, 2.5]
        assert windowed_counts(times, window=1.0, start=0, end=3) == [1, 2, 1]

    def test_out_of_range_excluded(self):
        times = [-1, 0.5, 10.0]
        assert windowed_counts(times, window=1.0, start=0, end=2) == [1, 0]

    def test_partial_trailing_window_dropped(self):
        times = [0.1, 1.1, 2.4]
        # [0,2.5) with window 1 -> two full windows only
        assert windowed_counts(times, window=1.0, start=0, end=2.5) == [1, 1]

    def test_empty_range(self):
        assert windowed_counts([1, 2], window=1.0, start=5, end=5) == []

    def test_bad_window_raises(self):
        with pytest.raises(ValueError):
            windowed_counts([1], window=0, start=0, end=1)

    def test_unsorted_input_times(self):
        times = [2.5, 0.5, 1.6, 1.5]
        assert windowed_counts(times, window=1.0, start=0, end=3) == [1, 2, 1]

    def test_event_on_window_boundary_counts_in_later_window(self):
        # Buckets are [lo, hi): an event at exactly t=1.0 belongs to the
        # second window, and one at exactly end is excluded.
        times = [1.0, 2.0]
        assert windowed_counts(times, window=1.0, start=0, end=2) == [0, 1]

    def test_event_at_start_boundary_included(self):
        assert windowed_counts([0.0], window=1.0, start=0, end=1) == [1]

    def test_window_larger_than_range_gives_no_windows(self):
        assert windowed_counts([0.5], window=5.0, start=0, end=3) == []

    def test_negative_range_empty(self):
        assert windowed_counts([1], window=1.0, start=5, end=3) == []
