"""Tests for busy-interval tracing and the overlap profile."""

import pytest
from hypothesis import Phase, given, settings
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


class _PurePythonTrace:
    """The trace as it was before the numpy passes: one list of
    ``(stage, start, end)`` tuples, summed and swept in plain Python.
    Kept as the bit-for-bit reference of the vectorised window statistics."""

    def __init__(self):
        self.intervals = []

    def record(self, stage, start, end):
        if end > start:
            self.intervals.append((stage, start, end))
        elif end < start:
            raise ValueError(f"interval ends before it starts: {start}..{end}")

    def busy_time(self, stage, start=0.0, end=float("inf")):
        total = 0.0
        for rec_stage, rec_start, rec_end in self.intervals:
            if rec_stage != stage:
                continue
            lo = max(rec_start, start)
            hi = min(rec_end, end)
            if hi > lo:
                total += hi - lo
        return total

    def utilization(self, stage, start, end):
        if end <= start:
            raise ValueError("empty window")
        return self.busy_time(stage, start, end) / (end - start)

    def overlap_profile(self, stages, start, end):
        if end <= start:
            raise ValueError("empty window")
        wanted = set(stages)
        deltas = []
        for stage, rec_start, rec_end in self.intervals:
            if stage not in wanted:
                continue
            lo = max(rec_start, start)
            hi = min(rec_end, end)
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


def _hexed(profile):
    return {level: frac.hex() for level, frac in profile.items()}


class TestTupleStorageMatchesReference:
    """The column-backed trace answers exactly as a list of records would."""

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
        pure = _PurePythonTrace()
        pure.intervals = [(r.stage, r.start, r.end) for r in reference]
        for stages in (["render", "copy", "encode"], ["transmit"], self.STAGES):
            assert overlap_profile(trace, stages, 50.0, 900.0) == (
                pure.overlap_profile(stages, 50.0, 900.0)
            )

    def test_backwards_interval_raises_and_records_nothing(self):
        trace = IntervalTrace()
        trace.record("render", 1.0, 2.0)
        with pytest.raises(ValueError):
            trace.record("render", 5.0, 4.999)
        assert trace.records() == [TraceRecord("render", 1.0, 2.0)]


#: Interval edges: a coarse grid makes opening/closing ties and
#: zero-length intervals common; free floats cover the rest.
_EDGE = st.one_of(
    st.integers(min_value=-5, max_value=25).map(float),
    st.floats(min_value=-5.0, max_value=25.0, allow_nan=False),
)
#: Half the intervals go to "a", so one stage often has the dozens of
#: terms at which a pairwise or compensated sum would round differently.
_INTERVALS = st.lists(
    st.tuples(st.sampled_from(["a", "a", "a", "b", "c", "d"]), _EDGE, _EDGE).map(
        lambda t: (t[0], min(t[1], t[2]), max(t[1], t[2]))
    ),
    max_size=60,
)
#: Windows straddle the interval range on either side, or sit inside it.
_WINDOW = st.tuples(_EDGE, _EDGE).filter(lambda w: w[0] != w[1]).map(sorted)
#: ``["a"]`` with many "a" intervals, or two listed stages over four
#: recorded ones, give more concurrent intervals than ``len(stages)``.
_STAGE_SETS = st.sampled_from([["a"], ["a", "b"], ["a", "b", "c"], ["b", "d", "a"], ["a", "a"], []])


class TestVectorisedStatisticsMatchPurePython:
    """``busy_time``, ``utilization`` and ``overlap_profile`` equal the
    pure-Python sweep bit for bit (compared by ``float.hex``)."""

    # No shrink phase: shrinking a last-bit mismatch takes minutes, and
    # the first failing example is small enough to read as it is.
    @given(intervals=_INTERVALS, window=_WINDOW, stages=_STAGE_SETS)
    @settings(
        max_examples=300,
        deadline=None,
        phases=(Phase.explicit, Phase.reuse, Phase.generate),
    )
    def test_window_statistics_equal_reference(self, intervals, window, stages):
        trace, reference = IntervalTrace(), _PurePythonTrace()
        for stage, start, end in intervals:
            trace.record(stage, start, end)
            reference.record(stage, start, end)
        start, end = window
        assert _hexed(overlap_profile(trace, stages, start, end)) == _hexed(
            reference.overlap_profile(stages, start, end)
        )
        for stage in ("a", "b", "c", "d", "absent"):
            assert trace.busy_time(stage, start, end).hex() == (
                reference.busy_time(stage, start, end).hex()
            )
            assert trace.busy_time(stage).hex() == reference.busy_time(stage).hex()
            assert trace.utilization(stage, start, end).hex() == (
                reference.utilization(stage, start, end).hex()
            )
        assert [(r.stage, r.start, r.end) for r in trace.records()] == reference.intervals

    def test_empty_trace(self):
        trace, reference = IntervalTrace(), _PurePythonTrace()
        assert overlap_profile(trace, ["a", "b"], 0.0, 10.0) == (
            reference.overlap_profile(["a", "b"], 0.0, 10.0)
        )
        assert trace.busy_time("a", 0.0, 10.0) == 0.0
        assert trace.records() == []

    def test_ties_and_zero_length_intervals(self):
        trace, reference = IntervalTrace(), _PurePythonTrace()
        for stage, start, end in [
            ("a", 0.0, 2.0), ("b", 2.0, 4.0), ("a", 2.0, 2.0), ("c", 2.0, 3.0),
            ("a", 4.0, 6.0), ("b", 4.0, 4.0), ("c", 3.0, 6.0), ("a", 0.0, 2.0),
        ]:
            trace.record(stage, start, end)
            reference.record(stage, start, end)
        for start, end in [(0.0, 6.0), (1.0, 5.0), (2.0, 4.0), (-1.0, 7.0)]:
            assert _hexed(overlap_profile(trace, ["a", "b", "c"], start, end)) == _hexed(
                reference.overlap_profile(["a", "b", "c"], start, end)
            )

    @given(window=_EDGE, stages=_STAGE_SETS)
    @settings(max_examples=50, deadline=None)
    def test_empty_or_backwards_window_still_raises(self, window, stages):
        trace = IntervalTrace()
        trace.record("a", 0.0, 5.0)
        for end in (window, window - 1.0):
            with pytest.raises(ValueError):
                overlap_profile(trace, stages, window, end)
            with pytest.raises(ValueError):
                trace.utilization("a", window, end)

    def test_backwards_interval_still_raises(self):
        with pytest.raises(ValueError):
            IntervalTrace().record("a", 5.0, 4.0)


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
