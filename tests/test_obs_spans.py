"""Span lifecycle: open → stage intervals → close (display or drop)."""

import pytest

from repro.obs import SpanStore, Telemetry
from repro.pipeline.frames import Frame


def make_frame(frame_id=1, **kwargs):
    return Frame(frame_id=frame_id, **kwargs)


class TestSpanStore:
    def test_open_stage_close_lifecycle(self):
        store = SpanStore()
        span = store.open(1, at=10.0, gate_delay_ms=2.0)
        assert span.open and not span.displayed and not span.dropped
        store.stage(1, "render", 10.0, 15.0)
        store.stage(1, "copy", 15.0, 16.0)
        store.close(1, at=30.0)
        assert span.displayed
        assert span.closed_at == 30.0
        assert span.stages() == ["render", "copy"]
        assert span.intervals[0].duration_ms == pytest.approx(5.0)

    def test_drop_closes_span_with_reason(self):
        store = SpanStore()
        span = store.open(7, at=0.0)
        store.stage(7, "render", 0.0, 4.0)
        store.drop(7, at=5.0, reason="mailbox_overwrite")
        assert span.dropped and not span.displayed
        assert span.drop_reason == "mailbox_overwrite"
        assert span.closed_at == 5.0

    def test_close_after_drop_keeps_drop(self):
        store = SpanStore()
        span = store.open(1, at=0.0)
        store.drop(1, at=3.0, reason="obsolete_flush")
        store.close(1, at=9.0)
        assert span.drop_reason == "obsolete_flush"
        assert span.closed_at == 3.0

    def test_double_open_same_frame_raises(self):
        store = SpanStore()
        store.open(1, at=0.0)
        with pytest.raises(ValueError):
            store.open(1, at=1.0)

    def test_same_frame_id_different_sessions_coexist(self):
        store = SpanStore()
        a = store.open(1, at=0.0, session="s0")
        b = store.open(1, at=0.0, session="s1")
        store.drop(1, at=2.0, reason="x", session="s1")
        assert not a.dropped and b.dropped
        assert store.get(1, session="s0") is a
        assert store.sessions() == ["s0", "s1"]

    def test_unknown_frame_events_ignored(self):
        store = SpanStore()
        store.stage(99, "render", 0.0, 1.0)
        store.drop(99, at=1.0, reason="x")
        store.close(99, at=1.0)
        assert len(store) == 0

    def test_spans_filtering(self):
        store = SpanStore()
        store.open(1, at=0.0)
        store.open(2, at=1.0)
        store.drop(2, at=2.0, reason="x")
        assert [s.frame_id for s in store.spans(dropped=True)] == [2]
        assert [s.frame_id for s in store.spans(dropped=False)] == [1]
        assert [s.frame_id for s in store.spans()] == [1, 2]

    def test_open_interval_has_no_duration(self):
        from repro.obs import StageInterval

        iv = StageInterval("render", 1.0)
        assert iv.end is None
        with pytest.raises(ValueError):
            _ = iv.duration_ms


class TestTelemetrySpanHooks:
    def test_frame_opened_records_gate_delay(self):
        tel = Telemetry()
        frame = make_frame(1, priority=True, triggered_by_input=True)
        tel.frame_opened(frame, at=12.0, gate_delay_ms=4.0)
        span = tel.spans.get(1)
        assert span.gate_delay_ms == 4.0
        assert span.priority and span.input_triggered
        stats = tel.snapshot().histogram_stats("gate_delay_ms")
        assert stats.count == 1 and stats.max == 4.0

    def test_dropped_frame_closes_span_with_reason(self):
        tel = Telemetry()
        frame = make_frame(3)
        tel.frame_opened(frame, at=0.0)
        tel.stage_complete(frame, "render", 0.0, 5.0)
        tel.frame_dropped(frame, at=6.0, reason="mailbox_overwrite")
        span = tel.spans.get(3)
        assert span.drop_reason == "mailbox_overwrite"
        snap = tel.snapshot()
        assert snap.counter_value("frames_dropped_total", reason="mailbox_overwrite") == 1

    def test_displayed_frame_records_pipeline_latency(self):
        tel = Telemetry()
        frame = make_frame(2)
        tel.frame_opened(frame, at=10.0)
        tel.frame_displayed(frame, at=45.0)
        stats = tel.snapshot().histogram_stats("frame_pipeline_ms")
        assert stats.count == 1
        assert stats.max == pytest.approx(35.0)

    def test_session_view_labels_spans_and_metrics(self):
        root = Telemetry()
        s0 = root.for_session("s0")
        s1 = root.for_session("s1")
        s0.frame_opened(make_frame(1), at=0.0)
        s1.frame_opened(make_frame(1), at=0.0)
        assert root.spans.sessions() == ["s0", "s1"]
        snap = root.snapshot()
        assert snap.counter_value("frames_created_total", session="s0") == 1
        assert snap.counter_value("frames_created_total", session="s1") == 1
        assert snap.counter_value("frames_created_total") == 0
        # Once each view has bound its handles, further events still land
        # in that view's own series.
        for view, durations in ((s0, (2.0, 3.0)), (s1, (7.0,))):
            for index, duration in enumerate(durations):
                frame = make_frame(10 + index)
                view.frame_opened(frame, at=0.0)
                view.stage_complete(frame, "render", 0.0, duration)
        snap = root.snapshot()
        stats0 = snap.histogram_stats("stage_ms", stage="render", session="s0")
        stats1 = snap.histogram_stats("stage_ms", stage="render", session="s1")
        assert (stats0.count, stats0.sum) == (2, 5.0)
        assert (stats1.count, stats1.sum) == (1, 7.0)
        assert snap.counter_value("stage_frames_total", stage="render", session="s0") == 2
        assert snap.counter_value("stage_frames_total", stage="render") == 0
        assert snap.counter_value("frames_created_total", session="s0") == 3


class TestBoundHandles:
    def test_series_keys_scale_with_series_not_frames(self, monkeypatch, tmp_path):
        # Hooks bind each series once, so a longer run builds no more
        # series keys than a short one: O(series), not O(frames).  A
        # telemetry directory makes the cell record full telemetry.
        from repro.experiments.executor import execute_cell
        from repro.experiments.plan import bench_demands
        from repro.obs.registry import SeriesKey

        calls = []
        make = SeriesKey.make

        def counting_make(name, labels):
            calls.append(name)
            return make(name, labels)

        monkeypatch.setattr(SeriesKey, "make", staticmethod(counting_make))
        counts = []
        for duration_ms in (1000.0, 3000.0):
            spec = bench_demands(
                ["IM"], ["ODR60"], [1], duration_ms=duration_ms, warmup_ms=500.0
            ).specs[0]
            calls.clear()
            outcome = execute_cell(
                spec, collect_ledger=True, telemetry_dir=str(tmp_path), git_rev="test"
            )
            assert outcome.ledger_record["metrics"]["gate_delay"]["count"] > 0
            counts.append(len(calls))
        assert counts[0] == counts[1] > 0

    def test_count_and_observe_bind_per_label_set(self):
        tel = Telemetry()
        for _ in range(3):
            tel.count("pacing_sleeps_total")
            tel.count("retries_total", 2.0, kind="a")
            tel.observe("pacing_sleep_ms", 4.0, kind="a")
        tel.count("retries_total", kind="b")
        snap = tel.snapshot()
        assert snap.counter_value("pacing_sleeps_total") == 3
        assert snap.counter_value("retries_total", kind="a") == 6
        assert snap.counter_value("retries_total", kind="b") == 1
        assert snap.histogram_stats("pacing_sleep_ms", kind="a").count == 3

    def test_kind_conflict_still_raises(self):
        tel = Telemetry()
        tel.count("frames_total")
        tel.count("frames_total")
        with pytest.raises(ValueError):
            tel.observe("frames_total", 1.0)

    def test_registry_histogram_stats_creates_no_series(self):
        tel = Telemetry()
        assert tel.registry.histogram_stats("gate_delay_ms").count == 0
        assert tel.registry.series() == []
        tel.frame_opened(make_frame(1), at=0.0, gate_delay_ms=3.0)
        stats = tel.registry.histogram_stats("gate_delay_ms")
        assert stats == tel.snapshot().histogram_stats("gate_delay_ms")
        assert stats.count == 1 and stats.max == 3.0
