"""Span lifecycle, read from a finished run: open → stage intervals →
close (display or drop)."""

from types import SimpleNamespace

import pytest

from repro.obs import SpanStore, Telemetry
from repro.obs.registry import SeriesKey
from repro.pipeline.buffers import ByteBudgetQueue
from repro.pipeline.frames import DropReason, Frame
from repro.simcore import Environment, IntervalTrace


def make_frame(frame_id=1, **kwargs):
    return Frame(frame_id=frame_id, **kwargs)


def finished_run(frames, gate_delays=None, intervals=(), now=100.0, **regulator):
    """A stand-in for a finished system: what ``Telemetry`` reads from one."""
    trace = IntervalTrace()
    for stage, start, end in intervals:
        trace.record(stage, start, end)
    return SimpleNamespace(
        app=SimpleNamespace(frames=frames, gate_delays=gate_delays or [0.0] * len(frames)),
        trace=trace,
        env=SimpleNamespace(now=now),
        regulator=SimpleNamespace(
            send_queue=regulator.get("send_queue"),
            pacing_sleeps=regulator.get("pacing_sleeps", ()),
            pacing_interrupts=regulator.get("pacing_interrupts", 0),
        ),
        faults=None,
    )


class TestSpanStore:
    def test_open_stage_close_lifecycle(self):
        span = SpanStore().open(1, at=10.0, gate_delay_ms=2.0)
        assert span.open and not span.displayed and not span.dropped
        tel = Telemetry()
        frame = make_frame(
            1, t_created=10.0, t_render_end=15.0, t_copy_end=16.0, t_displayed=30.0
        )
        stages = [("render", 10.0, 15.0), ("copy", 15.0, 16.0), ("decode", 28.0, 30.0)]
        tel.read_run(finished_run([frame], gate_delays=[2.0], intervals=stages))
        span = tel.spans.get(1)
        assert span.displayed and span.gate_delay_ms == 2.0
        assert span.closed_at == 30.0
        assert span.stages() == ["render", "copy", "decode"]
        assert span.intervals[0].duration_ms == pytest.approx(5.0)

    def test_drop_closes_span_with_reason(self):
        # Dropped after encoding: the stages it passed stay on the span.
        tel = Telemetry()
        frame = make_frame(
            7, t_created=0.0, t_render_end=4.0, t_copy_end=5.0, t_encode_end=7.0
        )
        frame.drop(DropReason.OBSOLETE_FLUSH, 8.0)
        stages = [("render", 0.0, 4.0), ("copy", 4.0, 5.0), ("encode", 5.0, 7.0)]
        tel.read_run(finished_run([frame], intervals=stages))
        span = tel.spans.get(7)
        assert span.dropped and not span.displayed
        assert span.drop_reason == "obsolete_flush"
        assert span.closed_at == 8.0
        assert span.stages() == ["render", "copy", "encode"]

    def test_close_after_drop_keeps_drop(self):
        # A frame with a drop time counts as dropped even if it also
        # carries a display time.
        tel = Telemetry()
        frame = make_frame(1, t_created=0.0, t_displayed=9.0)
        frame.drop(DropReason.OBSOLETE_FLUSH, 3.0)
        tel.read_run(finished_run([frame], intervals=[("decode", 8.0, 9.0)]))
        span = tel.spans.get(1)
        assert span.drop_reason == "obsolete_flush"
        assert span.closed_at == 3.0

    def test_double_open_same_frame_raises(self):
        store = SpanStore()
        store.open(1, at=0.0)
        with pytest.raises(ValueError):
            store.open(1, at=1.0)

    def test_same_frame_id_different_sessions_coexist(self):
        tel = Telemetry()
        dropped = make_frame(1, t_created=0.0)
        dropped.drop(DropReason.MAILBOX_OVERWRITE, 2.0)
        tel.read_sessions(
            [finished_run([make_frame(1, t_created=0.0)]), finished_run([dropped])],
            open_order=[0, 1],
        )
        a, b = tel.spans.get(1, session="s0"), tel.spans.get(1, session="s1")
        assert not a.dropped and b.dropped
        assert tel.spans.sessions() == ["s0", "s1"]

    def test_spans_filtering(self):
        tel = Telemetry()
        dropped = make_frame(2, t_created=1.0)
        dropped.drop(DropReason.MAILBOX_OVERWRITE, 2.0)
        tel.read_run(finished_run([make_frame(1, t_created=0.0), dropped]))
        store = tel.spans
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
    """Spans and series are read from the finished run."""

    def test_frame_opened_records_gate_delay(self):
        tel = Telemetry()
        frame = make_frame(1, priority=True, triggered_by_input=True, t_created=12.0)
        tel.read_run(finished_run([frame], gate_delays=[4.0]))
        span = tel.spans.get(1)
        assert (span.opened_at, span.gate_delay_ms) == (12.0, 4.0)
        assert span.priority and span.input_triggered
        stats = tel.snapshot().histogram_stats("gate_delay_ms")
        assert stats.count == 1 and stats.max == 4.0

    def test_dropped_frame_closes_span_with_reason(self):
        tel = Telemetry()
        frame = make_frame(1, t_created=0.0, t_render_end=5.0)
        frame.drop(DropReason.MAILBOX_OVERWRITE, 6.0)
        tel.read_run(finished_run([frame], intervals=[("render", 0.0, 5.0)]))
        span = tel.spans.get(1)
        assert (span.drop_reason, span.closed_at) == ("mailbox_overwrite", 6.0)
        assert span.stages() == ["render"]
        snap = tel.snapshot()
        assert snap.counter_value("frames_dropped_total", reason="mailbox_overwrite") == 1
        assert snap.counter_value("stage_frames_total", stage="render") == 1

    def test_display_drop_is_read_from_the_drop_time_alone(self):
        tel = Telemetry()
        frame = make_frame(1, t_created=0.0, t_dropped=9.0)
        tel.read_run(finished_run([frame], intervals=[("decode", 8.0, 9.0)]))
        assert tel.spans.get(1).drop_reason == "display_drop"
        assert frame.dropped is None

    def test_displayed_frame_records_pipeline_latency(self):
        tel = Telemetry()
        shown = make_frame(1, t_created=10.0, t_displayed=45.0)
        # Its display entry lies past the horizon: it never fired.
        late = make_frame(2, t_created=90.0, t_displayed=120.0)
        decodes = [("decode", 40.0, 45.0), ("decode", 95.0, 99.0)]
        tel.read_run(finished_run([shown, late], intervals=decodes, now=100.0))
        assert tel.spans.get(1).closed_at == 45.0
        assert tel.spans.get(2).open
        snap = tel.snapshot()
        assert snap.counter_value("frames_displayed_total") == 1
        stats = snap.histogram_stats("frame_pipeline_ms")
        assert stats.count == 1
        assert stats.max == pytest.approx(35.0)

    def test_session_view_labels_spans_and_metrics(self):
        root = Telemetry()
        s0 = finished_run(
            [
                make_frame(1, t_created=0.0, t_render_end=2.0),
                make_frame(2, t_created=2.0, t_render_end=5.0),
            ],
            intervals=[("render", 0.0, 2.0), ("render", 2.0, 5.0)],
        )
        s1 = finished_run(
            [make_frame(1, t_created=0.0, t_render_end=7.0)], intervals=[("render", 0.0, 7.0)]
        )
        # Session 1 opened its frame first.
        root.read_sessions([s0, s1], open_order=[1, 0, 0])
        assert [(s.session, s.frame_id) for s in root.spans] == [
            ("s1", 1), ("s0", 1), ("s0", 2)
        ]
        assert root.spans.sessions() == ["s0", "s1"]
        snap = root.snapshot()
        assert snap.counter_value("frames_created_total", session="s0") == 2
        assert snap.counter_value("frames_created_total", session="s1") == 1
        assert snap.counter_value("frames_created_total") == 0
        stats0 = snap.histogram_stats("stage_ms", stage="render", session="s0")
        stats1 = snap.histogram_stats("stage_ms", stage="render", session="s1")
        assert (stats0.count, stats0.sum) == (2, 5.0)
        assert [iv.end for iv in root.spans.get(2, session="s0").intervals] == [5.0]
        assert (stats1.count, stats1.sum) == (1, 7.0)
        assert snap.counter_value("stage_frames_total", stage="render") == 0

    def test_intervals_match_frames_in_the_order_they_left_a_stage(self):
        # Frame 2 was dropped before encoding: the one encode interval is
        # frame 3's, the next frame to finish encoding.
        tel = Telemetry()
        frames = [
            make_frame(1, t_created=0.0, t_encode_end=3.0),
            make_frame(2, t_created=1.0),
            make_frame(3, t_created=2.0, t_encode_end=9.0),
        ]
        tel.read_run(finished_run(frames, intervals=[("encode", 1.0, 3.0), ("encode", 6.0, 9.0)]))
        assert [s.stages() for s in tel.spans] == [["encode"], [], ["encode"]]
        assert tel.spans.get(3).intervals[0].start == 6.0
        with pytest.raises(RuntimeError):
            Telemetry().read_run(finished_run(frames, intervals=[("encode", 1.0, 3.0)]))

    def test_series_exist_only_for_what_the_run_did(self):
        tel = Telemetry()
        tel.read_run(finished_run([]))
        assert tel.registry.series() == []
        queue = ByteBudgetQueue(Environment(), budget_bytes=100)
        queue.put(make_frame(1, size_bytes=40), lambda: None)
        tel.read_run(
            finished_run(
                [], send_queue=queue, pacing_sleeps=[2.0, 3.0], pacing_interrupts=1
            )
        )
        snap = tel.snapshot()
        # The gauges hold the queue's occupancy at the end of the run.
        assert snap.gauges[SeriesKey.make("queue_depth", {"stage": "send_queue"})] == 1.0
        assert snap.gauges[SeriesKey.make("queue_bytes", {"stage": "send_queue"})] == 40.0
        assert snap.counter_value("pacing_sleeps_total") == 2
        assert snap.histogram_stats("pacing_sleep_ms").sum == 5.0
        assert snap.counter_value("pacing_interrupts_total") == 1


class TestBoundHandles:
    """Each series is resolved once per run, not once per frame."""

    def test_series_keys_scale_with_series_not_frames(self, monkeypatch, tmp_path):
        # The run is read series by series, so a longer run builds no more
        # series keys than a short one: O(series), not O(frames).  A
        # telemetry directory makes the cell record full telemetry.
        from repro.experiments.executor import execute_cell
        from repro.experiments.plan import bench_demands

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

    def test_kind_conflict_still_raises(self):
        tel = Telemetry()
        tel.registry.counter("frames_total")
        tel.registry.counter("frames_total")
        with pytest.raises(ValueError):
            tel.registry.histogram("frames_total")

    def test_registry_histogram_stats_creates_no_series(self):
        tel = Telemetry()
        assert tel.registry.histogram_stats("gate_delay_ms").count == 0
        assert tel.registry.series() == []
        tel.read_run(finished_run([make_frame(1, t_created=0.0)], gate_delays=[3.0]))
        stats = tel.registry.histogram_stats("gate_delay_ms")
        assert stats == tel.snapshot().histogram_stats("gate_delay_ms")
        assert stats.count == 1 and stats.max == 3.0
