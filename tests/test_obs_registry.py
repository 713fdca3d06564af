"""Metrics registry: label semantics, snapshots, instrument kinds."""

import pytest

from repro.obs import MetricsRegistry, SeriesKey
from repro.obs.registry import HistogramStats


class TestLabelSemantics:
    def test_different_labels_are_different_series(self):
        reg = MetricsRegistry()
        reg.counter("frames_dropped_total", reason="mailbox_overwrite").inc()
        reg.counter("frames_dropped_total", reason="obsolete_flush").inc(2)
        snap = reg.snapshot()
        assert snap.counter_value("frames_dropped_total", reason="mailbox_overwrite") == 1
        assert snap.counter_value("frames_dropped_total", reason="obsolete_flush") == 2
        assert snap.counter_value("frames_dropped_total") == 0  # unlabeled series distinct

    def test_label_order_is_irrelevant(self):
        reg = MetricsRegistry()
        reg.counter("x", a="1", b="2").inc()
        reg.counter("x", b="2", a="1").inc()
        assert reg.snapshot().counter_value("x", a="1", b="2") == 2

    def test_label_values_stringified(self):
        reg = MetricsRegistry()
        reg.counter("x", session=0).inc()
        assert reg.snapshot().counter_value("x", session="0") == 1

    def test_series_key_str_prometheus_style(self):
        key = SeriesKey.make("queue_depth", {"stage": "send_queue"})
        assert str(key) == 'queue_depth{stage="send_queue"}'
        assert str(SeriesKey.make("plain", {})) == "plain"
        assert key.label("stage") == "send_queue"
        assert key.label("absent") is None

    def test_same_handle_same_series(self):
        reg = MetricsRegistry()
        a = reg.counter("n", stage="render")
        b = reg.counter("n", stage="render")
        assert a is b


class TestInstruments:
    def test_counter_monotonic(self):
        reg = MetricsRegistry()
        c = reg.counter("total")
        c.inc()
        c.inc(2.5)
        assert c.value == 3.5
        with pytest.raises(ValueError):
            c.inc(-1)

    def test_gauge_moves_both_ways(self):
        reg = MetricsRegistry()
        g = reg.gauge("queue_depth", stage="send_queue")
        g.set(5)
        assert g.value == 5
        g.set(3)
        assert g.value == 3

    def test_histogram_stats(self):
        reg = MetricsRegistry()
        h = reg.histogram("gate_delay_ms")
        for v in [1.0, 2.0, 3.0, 4.0]:
            h.observe(v)
        stats = h.stats()
        assert stats.count == 4
        assert stats.min == 1.0 and stats.max == 4.0
        assert stats.mean == pytest.approx(2.5)
        assert stats.p50 == pytest.approx(3.0)  # nearest-rank on sorted data

    def test_empty_histogram_stats(self):
        stats = HistogramStats.from_values(())
        assert stats.count == 0 and stats.mean == 0.0

    def test_name_cannot_change_kind(self):
        reg = MetricsRegistry()
        reg.counter("frames_total")
        with pytest.raises(ValueError):
            reg.gauge("frames_total")
        with pytest.raises(ValueError):
            reg.histogram("frames_total")


class TestSnapshotDelta:
    def test_snapshot_is_frozen_in_time(self):
        reg = MetricsRegistry()
        c = reg.counter("n")
        c.inc()
        before = reg.snapshot()
        c.inc(9)
        assert before.counter_value("n") == 1
        assert reg.snapshot().counter_value("n") == 10

    def test_series_listing_sorted(self):
        reg = MetricsRegistry()
        reg.gauge("b")
        reg.counter("a", x="2")
        reg.counter("a", x="1")
        assert [str(k) for k in reg.series()] == ['a{x="1"}', 'a{x="2"}', "b"]

    def test_snapshot_to_dict_round_trips_json(self):
        import json

        reg = MetricsRegistry()
        reg.counter("n", stage="render").inc()
        reg.gauge("depth").set(2)
        reg.histogram("ms").observe(1.5)
        blob = json.loads(json.dumps(reg.snapshot().to_dict()))
        assert blob["counters"]['n{stage="render"}'] == 1
        assert blob["gauges"]["depth"] == 2
        assert blob["histograms"]["ms"]["count"] == 1
