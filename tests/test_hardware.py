"""Tests for the DRAM / IPC / power / PMU hardware models."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import CloudSystem, SystemConfig, make_regulator
from repro.hardware import (
    DramModel,
    IpcModel,
    PowerModel,
    evaluate_hardware,
    simulate_pmu_counters,
)
from repro.hardware.dram import DramReport
from repro.simcore import IntervalTrace
from repro.workloads import PRIVATE_CLOUD, Resolution


def make_trace(intervals):
    trace = IntervalTrace()
    for stage, start, end in intervals:
        trace.record(stage, start, end)
    return trace


class TestDramModel:
    def test_idle_system_has_base_behaviour(self):
        report = DramModel().evaluate(IntervalTrace(), 0, 1000)
        assert report.row_miss_rate == pytest.approx(0.594)
        assert report.overlap2_frac == 0.0

    def test_full_overlap_matches_noreg_calibration(self):
        """Fig. 7 anchor: fully overlapped pipeline -> ~70% miss, ~68ns."""
        trace = make_trace([("render", 0, 1000), ("encode", 0, 1000)])
        report = DramModel().evaluate(trace, 0, 1000)
        assert report.row_miss_rate == pytest.approx(0.70, abs=0.01)
        assert report.read_access_ns == pytest.approx(68.0, abs=1.5)

    def test_regulated_overlap_matches_int60_calibration(self):
        """Fig. 7 anchor: ~15% overlap -> ~61% miss, ~47ns."""
        trace = make_trace([("render", 0, 300), ("encode", 150, 700)])
        report = DramModel().evaluate(trace, 0, 1000)
        assert report.overlap2_frac == pytest.approx(0.15)
        assert 0.60 <= report.row_miss_rate <= 0.62
        assert 43 <= report.read_access_ns <= 50

    def test_three_way_overlap_adds_extra_misses(self):
        two = make_trace([("render", 0, 1000), ("encode", 0, 1000)])
        three = make_trace(
            [("render", 0, 1000), ("encode", 0, 1000), ("copy", 0, 1000)]
        )
        model = DramModel()
        assert (
            model.evaluate(three, 0, 1000).row_miss_rate
            > model.evaluate(two, 0, 1000).row_miss_rate
        )

    def test_miss_rate_capped_at_one(self):
        model = DramModel(base_miss_rate=0.95, miss_per_overlap2=0.2)
        trace = make_trace([("render", 0, 1000), ("encode", 0, 1000)])
        assert model.evaluate(trace, 0, 1000).row_miss_rate == 1.0

    @given(
        overlap=st.floats(min_value=0, max_value=1000),
    )
    @settings(max_examples=50, deadline=None)
    def test_monotone_in_overlap(self, overlap):
        model = DramModel()
        trace = make_trace([("render", 0, 1000), ("encode", 0, overlap)]) if overlap > 0 else make_trace([("render", 0, 1000)])
        report = model.evaluate(trace, 0, 1000)
        baseline = model.evaluate(make_trace([("render", 0, 1000)]), 0, 1000)
        assert report.row_miss_rate >= baseline.row_miss_rate - 1e-12
        assert report.read_access_ns >= baseline.read_access_ns - 1e-9


class TestIpcModel:
    def test_faster_memory_higher_ipc(self):
        model = IpcModel()
        slow = DramReport(0.7, 68.0, 1.0, 0.0)
        fast = DramReport(0.6, 47.0, 0.1, 0.0)
        assert model.evaluate(fast, 1.37) > model.evaluate(slow, 1.37)

    def test_calibration_anchor_plus_21_percent(self):
        """68ns -> 47ns must give roughly +21% IPC (Sec. 6.5)."""
        model = IpcModel()
        slow = model.evaluate(DramReport(0.7, 68.0, 1.0, 0.0), 1.0)
        fast = model.evaluate(DramReport(0.6, 47.0, 0.1, 0.0), 1.0)
        assert (fast / slow - 1.0) == pytest.approx(0.21, abs=0.03)

    def test_scales_linearly_with_peak(self):
        model = IpcModel()
        report = DramReport(0.7, 68.0, 1.0, 0.0)
        assert model.evaluate(report, 2.0) == pytest.approx(2 * model.evaluate(report, 1.0))

    def test_invalid_peak_rejected(self):
        with pytest.raises(ValueError):
            IpcModel().evaluate(DramReport(0.7, 68.0, 1.0, 0.0), 0.0)


class TestPmuCounters:
    def test_derived_read_time_roundtrips(self):
        report = DramReport(0.7, 68.0, 1.0, 0.0)
        counters = simulate_pmu_counters(report, window_ms=10000)
        assert counters.derived_read_time_ns == pytest.approx(68.0, rel=0.01)

    def test_inserts_scale_with_overlap(self):
        busy = simulate_pmu_counters(DramReport(0.7, 68.0, 1.0, 0.0), 1000)
        idle = simulate_pmu_counters(DramReport(0.6, 40.0, 0.0, 0.0), 1000)
        assert busy.unc_m_rpq_inserts > idle.unc_m_rpq_inserts

    def test_zero_window_rejected(self):
        with pytest.raises(ValueError):
            simulate_pmu_counters(DramReport(0.7, 68.0, 1.0, 0.0), 0)

    def test_zero_inserts_rejected_in_derivation(self):
        from repro.hardware.pmu import PmuCounters

        with pytest.raises(ValueError):
            PmuCounters(0, 0, 1000).derived_read_time_ns


class TestPowerModel:
    def run(self, spec, bench="IM", seed=1):
        config = SystemConfig(bench, PRIVATE_CLOUD, Resolution.R720P, seed=seed,
                              duration_ms=8000, warmup_ms=1500)
        return CloudSystem(config, make_regulator(spec)).run()

    def test_breakdown_sums_to_total(self):
        report = PowerModel().evaluate(self.run("NoReg"))
        parts = (report.idle_w + report.render_dynamic_w + report.encode_dynamic_w
                 + report.gpu_residency_w + report.cpu_residency_w)
        assert report.total_w == pytest.approx(parts)

    def test_noreg_burns_more_than_odr60(self):
        noreg = PowerModel().evaluate(self.run("NoReg"))
        odr = PowerModel().evaluate(self.run("ODR60"))
        assert noreg.total_w > odr.total_w

    def test_power_tracks_render_rate(self):
        noreg = PowerModel().evaluate(self.run("NoReg"))
        odr_max = PowerModel().evaluate(self.run("ODRMax"))
        odr_60 = PowerModel().evaluate(self.run("ODR60"))
        # the more excessive rendering removed, the more power saved
        assert noreg.total_w > odr_max.total_w > odr_60.total_w

    def test_logic_weight_raises_render_cost(self):
        heavy = PowerModel().evaluate(self.run("NoReg", bench="0AD"))
        # 0AD has logic_cpu_weight=1.6; its per-frame render power factor
        # must exceed a weight-0.9 benchmark's at the same frame rate.
        light = PowerModel().evaluate(self.run("NoReg", bench="IM"))
        heavy_per_fps = heavy.render_dynamic_w / max(1.0, self.run("NoReg", bench="0AD").render_fps)
        light_per_fps = light.render_dynamic_w / max(1.0, self.run("NoReg", bench="IM").render_fps)
        assert heavy_per_fps > light_per_fps


class TestEvaluateHardware:
    def test_report_fields_populated(self):
        config = SystemConfig("IM", PRIVATE_CLOUD, Resolution.R720P, seed=1,
                              duration_ms=6000, warmup_ms=1000)
        result = CloudSystem(config, make_regulator("NoReg")).run()
        hw = evaluate_hardware(result)
        assert 0 < hw.dram.row_miss_rate <= 1
        assert hw.dram.read_access_ns > 0
        assert hw.ipc > 0
        assert hw.power.total_w > 100
        assert hw.pmu.unc_m_rpq_inserts > 0

    def test_pmu_consistent_with_dram_model(self):
        config = SystemConfig("IM", PRIVATE_CLOUD, Resolution.R720P, seed=1,
                              duration_ms=6000, warmup_ms=1000)
        result = CloudSystem(config, make_regulator("ODR60")).run()
        hw = evaluate_hardware(result)
        assert hw.pmu.derived_read_time_ns == pytest.approx(
            hw.dram.read_access_ns, rel=0.01
        )
