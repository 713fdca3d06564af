"""Tests for distribution summaries."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.metrics import BoxStats, mean, percentile, summarize
from repro.metrics.stats import paired_delta_cis


class TestMean:
    def test_basic(self):
        assert mean([1, 2, 3]) == 2.0

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            mean([])


class TestPercentile:
    def test_median_of_odd(self):
        assert percentile([3, 1, 2], 50) == 2.0

    def test_interpolation(self):
        assert percentile([0, 10], 25) == pytest.approx(2.5)

    def test_extremes(self):
        values = list(range(100))
        assert percentile(values, 0) == 0
        assert percentile(values, 100) == 99

    def test_singleton(self):
        assert percentile([7], 99) == 7

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            percentile([], 50)

    def test_out_of_range_raises(self):
        with pytest.raises(ValueError):
            percentile([1], 101)

    @given(st.lists(st.floats(min_value=-1e6, max_value=1e6), min_size=1, max_size=50))
    @settings(max_examples=100, deadline=None)
    def test_percentile_within_data_range(self, values):
        for pct in (0, 1, 25, 50, 75, 99, 100):
            p = percentile(values, pct)
            assert min(values) <= p <= max(values)

    @given(st.lists(st.floats(min_value=0, max_value=1e3), min_size=2, max_size=50))
    @settings(max_examples=100, deadline=None)
    def test_percentiles_monotone(self, values):
        points = [percentile(values, p) for p in (1, 25, 50, 75, 99)]
        assert points == sorted(points)


class TestSummarize:
    def test_fields(self):
        box = summarize(list(range(101)))
        assert isinstance(box, BoxStats)
        assert box.count == 101
        assert box.mean == 50.0
        assert box.p1 == 1.0
        assert box.p25 == 25.0
        assert box.p75 == 75.0
        assert box.p99 == 99.0

    def test_str_formatting(self):
        text = str(summarize([1.0, 2.0]))
        assert "mean=1.5" in text

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            summarize([])


class TestPairedDeltaCis:
    def test_removes_workload_variance(self):
        """ODRMax vs NoReg client FPS, paired by seed through a seed-axis
        plan: every delta is positive and the CI excludes zero."""
        from repro.experiments import ExperimentConfig, PlatformRes, Runner, bench_demands
        from repro.workloads import PRIVATE_CLOUD, Resolution

        seeds = [1, 2, 3, 4]
        runner = Runner(duration_ms=4000.0, warmup_ms=1000.0)
        plan = bench_demands(["IM"], ["NoReg", "ODRMax"], seeds=seeds,
                             duration_ms=4000.0, warmup_ms=1000.0)
        runner.run_plan(plan)
        records = runner.records_for(plan)
        combo = PlatformRes(PRIVATE_CLOUD, Resolution.R720P)

        def per_seed(spec):
            return [
                {"client_fps": records.get("IM", ExperimentConfig(combo, spec), seed).client_fps}
                for seed in seeds
            ]

        noreg, odr = per_seed("NoReg"), per_seed("ODRMax")
        assert all(b["client_fps"] > a["client_fps"] for a, b in zip(noreg, odr))
        ci = paired_delta_cis(noreg, odr)["client_fps"]
        assert ci.low > 0
        assert ci.estimate == mean([b["client_fps"] - a["client_fps"] for a, b in zip(noreg, odr)])

    def test_estimate_is_mean_delta_inside_ci(self):
        a = [{"x": 1.0}, {"x": 2.0}, {"x": 3.0}]
        b = [{"x": 1.5}, {"x": 2.0}, {"x": 4.0}]
        ci = paired_delta_cis(a, b)["x"]
        assert ci.estimate == pytest.approx(0.5)
        assert ci.low <= ci.estimate <= ci.high
        assert ci.contains(0.0)

    def test_pairs_only_shared_metrics(self):
        a = [{"x": 1.0, "y": 5.0}, {"x": 2.0}]
        b = [{"x": 3.0, "y": 2.0}, {"x": 5.0}]
        cis = paired_delta_cis(a, b)
        assert list(cis) == ["x", "y"]
        assert cis["y"].estimate == -3.0  # from the one pair that reports y
        assert paired_delta_cis([{"a": 1.0}], [{"b": 1.0}]) == {}

    def test_rejects_unpaired_or_empty(self):
        with pytest.raises(ValueError):
            paired_delta_cis([{"x": 1.0}], [])
        with pytest.raises(ValueError):
            paired_delta_cis([], [])

    def test_same_sign_deltas_exclude_zero(self):
        a = [{"x": 10.0}] * 5
        b = [{"x": 10.0 + d} for d in (0.1, 0.3, 0.2, 0.4, 0.2)]
        ci = paired_delta_cis(a, b)["x"]
        assert ci.low > 0 and not ci.contains(0.0)
