"""Tests for latency breakdown, ASCII timelines, and profile validation."""

import pytest

from repro import CloudSystem, SystemConfig, make_regulator
from repro.analysis.latency import COMPONENTS, latency_breakdown
from repro.experiments.timeline import render_timeline, run_timeline
from repro.simcore import IntervalTrace
from repro.workloads import (
    BENCHMARKS,
    GCE,
    PRIVATE_CLOUD,
    Resolution,
    get_benchmark,
)
from repro.workloads.benchmarks import BenchmarkProfile
from repro.workloads.distributions import FrameSizeModel, StageTimeModel
from repro.workloads.validation import predict_noreg, validate_profile


def run(spec, platform=PRIVATE_CLOUD, seed=1, duration=10000.0):
    config = SystemConfig("IM", platform, Resolution.R720P, seed=seed,
                          duration_ms=duration, warmup_ms=1500.0)
    return CloudSystem(config, make_regulator(spec)).run()


class TestLatencyBreakdown:
    def test_components_cover_pipeline(self):
        breakdown = latency_breakdown(run("NoReg"))
        assert set(breakdown.components) == set(COMPONENTS)
        assert all(v >= 0 for v in breakdown.components.values())

    def test_total_matches_mean_mtp(self):
        result = run("ODR60")
        breakdown = latency_breakdown(result)
        assert breakdown.total_ms == pytest.approx(result.mean_mtp_ms(), rel=0.05)

    def test_noreg_gce_dominated_by_transmit_congestion(self):
        breakdown = latency_breakdown(run("NoReg", platform=GCE))
        assert breakdown.fraction("transmit_wait") > 0.7  # so it dominates

    def test_odr_gce_not_congestion_dominated(self):
        breakdown = latency_breakdown(run("ODR60", platform=GCE))
        assert breakdown.fraction("transmit_wait") < 0.5

    def test_regulation_shows_up_as_input_wait(self):
        """Int60's injected delay lands in the input_wait component."""
        int60 = latency_breakdown(run("Int60"))
        noreg = latency_breakdown(run("NoReg"))
        assert int60.components["input_wait"] > noreg.components["input_wait"]

    def test_str_contains_all_components(self):
        text = str(latency_breakdown(run("ODRMax")))
        for name in COMPONENTS:
            assert name in text

    def test_no_samples_raises(self):
        result = run("NoReg", duration=4000)
        result.system.client.displayed.clear()
        with pytest.raises(ValueError):
            latency_breakdown(result)


class TestTimeline:
    def test_renders_lanes(self):
        trace = IntervalTrace()
        trace.record("render", 0, 50)
        trace.record("encode", 50, 100)
        art = render_timeline(trace, ("render", "encode"), 0, 100, width=10)
        lines = art.splitlines()
        assert lines[1].startswith("render")
        assert "#####....." in lines[1].replace(" ", "").split("|")[1]
        assert ".....#####" in lines[2].replace(" ", "").split("|")[1]

    def test_partial_buckets_marked(self):
        trace = IntervalTrace()
        trace.record("render", 0, 2)  # 20% of a 10ms bucket
        art = render_timeline(trace, ("render",), 0, 100, width=10)
        assert "+" in art

    def test_title_and_scale_line(self):
        art = render_timeline(IntervalTrace(), ("x",), 0, 100, width=10, title="T")
        assert art.splitlines()[0] == "T"
        assert "ms/column" in art.splitlines()[1]

    def test_validation(self):
        with pytest.raises(ValueError):
            render_timeline(IntervalTrace(), ("x",), 5, 5)
        with pytest.raises(ValueError):
            render_timeline(IntervalTrace(), ("x",), 0, 10, width=2)

    def test_run_timeline_end_to_end(self):
        art = run_timeline(run("ODR60", duration=4000), window_ms=200, width=40)
        assert "render" in art and "encode" in art and "decode" in art
        # the regulated pipeline is visibly not saturated
        render_lane = next(l for l in art.splitlines() if l.startswith("render"))
        assert "." in render_lane


class TestPredictNoReg:
    def test_inmind_anchors(self):
        prediction = predict_noreg(get_benchmark("IM"), PRIVATE_CLOUD, Resolution.R720P)
        assert prediction.render_fps == pytest.approx(189, abs=5)
        assert prediction.encode_fps == pytest.approx(93, abs=3)
        assert prediction.has_excessive_rendering

    def test_prediction_matches_simulation(self):
        result = run("NoReg")
        prediction = predict_noreg(get_benchmark("IM"), PRIVATE_CLOUD, Resolution.R720P)
        assert result.render_fps == pytest.approx(prediction.render_fps, rel=0.06)
        assert result.encode_fps == pytest.approx(prediction.encode_fps, rel=0.08)

    def test_congestion_regimes(self):
        im = get_benchmark("IM")
        assert predict_noreg(im, GCE, Resolution.R720P).congested
        assert not predict_noreg(im, PRIVATE_CLOUD, Resolution.R720P).congested

    def test_all_paper_benchmarks_valid(self):
        for bench in BENCHMARKS.values():
            assert validate_profile(bench, PRIVATE_CLOUD, Resolution.R720P) == []


class TestValidateProfile:
    def make_profile(self, render=5.0, copy=1.5, encode=10.0, decode=4.0, actions=3.0):
        return BenchmarkProfile(
            name="X", full_name="X", genre="Test",
            render=StageTimeModel(mean_ms=render),
            copy=StageTimeModel(mean_ms=copy),
            encode=StageTimeModel(mean_ms=encode),
            decode=StageTimeModel(mean_ms=decode),
            frame_size=FrameSizeModel(mean_kb=60),
            actions_per_second=actions,
        )

    def test_valid_profile_passes(self):
        assert validate_profile(self.make_profile(), PRIVATE_CLOUD, Resolution.R720P) == []

    def test_slow_render_flagged(self):
        problems = validate_profile(
            self.make_profile(render=15.0), PRIVATE_CLOUD, Resolution.R720P
        )
        assert any("no excessive rendering" in p for p in problems)

    def test_slow_decode_flagged(self):
        problems = validate_profile(
            self.make_profile(decode=12.0), PRIVATE_CLOUD, Resolution.R720P
        )
        assert any("client becomes the bottleneck" in p for p in problems)

    def test_input_rate_flagged(self):
        problems = validate_profile(
            self.make_profile(actions=20.0), PRIVATE_CLOUD, Resolution.R720P
        )
        assert any("actions_per_second" in p for p in problems)

    def test_underpowered_platform_flagged(self):
        problems = validate_profile(
            self.make_profile(encode=40.0, decode=3.0, render=20.0),
            PRIVATE_CLOUD,
            Resolution.R1080P,
        )
        assert any("cannot satisfy" in p for p in problems)
