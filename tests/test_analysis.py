"""Tests for trace record/replay."""

import io

import pytest

from repro import CloudSystem, SystemConfig, make_regulator
from repro.analysis import (
    RecordedStageModel,
    StageTraces,
    record_stage_traces,
)
from repro.analysis.traces import ReplaySampler
from repro.workloads import PRIVATE_CLOUD, Resolution, get_benchmark


def run(spec="ODR60", seed=1, duration=5000.0, benchmark="IM", **kwargs):
    config = SystemConfig(benchmark, PRIVATE_CLOUD, Resolution.R720P, seed=seed,
                          duration_ms=duration, warmup_ms=1000.0, **kwargs)
    return CloudSystem(config, make_regulator(spec)).run()


class TestReplaySampler:
    def test_sequence_and_wrap(self):
        sampler = ReplaySampler([1.0, 2.0, 3.0])
        assert [sampler.next() for _ in range(7)] == [1, 2, 3, 1, 2, 3, 1]
        assert sampler.wraps == 2

    def test_scale(self):
        sampler = ReplaySampler([2.0], scale=1.5)
        assert sampler.next() == 3.0

    def test_validation(self):
        with pytest.raises(ValueError):
            ReplaySampler([])
        with pytest.raises(ValueError):
            ReplaySampler([1.0, -1.0])


class TestRecordedStageModel:
    def test_mean_and_scaling(self):
        model = RecordedStageModel((2.0, 4.0))
        assert model.mean_ms == 3.0
        assert model.scaled(2.0).mean_ms == 6.0
        with pytest.raises(ValueError):
            model.scaled(0)

    def test_sampler_ignores_rng(self):
        model = RecordedStageModel((5.0,))
        assert model.sampler(None).next() == 5.0


class TestStageTraces:
    def test_record_from_run(self):
        result = run()
        traces = record_stage_traces(result)
        for stage in ("render", "copy", "encode", "decode"):
            assert traces.length(stage) > 100

    def test_save_load_roundtrip(self):
        result = run(duration=3000)
        traces = record_stage_traces(result)
        buffer = io.StringIO()
        traces.save(buffer)
        buffer.seek(0)
        loaded = StageTraces.load(buffer)
        for stage in traces.stages:
            assert loaded.stages[stage] == pytest.approx(traces.stages[stage], abs=1e-5)

    def test_load_empty_rejected(self):
        with pytest.raises(ValueError):
            StageTraces.load(io.StringIO("stage,index,duration_ms\n"))

    def test_empty_stage_rejected(self):
        with pytest.raises(ValueError):
            StageTraces(stages={"render": []})

    def test_replay_profile_reproduces_run(self):
        """Replaying a recorded workload (contention off on both sides)
        must reproduce the original run's FPS nearly exactly."""
        original = run(spec="ODR60", duration=6000, contention_beta=0.0)
        traces = record_stage_traces(original)
        profile = traces.as_profile(get_benchmark("IM"))
        replay = run(spec="ODR60", duration=6000, benchmark=profile,
                     contention_beta=0.0)
        assert replay.client_fps == pytest.approx(original.client_fps, rel=0.03)

    def test_replay_what_if_changes_regulator(self):
        """The same recorded workload can be pushed through another
        regulator — a deterministic what-if."""
        original = run(spec="NoReg", duration=6000, contention_beta=0.0)
        traces = record_stage_traces(original)
        profile = traces.as_profile(get_benchmark("IM"))
        what_if = run(spec="ODR60", duration=6000, benchmark=profile,
                      contention_beta=0.0)
        assert what_if.client_fps >= 59.0
        assert what_if.fps_gap().mean_gap < original.fps_gap().mean_gap / 10
