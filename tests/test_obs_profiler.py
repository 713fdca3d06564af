"""The sim-engine self-profiler: attribution, accounting, and overlay."""

import json

import pytest

from repro.obs import SimProfiler, Telemetry, chrome_trace, stage_for_process
from repro.pipeline import CloudSystem, SystemConfig
from repro.regulators import make_regulator
from repro.simcore import Actor, Environment
from repro.workloads import PLATFORMS, Resolution


class FakeClock:
    """Deterministic wall clock: advances a fixed tick per read."""

    def __init__(self, tick=1.0):
        self.now = 0.0
        self.tick = tick

    def __call__(self):
        self.now += self.tick
        return self.now


def start_spinner(env, period, count, name):
    """Start an actor named ``name``: ``count`` steps ``period`` apart."""

    class Spinner(Actor):
        def __init__(self):
            self.name = name
            self.left = count
            env.start(self, self.step)

        def step(self):
            if self.left:
                self.left -= 1
                env.call_later(period, self.step)

    return Spinner()


class TestStageMapping:
    @pytest.mark.parametrize(
        "name,stage",
        [
            ("app", "render"),
            ("proxy", "encode"),
            ("odr-proxy", "encode"),
            ("network", "transmit"),
            ("odr-network", "transmit"),
            ("client", "client"),
            ("input-actions", "inputs"),
            ("input-polling", "inputs"),
            ("fps-reporter-0", "control"),
            ("abr", "control"),
            ("mystery-process", "other"),
        ],
    )
    def test_prefix_mapping(self, name, stage):
        assert stage_for_process(name) == stage


class TestFakeClockAccounting:
    def run_profiled(self):
        clock = FakeClock()
        profiler = SimProfiler(wallclock=clock, depth_sample_ms=100.0)
        env = Environment(probe=profiler)
        start_spinner(env, 10.0, 20, name="app")
        start_spinner(env, 25.0, 8, name="client")
        start_spinner(env, 50.0, 4, name="mystery")
        profiler.start()
        env.run(until=1000.0)
        profiler.finish()
        return profiler

    def test_every_process_attributed(self):
        profiler = self.run_profiled()
        assert set(profiler.wall_by_process) == {"app", "client", "mystery"}
        # one step per delay plus the start step
        assert profiler.resumes_by_process["app"] == 21
        assert profiler.resumes_by_process["client"] == 9
        assert profiler.resumes_by_process["mystery"] == 5

    def test_attributed_wall_is_sum_of_processes(self):
        profiler = self.run_profiled()
        assert profiler.attributed_wall_s == pytest.approx(
            sum(profiler.wall_by_process.values())
        )
        assert 0.0 < profiler.attributed_wall_s <= profiler.total_wall_s

    def test_stage_table_sums_to_profiled_total(self):
        profiler = self.run_profiled()
        stages = profiler.wall_by_stage()
        assert "engine" in stages
        assert stages["render"] == pytest.approx(profiler.wall_by_process["app"])
        assert stages["other"] == pytest.approx(profiler.wall_by_process["mystery"])
        assert sum(stages.values()) == pytest.approx(profiler.total_wall_s)

    def test_callsites_resolve_to_step_code(self):
        profiler = self.run_profiled()
        callsites = dict(profiler.top_callsites())
        assert len(callsites) == 1  # all three actors share Spinner.step
        (callsite,) = callsites
        assert callsite.startswith("step (")
        assert "test_obs_profiler.py" in callsite

    def test_depth_timeline_is_bucketed_and_ordered(self):
        profiler = self.run_profiled()
        timeline = profiler.depth_timeline()
        assert timeline
        times = [t for t, _ in timeline]
        assert times == sorted(times)
        assert all(t % 100.0 == 0.0 for t in times)
        assert all(depth >= 0 for _, depth in timeline)

    def test_events_per_sec_uses_framed_total(self):
        profiler = self.run_profiled()
        assert profiler.events_per_sec() == pytest.approx(
            profiler.events_fired / profiler.total_wall_s
        )

    def test_unframed_profiler_has_no_total(self):
        profiler = SimProfiler(wallclock=FakeClock())
        assert profiler.total_wall_s is None
        assert profiler.events_per_sec() is None
        assert "engine" not in profiler.wall_by_stage()

    def test_bad_sample_width_rejected(self):
        with pytest.raises(ValueError):
            SimProfiler(depth_sample_ms=0.0)


class TestActorAttribution:
    def test_plain_entries_are_attributed_to_their_actor(self):
        clock = FakeClock()
        profiler = SimProfiler(wallclock=clock)
        env = Environment(probe=profiler)
        start_spinner(env, 10.0, 20, name="app")
        start_spinner(env, 25.0, 8, name="client")
        # An entry that is no actor's step stays unattributed.
        env.call_at(5.0, lambda: None)
        profiler.start()
        env.run(until=1000.0)
        profiler.finish()
        # one entry per step plus the start entry
        assert profiler.resumes_by_process == {"app": 21, "client": 9}
        callsites = [c for c, _ in profiler.top_callsites()]
        assert [c.split(" (")[0] for c in callsites] == ["step"]
        assert all("test_obs_profiler.py" in c for c in callsites)
        stages = profiler.wall_by_stage()
        assert sum(stages.values()) == pytest.approx(profiler.total_wall_s)

    @pytest.mark.parametrize(
        "spec,actors",
        [
            ("ODR60", ("app", "odr-proxy", "odr-network", "client")),
            ("NoReg", ("app", "proxy", "network", "client")),
        ],
    )
    def test_stage_actors_run_plain_entries(self, spec, actors):
        profiler = SimProfiler()
        telemetry = Telemetry()
        telemetry.probe = profiler
        config = SystemConfig(
            benchmark="IM",
            platform=PLATFORMS["private"],
            resolution=Resolution("720p"),
            seed=3,
            duration_ms=1000.0,
            warmup_ms=200.0,
        )
        system = CloudSystem(config, make_regulator(spec), telemetry=telemetry)
        profiler.start()
        system.run()
        profiler.finish()
        for name in actors:
            assert profiler.resumes_by_process.get(name, 0) > 0, name
            assert profiler.wall_by_process[name] > 0.0, name
        # the stage loops run as actors: their callsites are step methods
        callsites = [c for c, _ in profiler.top_callsites(k=50)]
        for module in ("app.py", "client.py", "proxy.py", "network.py"):
            assert any(module in c for c in callsites), (module, callsites)


@pytest.fixture(scope="module")
def pipeline_profile():
    telemetry = Telemetry()
    profiler = SimProfiler()
    telemetry.probe = profiler
    config = SystemConfig(
        benchmark="IM",
        platform=PLATFORMS["private"],
        resolution=Resolution("720p"),
        seed=3,
        duration_ms=5000.0,
        warmup_ms=1000.0,
    )
    system = CloudSystem(config, make_regulator("ODR60"), telemetry=telemetry)
    profiler.start()
    system.run()
    profiler.finish()
    return telemetry, profiler


class TestPipelineProfile:
    def test_stage_sums_within_ten_percent_of_total(self, pipeline_profile):
        _, profiler = pipeline_profile
        total = profiler.total_wall_s
        assert total > 0
        stage_sum = sum(profiler.wall_by_stage().values())
        assert abs(stage_sum - total) <= 0.10 * total

    def test_pipeline_stages_show_up(self, pipeline_profile):
        _, profiler = pipeline_profile
        stages = profiler.wall_by_stage()
        for stage in ("render", "encode", "transmit", "client", "engine"):
            assert stage in stages, stages

    def test_summary_is_json_serializable(self, pipeline_profile):
        _, profiler = pipeline_profile
        summary = json.loads(json.dumps(profiler.summary()))
        assert summary["events_fired"] > 0
        assert summary["total_wall_s"] > 0
        assert summary["wall_by_stage"]
        assert summary["top_callsites"]
        assert summary["queue_depth_timeline"]

    def test_report_renders_the_tables(self, pipeline_profile):
        _, profiler = pipeline_profile
        text = profiler.report(top_k=3)
        assert "engine profile:" in text
        assert "stage wall time:" in text
        assert "callsites:" in text
        assert "queue depth:" in text

    def test_chrome_trace_overlay(self, pipeline_profile):
        telemetry, profiler = pipeline_profile
        trace = chrome_trace(telemetry, profiler=profiler)
        names = {event["name"] for event in trace["traceEvents"]}
        assert "event_queue_depth" in names
        assert "wall_ms_per_stage" in names
        overlay = [e for e in trace["traceEvents"] if e.get("pid") == 0 and e["ph"] == "C"]
        assert len(overlay) == len(profiler.depth_timeline()) + 1
        # overlay must not displace the pipeline's own slices
        plain = chrome_trace(telemetry)
        assert len(trace["traceEvents"]) == len(plain["traceEvents"]) + len(overlay) + 1
