"""Engine probes: opt-in introspection, zero-overhead when disabled."""

from repro.obs import EngineProbe, Telemetry
from repro.simcore import Actor, Environment


class Drip(Actor):
    """``n`` steps ``step`` apart after its start step."""

    def __init__(self, env, n, step=1.0, name="drip"):
        self.env = env
        self.name = name
        self.left = n
        self.step = step
        env.start(self, self._tick)

    def _tick(self):
        if self.left:
            self.left -= 1
            self.env.call_later(self.step, self._tick)


class TestEngineProbe:
    def test_counts_scheduled_and_fired_events(self):
        probe = EngineProbe()
        env = Environment(probe=probe)
        Drip(env, 5)
        env.run()
        assert probe.events_fired == probe.events_scheduled > 5
        assert probe.pending_events == 0
        assert probe.max_heap_depth >= 1

    def test_counts_processes_by_name(self):
        probe = EngineProbe()
        env = Environment(probe=probe)
        Drip(env, 1, name="app")
        Drip(env, 1, name="app")
        Drip(env, 1, name="client")
        env.run()
        assert probe.processes_started == 3
        assert probe.process_names == {"app": 2, "client": 1}

    def test_wall_clock_per_simulated_second(self):
        # Inject a fake clock so the sampling is deterministic.
        ticks = iter(x * 0.01 for x in range(1000))
        probe = EngineProbe(wallclock=lambda: next(ticks))
        env = Environment(probe=probe)
        Drip(env, 50, step=100.0)  # crosses 5 sim-second marks
        env.run()
        assert len(probe.wall_per_sim_second) >= 4
        mean = probe.mean_wall_per_sim_second()
        assert mean is not None and mean > 0

    def test_summary_is_flat_and_json_safe(self):
        import json

        probe = EngineProbe()
        env = Environment(probe=probe)
        Drip(env, 3)
        env.run()
        summary = json.loads(json.dumps(probe.summary()))
        assert summary["events_fired"] == probe.events_fired
        assert summary["processes_started"] == 1


class TestDisabledZeroOverheadPath:
    def test_environment_defaults_to_no_probe(self):
        env = Environment()
        assert env._probe is None and env._resume_hooks is None

    def test_disabled_engine_never_touches_a_probe(self):
        # With no probe attached, by default or explicitly, the run
        # counts its own statistics and calls no observer.
        for env in (Environment(), Environment(probe=None)):
            assert env._probe is None and env._resume_hooks is None
            Drip(env, 10)
            env.run()
            assert env.stats()["events_fired"] > 0

    def test_telemetry_without_probe_flag_has_none(self):
        assert Telemetry().probe is None
        assert Telemetry(engine_probe=True).probe is not None

    def test_disabled_run_produces_identical_schedule(self):
        # The probe must be observation-only: with and without one, the
        # event timeline is identical.
        def workload(env, log, left=20):
            def tick():
                log.append(env.now)
                workload(env, log, left - 1)

            if left:
                env.call_later(1.5, tick)

        log_a, log_b = [], []
        env_a = Environment()
        workload(env_a, log_a)
        env_a.run()
        env_b = Environment(probe=EngineProbe())
        workload(env_b, log_b)
        env_b.run()
        assert len(log_a) == 20
        assert log_a == log_b
