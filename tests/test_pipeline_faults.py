"""Failure-injection tests: transient stalls and recovery.

The paper's acceleration argument, falsified or confirmed: after a
sudden processing-time spike, ODR must recover the QoS target within a
bounded window, while delay-only regulation permanently loses the
frames.
"""

import pytest

from repro import CloudSystem, SystemConfig, make_regulator
from repro.faults import FaultPlan, StageStall, StallInjector
from repro.simcore import Environment
from repro.simcore.tracing import windowed_counts
from repro.workloads import PRIVATE_CLOUD, Resolution


def build(spec, stall=None, seed=1, duration=12000.0):
    """An IM system, with ``stall = (stage, at_ms, duration_ms)`` planned."""
    config = SystemConfig("IM", PRIVATE_CLOUD, Resolution.R720P, seed=seed,
                          duration_ms=duration, warmup_ms=2000.0)
    plan = FaultPlan([StageStall(*stall)]) if stall is not None else None
    return CloudSystem(config, make_regulator(spec), fault_plan=plan)


class FixedSampler:
    def __init__(self, value):
        self.value = value

    def next(self):
        return self.value


class TestStallInjector:
    def test_stall_fires_once_at_scheduled_time(self):
        env = Environment()
        injector = StallInjector(FixedSampler(5.0), env, [(100.0, 50.0)])
        assert injector.next() == 5.0       # before the stall time
        env.run(until=150)
        assert injector.next() == 55.0      # stall delivered
        assert injector.next() == 5.0       # only once
        assert injector.fired == [(150.0, 50.0)]

    def test_multiple_stalls_ordered(self):
        env = Environment()
        injector = StallInjector(FixedSampler(1.0), env, [(200.0, 10.0), (100.0, 20.0)])
        env.run(until=300)
        assert injector.next() == 31.0  # both pending stalls collapse
        assert len(injector.fired) == 2

    def test_validation(self):
        env = Environment()
        with pytest.raises(ValueError):
            StallInjector(FixedSampler(1.0), env, [(0.0, 0.0)])
        with pytest.raises(ValueError):
            StallInjector(FixedSampler(1.0), env, [(-1.0, 5.0)])

    def test_unknown_stage_rejected(self):
        with pytest.raises(ValueError):
            build("NoReg", stall=("teleport", 100.0, 10.0))


class TestStallRecovery:
    STALL_AT = 6000.0
    STALL_MS = 400.0

    def window_fps(self, result, start, end):
        counts = windowed_counts(result.counter.times("decode"), 200.0, start, end)
        return [c * 5 for c in counts]

    @pytest.mark.parametrize("stage", ["render", "encode"])
    def test_odr_recovers_within_a_second(self, stage):
        system = build("ODR60", stall=(stage, self.STALL_AT, self.STALL_MS))
        result = system.run()
        # the stall is visible: some window right after it dips
        during = self.window_fps(result, self.STALL_AT, self.STALL_AT + self.STALL_MS)
        assert min(during) < 40
        # one second after the stall ends, delivery is back at target
        after = result.counter.mean_fps(
            "decode", self.STALL_AT + self.STALL_MS + 1000.0, result.t_end
        )
        assert after >= 59.0

    def test_odr_acceleration_repays_stalled_frames(self):
        """Immediately after the stall, ODR runs *above* target to repay
        the debt window — the Fig. 5d catch-up burst."""
        system = build("ODR60", stall=("encode", self.STALL_AT, self.STALL_MS))
        result = system.run()
        burst = result.counter.mean_fps(
            "decode", self.STALL_AT + self.STALL_MS, self.STALL_AT + self.STALL_MS + 400.0
        )
        assert burst > 65.0

    def test_delay_only_does_not_repay(self):
        stall = ("encode", self.STALL_AT, self.STALL_MS)
        accel = build("ODR60", stall=stall, seed=3).run()
        noaccel = build("ODR60-noAccel", stall=stall, seed=3).run()
        window = (self.STALL_AT, self.STALL_AT + 2000.0)
        accel_delivered = len([t for t in accel.counter.times("decode")
                               if window[0] <= t < window[1]])
        noaccel_delivered = len([t for t in noaccel.counter.times("decode")
                                 if window[0] <= t < window[1]])
        assert accel_delivered > noaccel_delivered

    def test_decode_stall_bounded_under_odr(self):
        """A client-side freeze must not wedge the pipeline: ODR's
        bounded buffering backpressures and then recovers."""
        system = build("ODRMax", stall=("decode", self.STALL_AT, self.STALL_MS))
        result = system.run()
        after = result.counter.mean_fps("decode", self.STALL_AT + 1500.0, result.t_end)
        assert after > 90
        # latency right after the stall is not seconds (queue stayed tiny)
        post = [s.latency_ms for s in result.tracker.samples
                if self.STALL_AT + self.STALL_MS <= s.issued_at < result.t_end]
        assert post and max(post) < 250

    def test_render_stall_drops_noreg_client_too(self):
        """Sanity: stalls propagate in all systems, not just ODR."""
        system = build("NoReg", stall=("render", self.STALL_AT, self.STALL_MS))
        result = system.run()
        during = self.window_fps(result, self.STALL_AT, self.STALL_AT + self.STALL_MS)
        assert min(during) < 40
