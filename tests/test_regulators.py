"""Tests for the baseline regulators and the factory."""

from types import SimpleNamespace

import pytest

from repro import CloudSystem, SystemConfig, make_regulator
from repro.core import OnDemandRendering
from repro.regulators import (
    IntervalMaxRegulator,
    IntervalRegulator,
    NoRegulation,
    RemoteVsync,
)
from repro.simcore import Environment
from repro.workloads import PRIVATE_CLOUD, Resolution


def run(regulator, bench="IM", seed=1, duration=10000.0):
    config = SystemConfig(bench, PRIVATE_CLOUD, Resolution.R720P, seed=seed,
                          duration_ms=duration, warmup_ms=1500.0)
    return CloudSystem(config, regulator).run()


class TestFactory:
    @pytest.mark.parametrize(
        "spec,cls,target",
        [
            ("NoReg", NoRegulation, None),
            ("Int60", IntervalRegulator, 60.0),
            ("Int30", IntervalRegulator, 30.0),
            ("IntMax", IntervalMaxRegulator, None),
            ("RVS60", RemoteVsync, 60.0),
            ("RVSMax", RemoteVsync, None),
            ("ODR60", OnDemandRendering, 60.0),
            ("ODRMax", OnDemandRendering, None),
        ],
    )
    def test_spec_dispatch(self, spec, cls, target):
        regulator = make_regulator(spec)
        assert isinstance(regulator, cls)
        assert regulator.fps_target == target

    def test_case_insensitive(self):
        assert isinstance(make_regulator("noreg"), NoRegulation)
        assert isinstance(make_regulator("odrmax"), OnDemandRendering)

    def test_odr_flags(self):
        nopri = make_regulator("ODRMax-noPri")
        assert nopri.priority is None
        noaccel = make_regulator("ODR60-noAccel")
        assert not noaccel.clock.accelerate
        both = make_regulator("ODR60-noPri-noAccel")
        assert both.priority is None and not both.clock.accelerate

    def test_rvsmax_uses_high_refresh_display(self):
        assert make_regulator("RVSMax").client_refresh_hz == 240.0
        assert make_regulator("RVS60").client_refresh_hz == 60.0

    def test_invalid_specs_rejected(self):
        for bad in ("", "Foo60", "NoReg60", "Int60-noPri", "ODR60-noMagic", "RVS-noPri"):
            with pytest.raises(ValueError):
                make_regulator(bad)

    def test_regulator_label(self):
        # The paper label is the regulator's own name, whatever the
        # spelling of the spec it was built from.
        assert make_regulator("odr60").name == "ODR60"
        assert NoRegulation().name == "NoReg"


class TestNoRegulation:
    def test_free_running_render(self):
        result = run(NoRegulation())
        # IM renders at ~190 FPS free-running
        assert result.render_fps > 150

    def test_mailbox_drops_are_the_gap(self):
        result = run(NoRegulation())
        drops = len(result.dropped_frames())
        gap_frames = result.counter.count("render") - result.counter.count("encode")
        assert abs(drops - gap_frames) <= 3

    def test_input_never_masked(self):
        assert NoRegulation.sleep_masks_inputs is False


class TestIntervalRegulator:
    def test_validation(self):
        with pytest.raises(ValueError):
            IntervalRegulator(0)

    def test_name(self):
        assert IntervalRegulator(60).name == "Int60"
        assert IntervalRegulator(30).name == "Int30"

    def test_render_rate_capped_at_target(self):
        result = run(IntervalRegulator(60))
        assert result.render_fps <= 60.5

    def test_misses_target_under_spiky_load(self):
        """Sec. 4.1: Int60 cannot reach 60 because spikes lose grid slots."""
        result = run(IntervalRegulator(60))
        assert 52 <= result.client_fps < 60

    def test_interval_grid_alignment(self):
        """Render starts land on the 16.6ms grid."""
        result = run(IntervalRegulator(60), duration=4000)
        interval = 1000.0 / 60.0
        starts = [f.t_render_start for f in result.system.app.frames[10:200]]
        offsets = [s % interval for s in starts]
        on_grid = sum(1 for o in offsets if o < 0.01 or o > interval - 0.01)
        assert on_grid / len(offsets) > 0.95

    def test_30fps_variant(self):
        result = run(IntervalRegulator(30))
        assert 26 <= result.client_fps <= 30.5


class TestIntervalMaxRegulator:
    def test_decays_well_below_capacity(self):
        """Sec. 4.1: IntMax ratchets down and cannot recover."""
        result = run(IntervalMaxRegulator(), duration=30000)
        noreg = run(NoRegulation(), duration=10000)
        assert result.client_fps < 0.75 * noreg.client_fps

    def test_interval_only_ratchets_up_significantly(self):
        regulator = IntervalMaxRegulator()
        run(regulator, duration=20000)
        assert regulator.interval_ms > 10.0  # started at MIN_INTERVAL_MS=1

    def test_gap_removed(self):
        result = run(IntervalMaxRegulator(), duration=15000)
        assert result.fps_gap().mean_gap < 3.0

    def test_report_with_zero_fps_ignored(self):
        regulator = IntervalMaxRegulator()

        class _Counter:
            def count(self, stage):
                return 0

        class _System:
            counter = _Counter()

        regulator.system = _System()
        before = regulator.interval_ms
        regulator.on_client_fps_report(0.0)
        assert regulator.interval_ms == before


class TestRemoteVsync:
    def test_validation(self):
        with pytest.raises(ValueError):
            RemoteVsync(refresh_hz=0)
        with pytest.raises(ValueError):
            RemoteVsync(cc=-0.1)

    def test_names(self):
        assert RemoteVsync(fps_target=60).name == "RVS60"
        assert RemoteVsync(refresh_hz=240).name == "RVSMax"

    def test_rvs60_lands_below_refresh(self):
        """Sec. 4.1: feedback overhead keeps RVS below the refresh rate."""
        result = run(RemoteVsync(refresh_hz=60, fps_target=60))
        assert 48 <= result.client_fps < 60

    def test_rvsmax_below_noreg(self):
        """Sec. 4.1: RVSMax reaches only ~76 where NoReg reached ~93 (IM)."""
        rvs = run(RemoteVsync(refresh_hz=240))
        noreg = run(NoRegulation())
        assert rvs.client_fps < 0.92 * noreg.client_fps

    def test_gap_removed(self):
        result = run(RemoteVsync(refresh_hz=240))
        assert result.fps_gap().mean_gap < 3.0

    def test_feedback_flows(self):
        regulator = RemoteVsync(refresh_hz=60, fps_target=60)
        run(regulator, duration=5000)
        assert regulator.feedback_count > 100
        assert 0.0 <= regulator.latest_slack_ms <= regulator.vblank_period_ms

    def test_in_flight_window_respected(self):
        regulator = RemoteVsync(refresh_hz=240)
        run(regulator, duration=5000)
        assert regulator.frames_in_flight <= regulator.WINDOW + 1

    def test_higher_cc_means_lower_fps(self):
        slow = run(RemoteVsync(refresh_hz=240, cc=1.5), seed=3)
        fast = run(RemoteVsync(refresh_hz=240, cc=0.05), seed=3)
        assert slow.client_fps < fast.client_fps


class TestRemoteVsyncFeedbackWindow:
    """A full window waits for an ack, bounded by the stall deadline.

    Its entries: the ack's own fire, the deadline, the zero-delay entry
    in which the first of them reopens the window, and the loser, which
    fires later and does nothing.
    """

    def wait_in_full_window(self, env):
        regulator = RemoteVsync(refresh_hz=60, fps_target=60, cc=0.0)
        regulator._last_rendered_id = regulator.WINDOW  # none acknowledged
        passed = []
        regulator.app_wait(SimpleNamespace(env=env), lambda: passed.append(env.now))
        return regulator, passed

    def ack_at(self, env, regulator, when):
        # A client whose display lands on a vblank, one zero-ms uplink away.
        client = SimpleNamespace(
            env=env,
            next_vblank=lambda t: t,
            system=SimpleNamespace(platform=SimpleNamespace(uplink_ms=0.0)),
        )
        frame = SimpleNamespace(frame_id=regulator.WINDOW)
        env.call_at(when, lambda: regulator.on_client_display(client, frame))

    def test_ack_closes_the_window_and_the_deadline_fires_late(self):
        env = Environment()
        regulator, passed = self.wait_in_full_window(env)
        deadline = regulator._stall_deadline
        self.ack_at(env, regulator, 10.0)
        env.run()
        # Reopened at the ack, the gate waits for the next vblank.
        assert passed == [regulator.vblank_period_ms]
        # The deadline still fired, last and without effect.
        assert env.now == deadline
        # display, its delivery, the ack, the reopen, the gate, the deadline
        assert env.stats()["events_fired"] == 6

    def test_deadline_closes_the_window_and_the_ack_fires_late(self):
        env = Environment()
        regulator, passed = self.wait_in_full_window(env)
        deadline = regulator._stall_deadline
        self.ack_at(env, regulator, 100.0)
        env.run(until=99.0)
        assert passed == [deadline]
        # The ack token of the closed window is still pending ...
        assert len(regulator._pending_acks) == 1
        env.run()
        # ... and its fire after the late ack changes nothing.
        assert passed == [deadline]
        assert regulator._pending_acks == []
        # deadline, reopen, display, its delivery, the stale ack
        assert env.stats()["events_fired"] == 5


class TestLatencyOrdering:
    """Sec. 4.2 / 6.4: the latency ordering across regulators."""

    def test_int_and_rvs_increase_latency_over_noreg(self):
        noreg = run(NoRegulation())
        for regulator in (IntervalRegulator(60), RemoteVsync(refresh_hz=60, fps_target=60)):
            regulated = run(regulator)
            assert regulated.mean_mtp_ms() > noreg.mean_mtp_ms()

    def test_odr_beats_int_and_rvs(self):
        odr = run(OnDemandRendering(60.0))
        int60 = run(IntervalRegulator(60))
        rvs60 = run(RemoteVsync(refresh_hz=60, fps_target=60))
        assert odr.mean_mtp_ms() < int60.mean_mtp_ms()
        assert odr.mean_mtp_ms() < rvs60.mean_mtp_ms()
