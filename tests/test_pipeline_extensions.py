"""Tests for the ABR and network-dynamics extensions."""

import pytest

from repro import CloudSystem, SystemConfig, make_regulator
from repro.pipeline.abr import AbrSizeSampler, AdaptiveBitrate
from repro.pipeline.netdyn import compose, dips
from repro.workloads import GCE, PRIVATE_CLOUD, Resolution


def run(spec, platform=GCE, resolution=Resolution.R1080P, seed=1,
        duration=12000.0, **system_kwargs):
    config = SystemConfig("IM", platform, resolution, seed=seed,
                          duration_ms=duration, warmup_ms=2000.0)
    return CloudSystem(config, make_regulator(spec), **system_kwargs).run()


class TestAdaptiveBitrateConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            AdaptiveBitrate(min_scale=0.0)
        with pytest.raises(ValueError):
            AdaptiveBitrate(min_scale=0.9, max_scale=0.5)
        with pytest.raises(ValueError):
            AdaptiveBitrate(low_utilization=0.9, high_utilization=0.8)
        with pytest.raises(ValueError):
            AdaptiveBitrate(decrease=1.2)
        with pytest.raises(ValueError):
            AdaptiveBitrate(period_ms=0)


class TestAbrController:
    def test_congested_path_walks_quality_down(self):
        """60 FPS at 1080p needs ~60 Mbps > GCE's 42: ABR must adapt."""
        result = run("ODR60", abr=AdaptiveBitrate())
        controller = result.system.abr
        assert controller.scale < 0.85
        assert controller.mean_scale(result.t_start, result.t_end) < 0.95

    def test_abr_makes_infeasible_target_feasible(self):
        without = run("ODR60")
        with_abr = run("ODR60", abr=AdaptiveBitrate())
        assert without.client_fps < 55          # bandwidth-capped
        assert with_abr.client_fps >= 59.0      # ladder restored the target

    def test_abr_respects_quality_floor(self):
        config = AdaptiveBitrate(min_scale=0.5)
        result = run("ODR60", abr=config)
        scales = [s for _, s in result.system.abr.history]
        assert min(scales) >= 0.5 - 1e-9

    def test_uncongested_path_keeps_full_quality(self):
        result = run("ODR60", platform=PRIVATE_CLOUD,
                     resolution=Resolution.R720P, abr=AdaptiveBitrate())
        assert result.system.abr.mean_scale(result.t_start, result.t_end) > 0.9

    def test_history_records_decisions(self):
        result = run("ODR60", abr=AdaptiveBitrate(period_ms=500), duration=5000)
        # one initial entry + one per period over warmup+duration
        assert len(result.system.abr.history) >= 10

    def test_mean_scale_empty_window_rejected(self):
        result = run("ODR60", abr=AdaptiveBitrate(), duration=3000)
        with pytest.raises(ValueError):
            result.system.abr.mean_scale(5, 5)

    def test_size_sampler_wrapping(self):
        class FakeBase:
            def next(self):
                return 1000

        class FakeController:
            scale = 0.5

        sampler = AbrSizeSampler(FakeBase(), FakeController())
        assert sampler.next() == 500


class TestBandwidthSchedules:
    def test_dips_timing(self):
        schedule = dips(period_ms=1000, dip_duration_ms=200, dip_factor=0.4,
                        first_dip_at_ms=500)
        assert schedule(0) == 1.0        # before the first dip
        assert schedule(600) == 0.4      # inside the first dip
        assert schedule(800) == 1.0      # after it
        assert schedule(1550) == 0.4     # inside the second
        with pytest.raises(ValueError):
            dips(100, 200, 0.5)
        with pytest.raises(ValueError):
            dips(1000, 100, 0.0)

    def test_compose(self):
        schedule = compose([lambda t: 0.5, lambda t: 0.5])
        assert schedule(0) == 0.25
        with pytest.raises(ValueError):
            compose([])


class TestDynamicBandwidthRuns:
    def test_schedule_slows_transmission(self):
        steady = run("ODR60", platform=GCE, resolution=Resolution.R720P)
        throttled = run("ODR60", platform=GCE, resolution=Resolution.R720P,
                        bandwidth_schedule=lambda t: 0.5)
        assert throttled.mean_mtp_ms() > steady.mean_mtp_ms()

    def test_invalid_schedule_value_raises(self):
        with pytest.raises(ValueError):
            run("ODR60", duration=2000, bandwidth_schedule=lambda t: 0.0)

    def test_odr_recovers_from_dips_noreg_does_not(self):
        """A periodic 2 s half-capacity dip: ODR's bounded buffering
        recovers between dips; NoReg's standing queue never drains."""
        schedule = dips(period_ms=8000, dip_duration_ms=2000, dip_factor=0.5,
                        first_dip_at_ms=4000)
        odr = run("ODR60", platform=GCE, resolution=Resolution.R720P,
                  duration=20000, bandwidth_schedule=schedule)
        noreg = run("NoReg", platform=GCE, resolution=Resolution.R720P,
                    duration=20000, bandwidth_schedule=schedule)
        assert odr.mean_mtp_ms() < 150
        assert noreg.mean_mtp_ms() > 8 * odr.mean_mtp_ms()
