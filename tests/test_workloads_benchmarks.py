"""Tests for benchmark and platform profiles."""

import pytest

from repro.workloads import (
    BENCHMARKS,
    GCE,
    PLATFORMS,
    PRIVATE_CLOUD,
    PlatformProfile,
    Resolution,
    get_benchmark,
)


class TestBenchmarkRegistry:
    def test_all_six_present(self):
        assert set(BENCHMARKS) == {"STK", "0AD", "RE", "D2", "IM", "ITP"}

    def test_lookup_case_insensitive(self):
        assert get_benchmark("im").name == "IM"
        assert get_benchmark("0ad").name == "0AD"

    def test_unknown_raises(self):
        with pytest.raises(KeyError):
            get_benchmark("quake")

    def test_genres_match_paper_table1(self):
        assert get_benchmark("STK").genre == "Racing Game"
        assert "VR" in get_benchmark("IM").genre
        assert "VR" in get_benchmark("ITP").genre

    def test_action_rates_in_paper_range(self):
        # Sec 5.3: 2 to 5 priority frames per second observed
        for bench in BENCHMARKS.values():
            assert 2.0 <= bench.actions_per_second <= 5.0


#: DRAM-contention multiplier under NoReg (both sides ~fully overlapped).
NOREG_CONTENTION = 1.25


def noreg_render_fps(bench):
    return 1000.0 / (NOREG_CONTENTION * (bench.render.mean_ms + bench.copy.mean_ms))


def noreg_encode_fps(bench):
    return 1000.0 / (NOREG_CONTENTION * bench.encode.mean_ms)


class TestCalibrationAnchors:
    """Sanity-check profile means against the paper's headline FPS numbers."""

    def test_inmind_noreg_render_fps_near_189(self):
        # Fig. 3: InMind 720p private renders at ~189 FPS under NoReg.
        assert 170 <= noreg_render_fps(get_benchmark("IM")) <= 205

    def test_inmind_noreg_encode_fps_near_93(self):
        assert 85 <= noreg_encode_fps(get_benchmark("IM")) <= 100

    def test_imhotep_is_worst_gap_offender(self):
        # Table 2: ITP has by far the largest NoReg FPS gap.
        gaps = {
            name: noreg_render_fps(b) - noreg_encode_fps(b)
            for name, b in BENCHMARKS.items()
        }
        assert max(gaps, key=gaps.get) == "ITP"

    def test_every_benchmark_renders_faster_than_it_encodes(self):
        # Excessive rendering requires render FPS > encode FPS everywhere.
        for bench in BENCHMARKS.values():
            assert bench.render.mean_ms + bench.copy.mean_ms < bench.encode.mean_ms

    def test_decode_is_fastest_stage(self):
        # Fig. 4 caption: decoding time is relatively lower.
        for bench in BENCHMARKS.values():
            assert bench.decode.mean_ms < bench.encode.mean_ms


class TestStageModelScaling:
    def test_1080p_slower_than_720p(self):
        bench = get_benchmark("IM")
        m720 = bench.stage_models(PRIVATE_CLOUD, Resolution.R720P)
        m1080 = bench.stage_models(PRIVATE_CLOUD, Resolution.R1080P)
        for stage in ("render", "copy", "encode", "decode"):
            assert m1080[stage].mean_ms > m720[stage].mean_ms

    def test_gce_renders_faster_than_private(self):
        bench = get_benchmark("ITP")
        private = bench.stage_models(PRIVATE_CLOUD, Resolution.R720P)
        gce = bench.stage_models(GCE, Resolution.R720P)
        assert gce["render"].mean_ms < private["render"].mean_ms

    def test_frame_size_scales_with_resolution(self):
        bench = get_benchmark("IM")
        s720 = bench.frame_size_model(Resolution.R720P)
        s1080 = bench.frame_size_model(Resolution.R1080P)
        assert s1080.mean_kb == pytest.approx(s720.mean_kb * 2.1)


class TestResolution:
    def test_default_fps_targets_match_paper(self):
        # Sec. 6.1: 60 FPS at 720p, 30 FPS at 1080p.
        assert Resolution.R720P.default_fps_target == 60
        assert Resolution.R1080P.default_fps_target == 30


class TestPlatforms:
    def test_registry(self):
        assert set(PLATFORMS) == {"private", "gce", "local"}

    def test_ping_split_matches_paper(self):
        # ~2 ms private, ~25 ms GCE
        assert PRIVATE_CLOUD.rtt_ms == pytest.approx(2.0)
        assert GCE.rtt_ms == pytest.approx(25.0)

    def test_gce_is_bandwidth_constrained(self):
        assert GCE.bandwidth_mbps < PRIVATE_CLOUD.bandwidth_mbps

    def test_transmit_time(self):
        # 60 KB at 42 Mbps ~ 11.7 ms
        t = GCE.transmit_ms(60 * 1024)
        assert t == pytest.approx(60 * 1024 * 8 / 42000.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            PlatformProfile(
                name="x", description="", uplink_ms=1, downlink_ms=1,
                bandwidth_mbps=0, transmit_jitter_cv=0.1, send_buffer_bytes=1,
                render_time_factor=1, encode_time_factor=1,
            )

    def test_congestion_precondition_on_gce(self):
        """The mechanism behind NoReg's GCE latency blow-up.

        InMind encodes ~93 FPS at ~60 KB/frame: the offered load must
        exceed GCE bandwidth (congestion) but not private bandwidth.
        """
        offered_mbps = 93 * 60 * 1024 * 8 / 1e6
        assert offered_mbps > GCE.bandwidth_mbps
        assert offered_mbps < PRIVATE_CLOUD.bandwidth_mbps
