"""End-to-end assertions of the paper's headline claims (shape, not
absolute numbers).

These tests run the same machinery as the benchmark harness but with
short simulations and a reduced benchmark set, so the whole module
stays fast while still pinning every qualitative result the paper
reports.  The full-scale regeneration lives in ``benchmarks/``.
"""

import pytest

from repro.experiments import ExperimentConfig, PlatformRes, Runner
from repro.workloads import GCE, PRIVATE_CLOUD, Resolution
from tests.records import planned_record

PRIV720 = PlatformRes(PRIVATE_CLOUD, Resolution.R720P)
GCE720 = PlatformRes(GCE, Resolution.R720P)
GCE1080 = PlatformRes(GCE, Resolution.R1080P)


@pytest.fixture(scope="module")
def runner():
    return Runner(seed=1, duration_ms=10000.0, warmup_ms=1500.0)


def cell(runner, bench, combo, spec):
    return planned_record(runner, bench, ExperimentConfig(combo, spec))


class TestSection4Analysis:
    """The InMind analysis of Sec. 4 (Figs. 3, 6, 7)."""

    def test_fig3_noreg_fps_split(self, runner):
        r = cell(runner, "IM", PRIV720, "NoReg")
        assert 170 <= r.render_fps <= 210          # paper: ~189
        assert 80 <= r.encode_fps <= 100           # paper: ~93
        assert abs(r.encode_fps - r.client_fps) < 3

    def test_fig3_int60_undershoots(self, runner):
        r = cell(runner, "IM", PRIV720, "Int60")
        assert 50 <= r.client_fps < 60             # paper: 53

    def test_fig3_intmax_collapses(self, runner):
        # The ratchet keeps decaying with run length (0.78x at 10 s,
        # 0.58x at 60 s); the paper's minutes-long runs land at ~0.5x
        # (46 vs 93 FPS).  At this module's 10 s horizon, assert the
        # collapse is already well underway.
        r = cell(runner, "IM", PRIV720, "IntMax")
        noreg = cell(runner, "IM", PRIV720, "NoReg")
        assert r.client_fps < 0.85 * noreg.client_fps

    def test_fig3_rvs60_undershoots(self, runner):
        r = cell(runner, "IM", PRIV720, "RVS60")
        assert 48 <= r.client_fps < 60             # paper: 54

    def test_fig3_rvsmax_below_noreg(self, runner):
        r = cell(runner, "IM", PRIV720, "RVSMax")
        noreg = cell(runner, "IM", PRIV720, "NoReg")
        assert r.client_fps < 0.92 * noreg.client_fps   # paper: 76 vs 93

    def test_fig6_regulation_raises_latency(self, runner):
        noreg = cell(runner, "IM", PRIV720, "NoReg").mtp_mean_ms
        for spec in ("Int60", "IntMax", "RVS60"):
            assert cell(runner, "IM", PRIV720, spec).mtp_mean_ms > noreg

    def test_fig7_regulation_improves_dram(self, runner):
        noreg = cell(runner, "IM", PRIV720, "NoReg")
        int60 = cell(runner, "IM", PRIV720, "Int60")
        assert int60.row_miss_rate < noreg.row_miss_rate - 0.05
        assert int60.read_access_ns < noreg.read_access_ns * 0.8
        assert int60.ipc > noreg.ipc * 1.05


class TestTable2Claims:
    BENCHES = ("IM", "ITP", "D2")

    def test_noreg_gaps_huge(self, runner):
        gaps = [cell(runner, b, PRIV720, "NoReg").fps_gap_mean for b in self.BENCHES]
        assert sum(gaps) / len(gaps) > 40

    def test_itp_is_worst_offender(self, runner):
        gaps = {b: cell(runner, b, PRIV720, "NoReg").fps_gap_mean for b in self.BENCHES}
        assert max(gaps, key=gaps.get) == "ITP"

    def test_odr_gap_small(self, runner):
        for b in self.BENCHES:
            assert cell(runner, b, PRIV720, "ODRMax").fps_gap_mean < 5

    def test_nopri_gap_below_odr(self, runner):
        for b in self.BENCHES:
            nopri = cell(runner, b, PRIV720, "ODRMax-noPri").fps_gap_mean
            odr = cell(runner, b, PRIV720, "ODRMax").fps_gap_mean
            assert nopri <= odr + 0.5
            assert nopri < 1.2


class TestSection63ClientFps:
    def test_odrmax_beats_noreg(self, runner):
        for bench in ("IM", "RE", "STK"):
            odr = cell(runner, bench, PRIV720, "ODRMax").client_fps
            noreg = cell(runner, bench, PRIV720, "NoReg").client_fps
            assert odr > noreg

    def test_odr_fixed_targets_met(self, runner):
        for bench in ("IM", "RE", "D2"):
            assert cell(runner, bench, PRIV720, "ODR60").client_fps >= 59.5
            assert cell(runner, bench, GCE1080, "ODR30").client_fps >= 29.5

    def test_int_rvs_miss_fixed_targets(self, runner):
        assert cell(runner, "IM", PRIV720, "Int60").client_fps < 60
        assert cell(runner, "IM", PRIV720, "RVS60").client_fps < 60

    def test_odrmax_beats_intmax_and_rvsmax(self, runner):
        odr = cell(runner, "IM", PRIV720, "ODRMax").client_fps
        assert odr > cell(runner, "IM", PRIV720, "IntMax").client_fps * 1.3
        assert odr > cell(runner, "IM", PRIV720, "RVSMax").client_fps * 1.15


class TestSection64Latency:
    def test_noreg_gce_latency_blows_up(self, runner):
        r = cell(runner, "IM", GCE720, "NoReg")
        assert r.mtp_mean_ms > 500          # paper: seconds

    def test_odr_gce_720p_meets_100ms(self, runner):
        for spec in ("ODRMax", "ODR60"):
            r = cell(runner, "IM", GCE720, spec)
            assert r.mtp_mean_ms < 100      # paper: <77ms avg

    def test_odr_gce_1080p_near_120ms(self, runner):
        for spec in ("ODRMax", "ODR30"):
            r = cell(runner, "IM", GCE1080, spec)
            assert r.mtp_mean_ms < 160      # paper: <120ms avg

    def test_odr_latency_below_noreg_on_private(self, runner):
        odr = cell(runner, "IM", PRIV720, "ODRMax").mtp_mean_ms
        noreg = cell(runner, "IM", PRIV720, "NoReg").mtp_mean_ms
        assert odr < noreg

    def test_odr_latency_beats_int_and_rvs(self, runner):
        for bench in ("IM", "RE"):
            odr = cell(runner, bench, PRIV720, "ODR60").mtp_mean_ms
            assert odr < cell(runner, bench, PRIV720, "Int60").mtp_mean_ms
            assert odr < cell(runner, bench, PRIV720, "RVS60").mtp_mean_ms


class TestSection65Efficiency:
    def test_power_reduction_ordering(self, runner):
        noreg = cell(runner, "ITP", PRIV720, "NoReg").power_w
        odrmax = cell(runner, "ITP", PRIV720, "ODRMax").power_w
        odr60 = cell(runner, "ITP", PRIV720, "ODR60").power_w
        assert noreg > odrmax > odr60   # paper: 264 > 206 > 145 (ITP)

    def test_odr60_power_saving_magnitude(self, runner):
        """Paper: ODR60 saves ~22% on average (720p private)."""
        savings = []
        for bench in ("IM", "ITP", "RE"):
            noreg = cell(runner, bench, PRIV720, "NoReg").power_w
            odr = cell(runner, bench, PRIV720, "ODR60").power_w
            savings.append(1 - odr / noreg)
        avg = sum(savings) / len(savings)
        assert 0.10 <= avg <= 0.35

    def test_odr_ipc_gain_magnitude(self, runner):
        """Paper: ODR improves IPC by ~7-21% depending on goal."""
        gains = []
        for bench in ("IM", "ITP", "RE"):
            noreg = cell(runner, bench, PRIV720, "NoReg").ipc
            odr = cell(runner, bench, PRIV720, "ODR60").ipc
            gains.append(odr / noreg - 1)
        avg = sum(gains) / len(gains)
        assert 0.05 <= avg <= 0.35

    def test_int_rvs_power_similar_or_lower_than_odr(self, runner):
        """Paper: Int/RVS burn slightly less — but only because they
        deliver less QoS."""
        int60 = cell(runner, "IM", PRIV720, "Int60")
        odr60 = cell(runner, "IM", PRIV720, "ODR60")
        assert int60.power_w <= odr60.power_w + 5
        assert int60.client_fps < odr60.client_fps

    def test_bandwidth_in_paper_range(self, runner):
        """Sec. 6.6: 15-60 Mbps across benchmarks and configurations."""
        for bench in ("IM", "ITP"):
            for combo, spec in ((PRIV720, "ODR60"), (GCE1080, "ODR30")):
                bw = cell(runner, bench, combo, spec).bandwidth_mbps
                assert 10 <= bw <= 70
