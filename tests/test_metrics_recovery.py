"""Unit tests for the recovery analytics on synthetic event series."""

import pytest

from repro.metrics.recovery import RecoveryStats, compute_recovery


def steady(rate_fps, start, end):
    """Perfectly periodic event times at ``rate_fps`` over [start, end)."""
    period = 1000.0 / rate_fps
    times = []
    t = start
    while t < end:
        times.append(t)
        t += period
    return times


T_START, T_END = 1000.0, 20000.0
FAULT = (8000.0, 8500.0)


def series_with_gap(resume_at, rate=60.0):
    """60 FPS everywhere except a silent gap [fault_start, resume_at)."""
    return steady(rate, T_START, FAULT[0]) + steady(rate, resume_at, T_END)


class TestComputeRecovery:
    def test_instant_recovery(self):
        decode = series_with_gap(FAULT[1])
        stats = compute_recovery(
            decode, decode, [], FAULT[0], FAULT[1], T_START, T_END
        )
        assert stats.pre_fault_fps == pytest.approx(60.0, abs=1.0)
        assert stats.time_to_recover_ms == 0.0
        # 500 ms of silence at 60 FPS = 30 frames missing.
        assert stats.frames_lost == pytest.approx(30.0, abs=1.5)

    def test_delayed_recovery(self):
        decode = series_with_gap(FAULT[1] + 2000.0)
        stats = compute_recovery(
            decode, decode, [], FAULT[0], FAULT[1], T_START, T_END
        )
        assert stats.time_to_recover_ms == pytest.approx(2000.0, abs=250.0)

    def test_never_recovers(self):
        # Delivery stops at the fault and never resumes.
        decode = steady(60.0, T_START, FAULT[0])
        stats = compute_recovery(
            decode, decode, [], FAULT[0], FAULT[1], T_START, T_END
        )
        assert stats.time_to_recover_ms is None
        assert isinstance(stats, RecoveryStats)

    def test_degraded_rate_below_band_never_recovers(self):
        # Resumes instantly, but at half rate: below the 0.9 band.
        decode = steady(60.0, T_START, FAULT[0]) + steady(30.0, FAULT[1], T_END)
        stats = compute_recovery(
            decode, decode, [], FAULT[0], FAULT[1], T_START, T_END
        )
        assert stats.time_to_recover_ms is None

    def test_worst_gap_measures_excess_rendering(self):
        # Render keeps running at 60 through the fault; decode gaps out.
        render = steady(60.0, T_START, T_END)
        decode = series_with_gap(FAULT[1] + 1000.0)
        stats = compute_recovery(
            decode, render, [], FAULT[0], FAULT[1], T_START, T_END
        )
        assert stats.worst_fps_gap == pytest.approx(60.0, abs=4.0)

    def test_mtp_tail_covers_fault_and_recovery_only(self):
        decode = series_with_gap(FAULT[1])
        samples = [
            (7000.0, 10.0),    # pre-fault: excluded
            (8100.0, 400.0),   # during the fault: included
            (8600.0, 80.0),    # during recovery hold: included
            (19000.0, 999.0),  # long after: excluded
        ]
        stats = compute_recovery(
            decode, decode, samples, FAULT[0], FAULT[1], T_START, T_END
        )
        assert stats.recovery_mtp_p99_ms == pytest.approx(400.0, rel=0.05)

    def test_pre_fault_fallback_when_fault_is_immediate(self):
        decode = steady(50.0, T_START, T_END)
        stats = compute_recovery(
            decode, decode, [], T_START, T_START + 100.0, T_START, T_END
        )
        assert stats.pre_fault_fps == pytest.approx(50.0, abs=1.0)

    def test_validation(self):
        decode = steady(60.0, T_START, T_END)
        with pytest.raises(ValueError):
            compute_recovery(decode, decode, [], 5000.0, 5000.0, T_START, T_END)
        with pytest.raises(ValueError):
            compute_recovery(
                decode, decode, [], *FAULT, T_START, T_END, band_frac=0.0
            )
        with pytest.raises(ValueError):
            compute_recovery(
                decode, decode, [], *FAULT, T_START, T_END, hold_windows=0
            )
