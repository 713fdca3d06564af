"""Tests for the double-run schedule verifier (``repro.devtools.determinism``)."""

import time

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.devtools.determinism import (
    ScheduleRecorder,
    fingerprint_run,
    verify_determinism,
)


class _WallClockJitterSampler:
    """Wraps a stage-time sampler with host-wall-clock noise.

    The perturbation is tiny (ppm-scale) and only applied on demand, so
    it models exactly the class of bug the verifier exists to catch: a
    real-time dependency silently leaking into simulated durations.
    """

    def __init__(self, inner):
        self.inner = inner

    def next(self):
        jitter = (time.perf_counter() % 1e-3) * 1e-3  # analyzer: allow=P1 -- the deliberate wall-clock leak the verifier must catch
        return self.inner.next() * (1.0 + jitter)


def _perturb_second_run(system, run_index):
    if run_index == 1:
        system.app._render_sampler = _WallClockJitterSampler(
            system.app._render_sampler
        )


class TestFingerprint:
    def test_same_seed_same_digest(self):
        a = fingerprint_run(11, duration_ms=600.0, warmup_ms=150.0)
        b = fingerprint_run(11, duration_ms=600.0, warmup_ms=150.0)
        assert a.digest == b.digest
        assert a == b

    def test_different_seeds_differ(self):
        a = fingerprint_run(1, duration_ms=600.0, warmup_ms=150.0)
        b = fingerprint_run(2, duration_ms=600.0, warmup_ms=150.0)
        assert a.digest != b.digest

    def test_different_regulators_differ(self):
        a = fingerprint_run(5, regulator="NoReg", duration_ms=600.0, warmup_ms=150.0)
        b = fingerprint_run(5, regulator="ODR60", duration_ms=600.0, warmup_ms=150.0)
        assert a.digest != b.digest

    def test_fingerprint_counts_events_and_spans(self):
        fp = fingerprint_run(7, duration_ms=600.0, warmup_ms=150.0)
        assert fp.events_fired > 0
        assert fp.events_scheduled >= fp.events_fired
        assert fp.processes_started > 0
        assert fp.spans > 0


class TestVerify:
    def test_verifier_passes_on_clean_engine(self):
        report = verify_determinism(seed=4, duration_ms=600.0, warmup_ms=150.0)
        assert report.ok
        assert "MATCH" in report.describe()

    @settings(max_examples=8, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**31 - 1))
    def test_verifier_passes_for_random_seeds(self, seed):
        report = verify_determinism(
            seed=seed, regulator="NoReg", duration_ms=400.0, warmup_ms=100.0
        )
        assert report.ok

    def test_verifier_catches_wall_clock_leak(self):
        report = verify_determinism(
            seed=4,
            duration_ms=600.0,
            warmup_ms=150.0,
            mutate=_perturb_second_run,
        )
        assert not report.ok
        assert "DIVERGED" in report.describe()


class TestScheduleRecorder:
    def test_recorder_pins_wall_clock(self):
        recorder = ScheduleRecorder()
        assert recorder._perf_counter() == 0.0

    def test_digest_sensitive_to_single_event(self):
        a = ScheduleRecorder()
        b = ScheduleRecorder()
        a.on_event_scheduled(1.0, 0, 1)
        b.on_event_scheduled(1.0 + 1e-12, 0, 1)
        assert a.hexdigest() != b.hexdigest()

    def test_digest_sensitive_to_order(self):
        a = ScheduleRecorder()
        b = ScheduleRecorder()
        a.on_event_scheduled(1.0, 0, 1)
        a.on_event_scheduled(2.0, 0, 2)
        b.on_event_scheduled(2.0, 0, 2)
        b.on_event_scheduled(1.0, 0, 1)
        assert a.hexdigest() != b.hexdigest()
