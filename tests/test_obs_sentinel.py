"""The regression sentinel and its stdlib inference kit."""

import json

import pytest

from repro.metrics import (
    bootstrap_diff_ci,
    bootstrap_mean_ci,
    mann_whitney_u,
)
from repro.obs import Telemetry, build_record, compare_records
from repro.pipeline import CloudSystem, SystemConfig
from repro.regulators import make_regulator
from repro.workloads import PLATFORMS, Resolution


class TestMannWhitney:
    def test_identical_samples_are_not_significant(self):
        result = mann_whitney_u([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])
        assert result.p_value == 1.0

    def test_fully_separated_samples_are_significant(self):
        a = [float(i) for i in range(20)]
        b = [float(i) + 100.0 for i in range(20)]
        result = mann_whitney_u(a, b)
        assert result.p_value < 1e-4

    def test_u_statistic_counts_wins(self):
        # every b beats every a: U (wins of a over b) is 0
        assert mann_whitney_u([1.0, 2.0], [10.0, 11.0]).u == 0.0
        # symmetric case splits the wins
        assert mann_whitney_u([1.0, 10.0], [1.0, 10.0]).u == 2.0

    def test_empty_input_degenerates_to_p_one(self):
        assert mann_whitney_u([], [1.0]).p_value == 1.0
        assert mann_whitney_u([1.0], []).p_value == 1.0

    def test_all_tied_degenerates_to_p_one(self):
        assert mann_whitney_u([5.0] * 10, [5.0] * 10).p_value == 1.0


class TestBootstrap:
    def test_mean_ci_brackets_the_mean(self):
        values = [10.0, 11.0, 12.0, 13.0, 14.0]
        ci = bootstrap_mean_ci(values, seed=3)
        assert ci.low <= 12.0 <= ci.high
        assert ci.estimate == pytest.approx(12.0)

    def test_deterministic_for_a_seed(self):
        values = [1.0, 4.0, 2.0, 8.0, 5.0, 7.0]
        a = bootstrap_mean_ci(values, seed=9)
        b = bootstrap_mean_ci(values, seed=9)
        assert (a.low, a.high) == (b.low, b.high)

    def test_diff_ci_sign_and_containment(self):
        a = [10.0, 10.5, 11.0, 10.2, 10.8] * 4
        b = [v + 5.0 for v in a]
        ci = bootstrap_diff_ci(a, b, seed=1)
        assert ci.estimate == pytest.approx(5.0)
        assert ci.low > 0.0
        assert not ci.contains(0.0)
        same = bootstrap_diff_ci(a, a, seed=1)
        assert same.contains(0.0)


def make_record(run_id, client_fps, fps_gap, mtp, label="cell", wall=1.0, eps=None):
    record = {
        "run_id": run_id,
        "label": label,
        "wall_clock_s": wall,
        "metrics": {},
        "series": {
            "client_fps": list(client_fps),
            "fps_gap": list(fps_gap),
            "mtp_ms": list(mtp),
        },
    }
    if eps is not None:
        record["engine"] = {"events_per_sec": eps}
    return record


BASE = make_record(
    "a" * 16,
    client_fps=[59.0, 60.0, 61.0, 60.0, 59.5, 60.5, 60.0, 59.8, 60.2, 60.0] * 3,
    fps_gap=[1.0, 2.0, 1.5, 2.5, 1.8, 2.2, 1.2, 1.9, 2.1, 1.6] * 3,
    mtp=[22.0, 25.0, 24.0, 23.0, 26.0, 24.5, 23.5, 25.5, 24.2, 23.8] * 3,
    eps=50_000.0,
)


class TestCompareRecords:
    def test_identical_records_verdict_ok(self):
        report = compare_records(BASE, BASE)
        assert report.verdict == "ok"
        assert report.ok
        for comp in report.comparisons:
            assert comp.verdict in ("ok", "info")

    def test_degraded_candidate_flags_regressed(self):
        worse = make_record(
            "b" * 16,
            client_fps=[v - 8.0 for v in BASE["series"]["client_fps"]],
            fps_gap=BASE["series"]["fps_gap"],
            mtp=BASE["series"]["mtp_ms"],
        )
        report = compare_records(BASE, worse)
        assert report.verdict == "regressed"
        assert not report.ok
        by_name = {c.name: c for c in report.comparisons}
        assert by_name["client FPS"].verdict == "regressed"
        assert by_name["client FPS"].p_value < 0.01
        assert not by_name["client FPS"].ci.contains(0.0)

    def test_bad_direction_is_metric_specific(self):
        # MtP going *up* is a regression even though client FPS held
        slower = make_record(
            "c" * 16,
            client_fps=BASE["series"]["client_fps"],
            fps_gap=BASE["series"]["fps_gap"],
            mtp=[v + 10.0 for v in BASE["series"]["mtp_ms"]],
        )
        report = compare_records(BASE, slower)
        by_name = {c.name: c for c in report.comparisons}
        assert by_name["MtP latency (ms)"].verdict == "regressed"
        # and MtP going *down* is an improvement
        faster = make_record(
            "d" * 16,
            client_fps=BASE["series"]["client_fps"],
            fps_gap=BASE["series"]["fps_gap"],
            mtp=[v - 10.0 for v in BASE["series"]["mtp_ms"]],
        )
        assert compare_records(BASE, faster).verdict == "improved"

    def test_tiny_significant_shift_is_within_tolerance(self):
        # statistically detectable but 0.5% shift: tolerance absorbs it
        nudged = make_record(
            "e" * 16,
            client_fps=[v - 0.3 for v in BASE["series"]["client_fps"]],
            fps_gap=BASE["series"]["fps_gap"],
            mtp=BASE["series"]["mtp_ms"],
        )
        report = compare_records(BASE, nudged, tolerance=0.02)
        assert report.verdict == "ok"

    def test_engine_scalars_never_gate(self):
        # a 10x events/sec and wall-clock swing is machine noise: info only
        slow_host = json.loads(json.dumps(BASE))
        slow_host["wall_clock_s"] = 10.0
        slow_host["engine"]["events_per_sec"] = 5_000.0
        report = compare_records(BASE, slow_host)
        assert report.verdict == "ok"
        by_name = {c.name: c for c in report.comparisons}
        assert by_name["events/sec"].verdict == "info"
        assert by_name["wall clock (s)"].verdict == "info"

    def test_missing_series_reported_not_fatal(self):
        bare = {"run_id": "f" * 16, "label": "bare", "series": {}}
        report = compare_records(BASE, bare)
        by_name = {c.name: c for c in report.comparisons}
        assert by_name["client FPS"].verdict == "missing"

    def test_json_and_text_outputs(self):
        report = compare_records(BASE, BASE, alpha=0.05, tolerance=0.1)
        payload = json.loads(report.to_json())
        assert payload["verdict"] == "ok"
        assert payload["alpha"] == 0.05
        assert len(payload["metrics"]) == len(report.comparisons)
        text = report.describe()
        assert "OK" in text
        assert "client FPS" in text


def simulate_record(regulator, seed=1, duration_ms=12000.0):
    config = SystemConfig(
        benchmark="IM",
        platform=PLATFORMS["private"],
        resolution=Resolution("720p"),
        seed=seed,
        duration_ms=duration_ms,
        warmup_ms=2000.0,
    )
    telemetry = Telemetry(engine_probe=True)
    result = CloudSystem(config, make_regulator(regulator), telemetry=telemetry).run()
    payload = {"benchmark": "IM", "regulator": regulator, "duration_ms": duration_ms}
    return build_record(result, payload, label=f"IM/{regulator}", wall_clock_s=1.0)


class TestEndToEnd:
    """The acceptance loop: real simulations through the sentinel."""

    def test_same_seed_rerun_is_ok(self):
        a = simulate_record("ODR60")
        b = simulate_record("ODR60")
        report = compare_records(a, b)
        assert report.verdict == "ok"
        # deterministic re-run: identical distributions, p = 1 everywhere
        for comp in report.comparisons:
            if comp.p_value is not None:
                assert comp.p_value == 1.0

    def test_perturbed_run_is_flagged_regressed(self):
        # halving the FPS target is an unmistakable client-FPS regression
        a = simulate_record("ODR60")
        b = simulate_record("ODR30")
        report = compare_records(a, b)
        assert report.verdict == "regressed"
        by_name = {c.name: c for c in report.comparisons}
        assert by_name["client FPS"].verdict == "regressed"
