"""CLI tests for the observability verbs: profile, bench, runs, baseline,
compare-runs."""

import json
import os

import pytest

from repro.cli import main

FAST = ("--duration", "4000", "--warmup", "500")


def run_cli(capsys, *argv, expect=0):
    code = main(list(argv))
    captured = capsys.readouterr()
    assert code == expect, captured.out + captured.err
    return captured.out


@pytest.fixture()
def ledger_dir(tmp_path):
    return str(tmp_path / "runs")


def bench_fast(capsys, ledger_dir, *extra):
    return run_cli(
        capsys, *FAST, "bench", "--ledger", ledger_dir, "--seeds", "1",
        "--benchmarks", "IM", "--regulators", "NoReg", "ODR60", *extra,
    )


class TestProfile:
    def test_profile_text_report(self, capsys):
        out = run_cli(capsys, *FAST, "profile", "--benchmark", "IM",
                      "--regulator", "ODR60")
        assert "engine profile:" in out
        assert "stage wall time:" in out
        assert "render" in out
        assert "callsites:" in out

    def test_profile_json_summary(self, capsys):
        out = run_cli(capsys, *FAST, "profile", "--json")
        summary = json.loads(out)
        assert summary["events_fired"] > 0
        assert summary["total_wall_s"] > 0
        # per-stage wall time sums to the profiled total within 10%
        stage_sum = sum(summary["wall_by_stage"].values())
        assert abs(stage_sum - summary["total_wall_s"]) <= 0.1 * summary["total_wall_s"]

    def test_profile_trace_overlay(self, capsys, tmp_path):
        trace_path = tmp_path / "prof.trace.json"
        out = run_cli(capsys, *FAST, "profile", "--trace", str(trace_path))
        assert "with overlay" in out
        trace = json.loads(trace_path.read_text())
        names = {e["name"] for e in trace["traceEvents"]}
        assert "event_queue_depth" in names


class TestBenchAndLedgerVerbs:
    def test_bench_writes_ledger_and_report(self, capsys, ledger_dir):
        out = bench_fast(capsys, ledger_dir)
        assert "2 cell(s): executed=2 cached=0" in out
        assert f"ledger at {ledger_dir}" in out
        from repro.obs import RunLedger

        records = RunLedger(ledger_dir).records()
        assert len(records) == 2
        labels = {r["label"] for r in records}
        assert labels == {"IM/Priv720p/NoReg", "IM/Priv720p/ODR60"}

    def test_bench_failed_cell_exits_one_and_is_named(
        self, capsys, ledger_dir, monkeypatch
    ):
        from repro.experiments import executor

        real = executor.make_regulator

        def make_regulator(spec):
            # The cell fails as it executes, past the plan's spec check.
            if spec == "ODR60":
                raise RuntimeError("regulator crashed")
            return real(spec)

        monkeypatch.setattr(executor, "make_regulator", make_regulator)
        code = main([
            *FAST, "bench", "--ledger", ledger_dir, "--seeds", "1",
            "--benchmarks", "IM", "--regulators", "NoReg", "ODR60",
        ])
        captured = capsys.readouterr()
        assert code == 1
        assert "failed=1" in captured.out
        assert "bench: FAILED IM/Priv720p/ODR60" in captured.err
        # The cell that did run still reached the ledger.
        from repro.obs import RunLedger

        assert [r["label"] for r in RunLedger(ledger_dir).records()] == [
            "IM/Priv720p/NoReg"
        ]

    def test_bench_unknown_regulator_exits_two(self, capsys, ledger_dir):
        code = main([
            *FAST, "bench", "--ledger", ledger_dir, "--regulators", "NoReg", "Bogus",
        ])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err == "bench: unrecognized regulator spec 'Bogus'\n"
        assert not os.path.exists(os.path.join(ledger_dir, "ledger.jsonl"))

    def test_bench_resume_recalls_every_cell(self, capsys, ledger_dir):
        bench_fast(capsys, ledger_dir, "--resume")
        out = bench_fast(capsys, ledger_dir, "--resume")
        assert "executed=0 cached=2" in out
        from repro.obs import RunLedger

        assert len(RunLedger(ledger_dir).records()) == 2

    def test_runs_lists_the_ledger(self, capsys, ledger_dir):
        bench_fast(capsys, ledger_dir)
        out = run_cli(capsys, "runs", "--ledger", ledger_dir)
        assert "2 record(s)" in out
        # Labels carry the platform-resolution group since the plan/execute split.
        assert "IM/Priv720p/NoReg" in out and "IM/Priv720p/ODR60" in out

    def test_runs_on_empty_ledger(self, capsys, ledger_dir):
        out = run_cli(capsys, "runs", "--ledger", ledger_dir)
        assert "empty" in out

    def test_baseline_pin_show_and_missing(self, capsys, ledger_dir):
        run_cli(capsys, "baseline", "--ledger", ledger_dir, expect=1)
        bench_fast(capsys, ledger_dir)
        out = run_cli(capsys, "baseline", "latest", "--ledger", ledger_dir)
        assert "pinned" in out
        out = run_cli(capsys, "baseline", "--ledger", ledger_dir)
        assert "IM/Priv720p/ODR60" in out

    def test_compare_runs_same_cell_ok(self, capsys, ledger_dir):
        bench_fast(capsys, ledger_dir)
        out = run_cli(capsys, "compare-runs", "latest", "latest",
                      "--ledger", ledger_dir)
        assert "OK" in out

    def test_compare_runs_regression_exits_one(self, capsys, ledger_dir):
        bench_fast(capsys, ledger_dir)
        # ODR60 (latest) -> NoReg (latest~1): MtP latency balloons
        out = run_cli(capsys, "compare-runs", "latest", "latest~1",
                      "--ledger", ledger_dir, expect=1)
        assert "REGRESSED" in out

    def test_compare_runs_json_format(self, capsys, ledger_dir):
        bench_fast(capsys, ledger_dir)
        out = run_cli(capsys, "compare-runs", "latest", "latest",
                      "--ledger", ledger_dir, "--format", "json")
        payload = json.loads(out)
        assert payload["verdict"] == "ok"
        assert {m["name"] for m in payload["metrics"]} >= {
            "client FPS", "FPS gap", "MtP latency (ms)"
        }

    def test_compare_runs_bad_reference_exits_two(self, capsys, ledger_dir):
        run_cli(capsys, "compare-runs", "latest", "--ledger", ledger_dir,
                expect=2)

    def test_compare_runs_accepts_record_files(self, capsys, ledger_dir, tmp_path):
        bench_fast(capsys, ledger_dir)
        from repro.obs import RunLedger

        record = RunLedger(ledger_dir).latest()
        standalone = tmp_path / "baseline.json"
        standalone.write_text(json.dumps(record))
        out = run_cli(capsys, "compare-runs", str(standalone), record["run_id"],
                      "--ledger", ledger_dir)
        assert "OK" in out

    def test_matrix_ledger_flag(self, capsys, tmp_path):
        ledger_dir = str(tmp_path / "mruns")
        run_cli(capsys, "--duration", "2000", "--warmup", "500",
                "matrix", str(tmp_path / "out.csv"), "--ledger", ledger_dir)
        from repro.obs import RunLedger

        ledger = RunLedger(ledger_dir)
        # full paper matrix: 28 configurations x 6 benchmarks
        assert len(ledger) == 168
        assert all("engine" in r for r in ledger.records())
