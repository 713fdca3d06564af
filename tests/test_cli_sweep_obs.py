"""CLI tests for the sweep telemetry plane: ``--events``/``--live``,
``watch``, ``sweep-trace``, ``cost``, and the failure surfacing that
``runs`` grew alongside them."""

import json
import os

import pytest

from repro.cli import main
from repro.obs import sweep as sweepbus
from repro.obs.sweep import SweepEventBus, events_path_for, validate_events_file

FAST = ("--duration", "2000", "--warmup", "500")
SMALL_MATRIX = ("--benchmarks", "IM", "--groups", "Priv720p")


def run_cli(capsys, *argv, expect=0):
    code = main(list(argv))
    captured = capsys.readouterr()
    assert code == expect, captured.out + captured.err
    return captured.out


@pytest.fixture()
def ledger_dir(tmp_path):
    return str(tmp_path / "runs")


def matrix_with_events(capsys, tmp_path, ledger_dir, *extra):
    return run_cli(
        capsys, *FAST, "matrix", str(tmp_path / "m.csv"), *SMALL_MATRIX,
        "--ledger", ledger_dir, "--events", *extra,
    )


class TestEventsFlag:
    def test_matrix_events_writes_valid_log(self, capsys, tmp_path, ledger_dir):
        out = matrix_with_events(capsys, tmp_path, ledger_dir)
        path = events_path_for(ledger_dir)
        assert f"sweep events at {path}" in out
        assert os.path.exists(path)
        assert validate_events_file(path) == []

    def test_live_without_events_needs_no_ledger_file(self, capsys, tmp_path):
        ledger = str(tmp_path / "runs")
        out = run_cli(
            capsys, *FAST, "matrix", str(tmp_path / "m.csv"), *SMALL_MATRIX,
            "--ledger", ledger, "--live",
        )
        # Plain-line dashboard output went to stdout; no events file.
        assert "sweep begin:" in out
        assert "sweep end:" in out
        assert not os.path.exists(events_path_for(ledger))

    def test_chaos_events_flag(self, capsys, tmp_path, ledger_dir):
        out = run_cli(
            capsys, *FAST, "chaos", "--benchmarks", "IM",
            "--fault", "packet_loss", "--seeds", "1",
            "--ledger", ledger_dir, "--events",
            "-o", str(tmp_path / "CHAOS_report.json"),
        )
        path = events_path_for(ledger_dir)
        assert "chaos: sweep events at" in out
        assert validate_events_file(path) == []


class TestWatch:
    def test_watch_replays_recorded_sweep(self, capsys, tmp_path, ledger_dir):
        matrix_with_events(capsys, tmp_path, ledger_dir)
        out = run_cli(
            capsys, "watch", "--ledger", ledger_dir, "--timeout", "2",
            "--poll", "0.01",
        )
        assert "watch: following" in out
        assert "sweep end:" in out

    def test_watch_times_out_without_events(self, capsys, ledger_dir):
        out = run_cli(
            capsys, "watch", "--ledger", ledger_dir, "--timeout", "0.05",
            "--poll", "0.01", expect=1,
        )
        assert "watch: no events at" in out


class TestSweepTraceVerb:
    def test_trace_renders_from_ledger(self, capsys, tmp_path, ledger_dir):
        matrix_with_events(capsys, tmp_path, ledger_dir)
        trace_path = tmp_path / "sweep.trace.json"
        out = run_cli(
            capsys, "sweep-trace", "--ledger", ledger_dir, "-o", str(trace_path)
        )
        assert "trace event(s) for sweep" in out
        trace = json.loads(trace_path.read_text(encoding="utf-8"))
        spans = [e for e in trace["traceEvents"] if e["ph"] == "X"]
        assert len(spans) == 7  # IM x Priv720p: one span per regulator cell
        lanes = {
            e["args"]["name"]
            for e in trace["traceEvents"]
            if e["ph"] == "M" and e["name"] == "thread_name"
        }
        assert "sweep control" in lanes and "cached cells" in lanes

    def test_trace_missing_events_exits_two(self, capsys, ledger_dir, tmp_path):
        run_cli(
            capsys, "sweep-trace", "--ledger", ledger_dir,
            "-o", str(tmp_path / "t.json"), expect=2,
        )

    def test_trace_unknown_sweep_id_exits_two(self, capsys, tmp_path, ledger_dir):
        matrix_with_events(capsys, tmp_path, ledger_dir)
        run_cli(
            capsys, "sweep-trace", "--ledger", ledger_dir, "--sweep", "zzzzzz",
            "-o", str(tmp_path / "t.json"), expect=2,
        )


class TestCostVerb:
    def test_cost_breakdown_and_json(self, capsys, tmp_path, ledger_dir):
        matrix_with_events(capsys, tmp_path, ledger_dir, "--workers", "2")
        json_path = tmp_path / "cost.json"
        out = run_cli(
            capsys, "cost", "--ledger", ledger_dir, "-o", str(json_path)
        )
        assert "where the wall clock went:" in out
        assert "pool_warmup" in out and "serialization" in out
        report = json.loads(json_path.read_text(encoding="utf-8"))
        assert report["cells"] == 7
        assert report["executed"] == 7
        assert report["workers"] == 2
        assert len(report["cell_rows"]) == 7
        assert report["parallel_efficiency"] is not None

    def test_cost_without_events_exits_two(self, capsys, ledger_dir):
        run_cli(capsys, "cost", "--ledger", ledger_dir, expect=2)


class TestRunsSurfacing:
    """Satellite: ``runs`` reports quarantined cells and sweep failures."""

    def test_runs_lists_quarantined_cells(self, capsys, tmp_path, ledger_dir):
        # --resume persists cells under <ledger>/cells/ for the next pass.
        matrix_with_events(capsys, tmp_path, ledger_dir, "--resume")
        cells_dir = os.path.join(ledger_dir, "cells")
        victim = sorted(os.listdir(cells_dir))[0]
        with open(os.path.join(cells_dir, victim), "w", encoding="utf-8") as f:
            f.write("{ corrupt")
        # A resume pass trips over the corrupt cell and quarantines it.
        with pytest.warns(RuntimeWarning):
            matrix_with_events(capsys, tmp_path, ledger_dir, "--resume")
        out = run_cli(capsys, "runs", "--ledger", ledger_dir)
        assert "quarantined corrupt cell(s)" in out
        assert victim.replace(".json", "") in out
        assert "will re-execute on the next resume" in out

    def test_runs_lists_last_sweep_failures(self, capsys, ledger_dir):
        os.makedirs(ledger_dir, exist_ok=True)
        with SweepEventBus(path=events_path_for(ledger_dir)) as bus:
            bus.emit(sweepbus.SWEEP_BEGIN, cells=2, executor="serial", workers=1)
            bus.emit(
                sweepbus.CELL_FAILED, run_id="deadbeef", label="IM/x",
                error="ValueError: boom", attempts=2,
            )
            bus.emit(
                sweepbus.CELL_TIMED_OUT, run_id="cafebabe", label="RE/y",
                timeout_s=1.5,
            )
            bus.emit(sweepbus.SWEEP_END, executed=0, cached=0, failed=2,
                     wall_s=0.1)
        out = run_cli(capsys, "runs", "--ledger", ledger_dir)
        assert "failed cell(s) in the last recorded sweep:" in out
        assert "IM/x [deadbeef]: ValueError: boom (after 2 attempt(s))" in out
        assert "RE/y [cafebabe]: timed out after 1.5s" in out

    def test_runs_quiet_when_all_green(self, capsys, tmp_path, ledger_dir):
        matrix_with_events(capsys, tmp_path, ledger_dir)
        out = run_cli(capsys, "runs", "--ledger", ledger_dir)
        assert "quarantined" not in out
        assert "failed cell(s)" not in out
