"""Tests for the CSV export module and the extended CLI commands."""

import csv
import io

import pytest

from repro.cli import main
from repro.experiments import ExperimentConfig, PlatformRes, Runner
from repro.experiments.export import EXPORT_FIELDS, record_to_row, records_to_csv
from repro.workloads import PRIVATE_CLOUD, Resolution
from tests.records import planned_record


@pytest.fixture(scope="module")
def record():
    runner = Runner(seed=1, duration_ms=4000.0, warmup_ms=800.0)
    combo = PlatformRes(PRIVATE_CLOUD, Resolution.R720P)
    return planned_record(runner, "IM", ExperimentConfig(combo, "ODR60"))


class TestExport:
    def test_row_covers_all_fields(self, record):
        row = record_to_row(record)
        assert set(row) == set(EXPORT_FIELDS)

    def test_row_values(self, record):
        row = record_to_row(record)
        assert row["benchmark"] == "IM"
        assert row["regulator"] == "ODR60"
        assert row["fps_target"] == "60"
        assert float(row["client_fps"]) > 50

    def test_noreg_has_empty_target(self):
        runner = Runner(seed=1, duration_ms=3000.0, warmup_ms=500.0)
        combo = PlatformRes(PRIVATE_CLOUD, Resolution.R720P)
        row = record_to_row(planned_record(runner, "RE", ExperimentConfig(combo, "NoReg")))
        assert row["fps_target"] == ""

    def test_csv_roundtrip(self, record):
        buffer = io.StringIO()
        count = records_to_csv([record, record], buffer)
        assert count == 2
        buffer.seek(0)
        rows = list(csv.DictReader(buffer))
        assert len(rows) == 2
        assert rows[0]["benchmark"] == "IM"

    def test_csv_file_output(self, record, tmp_path):
        path = tmp_path / "records.csv"
        records_to_csv([record], str(path))
        assert path.read_text().startswith("benchmark,")


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    assert code == 0
    return out


class TestCliCompare:
    def test_compare_output(self, capsys):
        out = run_cli(
            capsys, "--duration", "2500", "--warmup", "500",
            "compare", "IM", "NoReg", "ODRMax", "--seeds", "3",
        )
        assert "ODRMax minus NoReg" in out
        assert "client_fps" in out
        assert "fps_gap_mean" in out
        # Three seeds cannot carry a verdict (the bootstrap CI is just
        # [min, max] of the deltas): the header says so, no line is marked.
        header, *lines = out.strip().splitlines()
        assert "no [+]/[-] below 4 seeds" in header
        assert not any("[+]" in l or "[-]" in l for l in lines)

    def test_compare_flags_significance(self, capsys):
        out = run_cli(
            capsys, "--duration", "3000", "--warmup", "500",
            "compare", "IM", "NoReg", "ODR60", "--seeds", "4",
        )
        # the gap collapse is unambiguous at the first seed count with verdicts
        gap_line = next(l for l in out.splitlines() if "fps_gap_mean" in l)
        assert "[-]" in gap_line

    def test_compare_rejects_zero_seeds(self, capsys):
        code = main(["compare", "IM", "NoReg", "ODR60", "--seeds", "0"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.strip() == "compare: --seeds must be at least 1, got 0"

    def test_compare_failed_cell_exits_one(self, capsys):
        code = main([
            "--duration", "1000", "--warmup", "200",
            "compare", "IM", "NoReg", "Bogus", "--seeds", "1",
        ])
        assert code == 1
        assert "compare: FAILED IM/Priv720p/Bogus" in capsys.readouterr().err


class TestCliConsolidate:
    def test_consolidate_output(self, capsys):
        out = run_cli(
            capsys, "--duration", "3000", "--warmup", "500",
            "consolidate", "ODR60", "--max-sessions", "2",
        )
        assert "1 session(s)" in out and "2 session(s)" in out
        assert "GPU" in out

    def test_consolidate_stdout_is_pinned(self, capsys):
        out = run_cli(
            capsys, "--duration", "2000", "--warmup", "500",
            "consolidate", "ODR60", "--max-sessions", "3",
        )
        assert out == (
            "  1 session(s): [0AD:62]  GPU  58%   151.7 W  MEETS TARGET\n"
            "  2 session(s): [0AD:46, D2:45]  GPU  99%   174.2 W  degraded\n"
            "  3 session(s): [0AD:36, D2:36, IM:38]  GPU 100%   184.6 W  degraded\n"
        )


class TestCliBreakdown:
    def test_breakdown_output(self, capsys):
        out = run_cli(
            capsys, "--duration", "4000", "--warmup", "800",
            "breakdown", "IM", "ODR60",
        )
        assert "input_wait" in out and "transmit_wait" in out and "total" in out

    def test_breakdown_gce_congestion_dominates(self, capsys):
        out = run_cli(
            capsys, "--duration", "5000", "--warmup", "800",
            "breakdown", "IM", "NoReg", "--platform", "gce",
        )
        lines = {l.split()[0]: float(l.split()[1]) for l in out.splitlines()[1:]}
        assert lines["transmit_wait"] > 10 * lines["render"]


class TestCliMatrix:
    def test_matrix_csv(self, capsys, tmp_path):
        path = tmp_path / "matrix.csv"
        out = run_cli(
            capsys, "--duration", "1500", "--warmup", "300", "matrix", str(path)
        )
        assert "168 rows" in out
        rows = list(csv.DictReader(path.open()))
        assert len(rows) == 168
        regulators = {r["regulator"] for r in rows}
        assert {"NoReg", "ODRMax", "ODR60", "ODR30"} <= regulators

    def test_matrix_with_ablation(self, capsys, tmp_path):
        path = tmp_path / "matrix.csv"
        out = run_cli(
            capsys, "--duration", "1200", "--warmup", "300",
            "matrix", str(path), "--ablation",
        )
        assert "192 rows" in out  # 32 configs x 6 benchmarks
