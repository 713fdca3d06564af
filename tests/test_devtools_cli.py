"""CLI-level tests for ``odr-sim analyze`` and ``odr-sim verify-determinism``."""

import json

import pytest

from repro.cli import main


@pytest.fixture(scope="module")
def cache_args(tmp_path_factory):
    """One facts cache for the repo-scan tests, outside the checkout."""
    return ["--cache", str(tmp_path_factory.mktemp("analyze") / "facts.json")]


class TestAnalyzeCommand:
    def test_clean_tree_exits_zero(self, tmp_path, capsys):
        (tmp_path / "ok.py").write_text("X = 5\n")
        code = main(["analyze", str(tmp_path), "--no-cache"])
        out = capsys.readouterr().out
        assert code == 0
        assert "0 finding(s)" in out

    def test_violation_exits_nonzero(self, tmp_path, capsys):
        (tmp_path / "bad.py").write_text("import random\n")
        code = main(["analyze", str(tmp_path), "--no-cache"])
        out = capsys.readouterr().out
        assert code == 1
        assert "P2" in out
        assert "bad.py" in out

    def test_repo_source_tree_analyzes_clean(self, cache_args, capsys):
        assert main(["analyze", "src/repro", *cache_args]) == 0
        capsys.readouterr()

    def test_seeded_violation_detected_in_repo_scan(self, tmp_path, cache_args, capsys):
        """End-to-end guard: a planted violation flips the exit code."""
        bad = tmp_path / "planted.py"
        bad.write_text("import time\n\ndef f():\n    return time.time()\n")
        code = main(["analyze", "src/repro", str(bad), *cache_args])
        out = capsys.readouterr().out
        assert code == 1
        assert "planted.py:4:12: P1" in out

    def test_json_format(self, tmp_path, capsys):
        (tmp_path / "bad.py").write_text("import random\nCACHE = []\n")
        code = main(["analyze", str(tmp_path), "--no-cache", "--format", "json"])
        out = capsys.readouterr().out
        assert code == 1
        payload = json.loads(out)
        assert payload["files_scanned"] == 1
        assert payload["counts"] == {"P2": 1}
        assert payload["findings"][0]["rule"] == "P2"

    def test_select_filters_rules(self, tmp_path, capsys):
        (tmp_path / "bad.py").write_text("import random\n")
        assert main(["analyze", str(tmp_path), "--no-cache", "--select", "P1"]) == 0
        assert main(["analyze", str(tmp_path), "--no-cache", "--select", "P1,P2"]) == 1
        capsys.readouterr()

    def test_bad_select_is_usage_error(self, tmp_path, capsys):
        code = main(["analyze", str(tmp_path), "--no-cache", "--select", "R99"])
        err = capsys.readouterr().err
        assert code == 2
        assert "R99" in err

    def test_missing_path_is_usage_error(self, capsys):
        code = main(["analyze", "no/such/dir.txt", "--no-cache"])
        err = capsys.readouterr().err
        assert code == 2
        assert "no/such/dir.txt" in err

    def test_non_python_file_is_usage_error(self, capsys):
        code = main(["analyze", "README.md", "--no-cache"])
        assert code == 2
        capsys.readouterr()

    def test_list_rules(self, capsys):
        code = main(["analyze", "--list-rules"])
        out = capsys.readouterr().out
        assert code == 0
        for rule in ("P1", "P7", "D2", "C5", "W1"):
            assert rule in out
        assert "D1" not in out

    def test_explain(self, capsys):
        assert main(["analyze", "--explain", "d2"]) == 0
        assert "timestamp" in capsys.readouterr().out
        assert main(["analyze", "--explain", "R1"]) == 2
        assert "R1" in capsys.readouterr().err


class TestVerifyDeterminismCommand:
    def test_deterministic_run_exits_zero(self, capsys):
        code = main(
            [
                "--seed", "3", "--duration", "800", "--warmup", "200",
                "verify-determinism", "--regulator", "NoReg",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "MATCH" in out

    def test_reports_both_digests(self, capsys):
        main(
            [
                "--duration", "500", "--warmup", "100",
                "verify-determinism", "--regulator", "NoReg",
            ]
        )
        out = capsys.readouterr().out
        assert "run 1:" in out and "run 2:" in out

    def test_unknown_regulator_rejected(self):
        with pytest.raises(ValueError):
            main(["--duration", "500", "verify-determinism",
                  "--regulator", "Bogus"])
