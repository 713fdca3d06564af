"""Chaos-sweep tests: plan shape, resilience scoring, the Sec. 4.1 claim.

The headline assertion (paper Sec. 4.1): after a sudden processing-time
spike, ODR *accelerates* — renders above target until the client-side
buffer refills — so its time-to-recover is (near-)zero, while
regulation without acceleration recovers slowly or not at all.
"""

import json

import pytest

from repro import CloudSystem, SystemConfig, make_regulator
from repro.cli import main
from repro.experiments import (
    SerialExecutor,
    chaos_demands,
    render_resilience,
    resilience_payload,
    resilience_rows,
)
from repro.experiments.plan import CellSpec
from repro.faults import FaultPlan, StageStall
from repro.metrics import recovery_stats
from repro.workloads import PRIVATE_CLOUD, Resolution

DURATION_MS = 6000.0
WARMUP_MS = 1000.0


class TestChaosDemands:
    def test_plan_shape(self):
        plan = chaos_demands(
            benchmarks=["IM", "STK"],
            regulators=["NoReg", "ODR60"],
            fault_classes=["encode_stall", "net_outage"],
            duration_ms=DURATION_MS,
            warmup_ms=WARMUP_MS,
        )
        # 2 benchmarks x 2 regulators x (1 baseline + 2 fault classes).
        assert len(plan) == 12
        classes = {spec.fault_class for spec in plan}
        assert classes == {"none", "encode_stall", "net_outage"}

    def test_baseline_cells_keep_clean_run_ids(self):
        """The fault_class tag is presentation-only: a chaos baseline
        cell is *the same cell* as an ordinary sweep's — one simulation,
        one store entry, shared across sweeps."""
        plan = chaos_demands(
            benchmarks=["IM"], regulators=["ODR60"],
            fault_classes=["encode_stall"],
            duration_ms=DURATION_MS, warmup_ms=WARMUP_MS,
        )
        baseline = next(s for s in plan if s.fault_class == "none")
        plain = CellSpec(
            benchmark="IM", platform="private", resolution="720p",
            regulator="ODR60", seed=1,
            duration_ms=DURATION_MS, warmup_ms=WARMUP_MS,
        )
        assert baseline.run_id == plain.run_id

    def test_fault_cells_are_distinct_cells(self):
        plan = chaos_demands(
            benchmarks=["IM"], regulators=["ODR60"],
            fault_classes=["encode_stall", "net_outage"],
            duration_ms=DURATION_MS, warmup_ms=WARMUP_MS,
        )
        assert len(set(plan.run_ids)) == 3
        faulted = next(s for s in plan if s.fault_class == "encode_stall")
        assert "faults" in faulted.config_payload()
        assert faulted.label.endswith("+encode_stall")


class TestResilienceScoring:
    @pytest.fixture(scope="class")
    def report(self):
        plan = chaos_demands(
            benchmarks=["IM"],
            regulators=["NoReg", "ODR60"],
            fault_classes=["encode_stall"],
            duration_ms=DURATION_MS,
            warmup_ms=WARMUP_MS,
        )
        return SerialExecutor().run(plan)

    def test_rows_grouped_and_baseline_first(self, report):
        rows = resilience_rows(report.outcomes)
        assert [(r.fault_class, r.regulator) for r in rows] == [
            ("none", "NoReg"), ("none", "ODR60"),
            ("encode_stall", "NoReg"), ("encode_stall", "ODR60"),
        ]
        for row in rows:
            assert row.cells == 1
            assert row.client_fps > 0

    def test_fault_rows_carry_recovery_metrics(self, report):
        rows = {
            (r.fault_class, r.regulator): r for r in resilience_rows(report.outcomes)
        }
        odr = rows[("encode_stall", "ODR60")]
        assert odr.recovered == odr.cells == 1
        assert odr.mean_ttr_ms is not None
        assert odr.mean_frames_lost is not None and odr.mean_frames_lost > 0
        baseline = rows[("none", "ODR60")]
        assert baseline.recovered == 0 and baseline.mean_ttr_ms is None

    def test_odr_out_recovers_noreg(self, report):
        """The resilience table's point: ODR's TTR is finite and no
        worse than NoReg's, with a far smaller excessive-rendering
        excursion."""
        rows = {
            (r.fault_class, r.regulator): r for r in resilience_rows(report.outcomes)
        }
        odr = rows[("encode_stall", "ODR60")]
        noreg = rows[("encode_stall", "NoReg")]
        assert odr.mean_ttr_ms is not None
        assert odr.mean_ttr_ms <= (noreg.mean_ttr_ms or float("inf"))
        assert noreg.worst_fps_gap is not None
        assert odr.worst_fps_gap < noreg.worst_fps_gap

    def test_render_and_payload(self, report):
        rows = resilience_rows(report.outcomes)
        text = render_resilience(rows)
        assert "fault" in text and "TTR ms" in text and "encode_stall" in text
        payload = resilience_payload(rows)
        assert payload["kind"] == "chaos_resilience"
        assert len(payload["rows"]) == len(rows)
        json.dumps(payload)  # must be serializable as-is


class TestPaperSec41Claim:
    """Satellite: the paper's acceleration claim under the new fault path."""

    STALL = StageStall("encode", 6000.0, 300.0)

    def run(self, spec):
        config = SystemConfig(
            "IM", PRIVATE_CLOUD, Resolution.R720P, seed=1,
            duration_ms=12000.0, warmup_ms=2000.0,
        )
        system = CloudSystem(
            config, make_regulator(spec), fault_plan=FaultPlan([self.STALL])
        )
        result = system.run()
        stats = recovery_stats(
            result, [(w.start_ms, w.end_ms) for w in system.faults.windows]
        )
        return result, stats

    def test_odr_accelerates_back_to_target(self):
        result, stats = self.run("ODR60")
        assert stats is not None and stats.time_to_recover_ms is not None
        assert stats.time_to_recover_ms <= 250.0
        # The catch-up burst: decode runs *above* target right after.
        burst = result.counter.mean_fps("decode", 6300.0, 6700.0)
        assert burst > 65.0

    def test_noreg_does_not_accelerate(self):
        result, stats = self.run("NoReg")
        _, odr_stats = self.run("ODR60")
        assert stats is not None
        # NoReg free-runs at ~90 FPS pre-fault and has no repayment
        # mechanism: its return to the pre-fault band takes strictly
        # longer, and the stall provokes a much larger FPS-gap burst.
        noreg_ttr = stats.time_to_recover_ms
        assert noreg_ttr is None or noreg_ttr > odr_stats.time_to_recover_ms
        assert stats.worst_fps_gap > 4 * odr_stats.worst_fps_gap


class TestChaosCli:
    def test_chaos_cli_end_to_end_and_resume(self, tmp_path, capsys):
        argv = [
            "--duration", "4000", "--warmup", "800",
            "chaos",
            "--benchmarks", "IM",
            "--groups", "NoReg,ODR60",
            "--faults", "encode_stall",
            "--ledger", str(tmp_path / "ledger"),
            "-o", str(tmp_path / "chaos.json"),
            "--resume",
        ]
        assert main(list(argv)) == 0
        out = capsys.readouterr().out
        assert "Resilience by fault class x regulator" in out
        assert "executed=4 cached=0" in out
        payload = json.loads((tmp_path / "chaos.json").read_text())
        assert payload["kind"] == "chaos_resilience"
        assert payload["failed_cells"] == []
        odr = next(
            r for r in payload["rows"]
            if r["regulator"] == "ODR60" and r["fault_class"] == "encode_stall"
        )
        assert odr["recovered"] == 1 and odr["mean_ttr_ms"] is not None
        # Resume: everything recalled from <ledger>/cells, nothing re-run.
        assert main(list(argv)) == 0
        assert "executed=0 cached=4" in capsys.readouterr().out

    def test_unknown_inputs_rejected(self, capsys):
        assert main(["chaos", "--benchmarks", "NOPE", "--groups", "ODR60"]) == 2
        assert main(["chaos", "--faults", "meteor_strike"]) == 2

    def test_unknown_regulator_rejected(self, capsys):
        argv = ["chaos", "--benchmarks", "IM", "--groups", "ODR60,Bogus",
                "--faults", "encode_stall"]
        assert main(argv) == 2
        assert capsys.readouterr().err == (
            "chaos: unrecognized regulator spec 'Bogus'\n"
        )
