"""Structural tests for the figure/table generators (short durations).

The benches assert the *paper claims* at full scale; these tests pin the
generators' output structure so harness regressions surface fast.

Every renderer here reads from a runner whose store holds *only* the
cells of that renderer's own plan, so each render also proves that its
demands cover every cell it reads.
"""

import pytest

from repro.experiments import Runner
from repro.experiments.figures import (
    figure_demands,
    fig01_fps_gap,
    fig03_regulation_fps,
    fig04_time_variation,
    fig05_pipeline_schedules,
    fig06_mtp_latency,
    fig07_dram_efficiency,
    fig09_qos_averages,
    fig10_client_fps_detail,
    fig11_mtp_detail,
    fig12_memory_efficiency,
    fig13_power,
    summary_demands,
    summary_overall,
)
from repro.experiments.tables import table2, table2_demands
from repro.experiments.userstudy import STUDY_SPECS, UserStudy
from repro.workloads import BENCHMARKS


@pytest.fixture(scope="module")
def runner():
    """Executes every renderer's plan; renderers never read from it."""
    return Runner(seed=1, duration_ms=2500.0, warmup_ms=500.0)


def plan_only(runner, plan):
    """Run ``plan``, then view it from a fresh runner holding only its cells."""
    runner.run_plan(plan)
    only = Runner(seed=runner.seed, duration_ms=runner.duration_ms, warmup_ms=runner.warmup_ms)
    for spec in plan:
        only.store.put(spec.run_id, runner.store.get(spec.run_id))
    assert len(only.store) == len(plan)
    return only.records_for(plan)


def figure(number, runner):
    return plan_only(runner, figure_demands(number, runner))


FIGURES = {
    "1": fig01_fps_gap,
    "3": fig03_regulation_fps,
    "6": fig06_mtp_latency,
    "7": fig07_dram_efficiency,
    "9": fig09_qos_averages,
    "10": fig10_client_fps_detail,
    "11": fig11_mtp_detail,
    "12": fig12_memory_efficiency,
    "13": fig13_power,
}


class TestRenderersReadOnlyTheirPlan:
    @pytest.mark.parametrize("number", sorted(FIGURES, key=int))
    def test_figure(self, runner, number):
        assert FIGURES[number](figure(number, runner))["text"]

    def test_table2(self, runner):
        assert table2(plan_only(runner, table2_demands(runner)))["text"]

    def test_summary(self, runner):
        assert summary_overall(plan_only(runner, summary_demands(runner)))["text"]

    def test_userstudy(self, runner):
        study = UserStudy(seed=1)
        plan = study.demands(runner)
        # participants' benchmarks × the 8 study configurations, deduplicated
        assert len(plan) == len({p.benchmark for p in study.participants}) * len(STUDY_SPECS)
        out = study.run(plan_only(runner, plan))
        assert list(out["ratings"]) == STUDY_SPECS
        assert all(len(v) == UserStudy.N_PARTICIPANTS for v in out["rating_samples"].values())

    def test_userstudy_run_is_idempotent(self, runner):
        study = UserStudy(seed=1)
        records = plan_only(runner, study.demands(runner))
        assert study.run(records) == study.run(records)


class TestAnalysisFigures:
    def test_fig01_structure(self, runner):
        out = fig01_fps_gap(figure("1", runner))
        assert set(out["data"]) == {"RE", "IM"}
        assert "Figure 1" in out["text"]

    def test_fig03_structure(self, runner):
        out = fig03_regulation_fps(figure("3", runner))
        assert set(out["data"]) == {"NoReg", "Int60", "IntMax", "RVS60", "RVSMax"}
        for values in out["data"].values():
            assert {"render_fps", "encode_fps", "decode_fps"} == set(values)

    def test_fig04_structure(self):
        out = fig04_time_variation(seed=2, n_trace=50)
        assert set(out["data"]["cdf"]) == {"render", "encode", "transmit"}
        for stage, trace in out["data"]["trace"].items():
            assert len(trace) == 50

    def test_fig05_structure(self):
        out = fig05_pipeline_schedules(seed=2, n_frames=5)
        assert set(out["data"]) == {"Int60", "RVS60", "ODR60"}
        for intervals in out["data"].values():
            assert intervals
            stages = {stage for stage, _, _ in intervals}
            assert stages <= {"render", "encode"}

    def test_fig06_values_positive(self, runner):
        out = fig06_mtp_latency(figure("6", runner))
        assert all(v > 0 for v in out["data"].values())

    def test_fig07_fields(self, runner):
        out = fig07_dram_efficiency(figure("7", runner))
        for values in out["data"].values():
            assert 0 < values["row_miss_rate"] <= 1
            assert values["ipc"] > 0


class TestEvaluationFigures:
    def test_fig09_groups_and_overall(self, runner):
        out = fig09_qos_averages(figure("9", runner))
        groups = out["data"]["groups"]
        assert set(groups) == {"Priv720p", "GCE720p", "Priv1080p", "GCE1080p"}
        assert len(groups["Priv720p"]) == 7
        overall = out["data"]["overall"]
        assert {"NoReg", "IntMax", "ODRMax", "IntFix", "ODRFix"} <= set(overall)

    def test_fig10_covers_all_benchmarks(self, runner):
        out = fig10_client_fps_detail(figure("10", runner))
        for group in out["data"].values():
            assert set(group) == set(BENCHMARKS)

    def test_fig11_has_boxes(self, runner):
        out = fig11_mtp_detail(figure("11", runner))
        cell = out["data"]["Priv720p"]["IM"]["NoReg"]
        assert cell["box"] is not None
        assert cell["box"].p99 >= cell["box"].p1

    def test_fig12_avg_row(self, runner):
        out = fig12_memory_efficiency(figure("12", runner))
        assert set(out["data"]["avg"]) == {
            "NoReg", "IntMax", "RVSMax", "ODRMax", "Int60", "RVS60", "ODR60"
        }

    def test_fig13_power_positive(self, runner):
        out = fig13_power(figure("13", runner))
        for per_spec in out["data"]["per_benchmark"].values():
            assert all(v > 100 for v in per_spec.values())

    def test_table2_row_count(self, runner):
        out = table2(plan_only(runner, table2_demands(runner)))
        assert len(out["rows"]) == 3 * 8  # 3 groups x 8 configurations

    def test_summary_overall_keys(self, runner):
        out = summary_overall(plan_only(runner, summary_demands(runner)))
        data = out["data"]
        assert {"fps_gap", "client_fps", "mtp", "efficiency_720p_private",
                "bandwidth_mbps"} == set(data)
        assert "Section 6.6" in out["text"]
