"""Tests for the planning layer: CellSpec identity, Plan dedup, demands."""

import dataclasses
import pickle

import pytest

import repro.experiments.plan as plan_module

from repro.experiments import (
    CellSpec,
    ExperimentConfig,
    Plan,
    PlatformRes,
    Runner,
    bench_demands,
    group_demands,
    matrix_demands,
)
from repro.experiments.figures import figure_demands, summary_demands
from repro.experiments.tables import table2_demands
from repro.faults import StageStall
from repro.obs.runmeta import run_id_for
from repro.workloads import BENCHMARKS, PRIVATE_CLOUD, Resolution

COMBO = PlatformRes(PRIVATE_CLOUD, Resolution.R720P)


def spec(**overrides) -> CellSpec:
    base = dict(
        benchmark="IM",
        platform="private",
        resolution="720p",
        regulator="ODR60",
        seed=1,
        duration_ms=2000.0,
        warmup_ms=500.0,
    )
    base.update(overrides)
    return CellSpec(**base)


class TestCellSpec:
    def test_run_id_matches_ledger_addressing(self):
        s = spec()
        assert s.run_id == run_id_for(s.config_payload(), s.seed)
        assert len(s.run_id) == 16

    def test_run_id_covers_duration_and_warmup(self):
        """Regression: the old Runner._cache key dropped duration/warmup,
        so sharing results across runners with different horizons would
        silently alias.  The content address must separate them."""
        base = spec()
        assert spec(duration_ms=9000.0).run_id != base.run_id
        assert spec(warmup_ms=1000.0).run_id != base.run_id

    def test_run_id_covers_every_axis(self):
        base = spec()
        for change in (
            {"benchmark": "RE"},
            {"platform": "gce"},
            {"resolution": "1080p"},
            {"regulator": "NoReg"},
            {"seed": 2},
        ):
            assert spec(**change).run_id != base.run_id

    def test_from_config_round_trip(self):
        s = CellSpec.from_config("IM", ExperimentConfig(COMBO, "ODR60"), seed=3)
        assert s.platform == "private"
        assert s.resolution == "720p"
        assert s.experiment_config() == ExperimentConfig(COMBO, "ODR60")
        assert s.label == "IM/Priv720p/ODR60"

    def test_run_id_computed_once_per_spec(self, monkeypatch):
        calls = []

        def counting_run_id_for(payload, seed):
            calls.append(seed)
            return run_id_for(payload, seed)

        monkeypatch.setattr(plan_module, "run_id_for", counting_run_id_for)
        first, second = spec(seed=1), spec(seed=2)
        for _ in range(9):
            assert first.run_id == run_id_for(first.config_payload(), 1)
            assert second.run_id == run_id_for(second.config_payload(), 2)
        assert calls == [1, 2]

    @pytest.mark.parametrize("faults", [(), (StageStall("encode", 500.0, 30.0),)])
    def test_run_id_survives_copies(self, faults):
        original = spec(faults=faults, fault_class="stall" if faults else "")
        address = original.run_id  # cached before every copy
        copies = [
            CellSpec.from_dict(original.to_dict()),
            pickle.loads(pickle.dumps(original)),
            dataclasses.replace(original),
        ]
        for copy in copies:
            assert copy == original
            assert copy.run_id == address
        # A replaced field gets its own address, not the cached one.
        moved = dataclasses.replace(original, seed=9)
        assert moved.run_id == run_id_for(original.config_payload(), 9) != address

    def test_payload_matches_runner_ledger_payload(self):
        """The spec's payload must hash to the same run_id the ledger
        records, so store and ledger share one address space."""
        payload = spec().config_payload()
        assert set(payload) == {
            "benchmark", "platform", "resolution", "regulator",
            "duration_ms", "warmup_ms",
        }


class TestPlan:
    def test_dedup_by_run_id(self):
        plan = Plan([spec(), spec(), spec(seed=2)])
        assert len(plan) == 2

    def test_add_reports_duplicates(self):
        plan = Plan()
        assert plan.add(spec()) is True
        assert plan.add(spec()) is False

    def test_preserves_first_demand_order(self):
        a, b, c = spec(seed=1), spec(seed=2), spec(seed=3)
        plan = Plan([b, a, c, a])
        assert plan.specs == (b, a, c)
        assert plan.run_ids == (b.run_id, a.run_id, c.run_id)

    def test_contains_spec_and_run_id(self):
        plan = Plan([spec()])
        assert spec() in plan
        assert spec().run_id in plan
        assert spec(seed=9) not in plan

    def test_merge(self):
        plan = Plan([spec(seed=1)])
        plan.merge(Plan([spec(seed=1), spec(seed=2)]))
        assert len(plan) == 2


class TestDemands:
    def test_full_matrix_is_168_cells(self):
        assert len(matrix_demands()) == 28 * 6

    def test_ablation_matrix_is_192_cells(self):
        assert len(matrix_demands(include_ablation=True)) == 32 * 6

    def test_reduced_matrix(self):
        plan = matrix_demands(benchmarks=["IM", "STK"], groups=["Priv720p"])
        assert len(plan) == 7 * 2
        assert all(s.platform == "private" and s.resolution == "720p" for s in plan)

    def test_matrix_multi_seed(self):
        plan = matrix_demands(benchmarks=["IM"], groups=["Priv720p"], seeds=(1, 2, 3))
        assert len(plan) == 7 * 3

    def test_group_demands_seeds(self):
        plan = group_demands(COMBO, ["NoReg", "ODR60"], benchmarks=["IM"], seeds=(1, 2))
        assert len(plan) == 4

    def test_bench_demands(self):
        plan = bench_demands(["IM", "STK"], ["NoReg", "ODR60"], seeds=[1, 2])
        assert len(plan) == 8
        assert all(s.platform == "private" for s in plan)


class TestConsumerDemands:
    @pytest.fixture(scope="class")
    def runner(self):
        return Runner(seed=1, duration_ms=2000.0, warmup_ms=500.0)

    def test_fig01_demands_two_cells(self, runner):
        plan = figure_demands("1", runner)
        assert len(plan) == 2
        assert {s.benchmark for s in plan} == {"RE", "IM"}

    def test_analysis_figures_share_cells(self, runner):
        merged = Plan()
        for number in ("3", "6", "7"):
            merged.merge(figure_demands(number, runner))
        # All three analysis figures read the same five IM cells.
        assert len(merged) == 5

    def test_fig09_demands_full_matrix(self, runner):
        assert len(figure_demands("9", runner)) == 28 * 6

    def test_system_level_figures_have_empty_plans(self, runner):
        assert len(figure_demands("4", runner)) == 0
        assert len(figure_demands("5", runner)) == 0

    def test_unknown_figure_rejected(self, runner):
        with pytest.raises(ValueError):
            figure_demands("2", runner)

    def test_table2_demands(self, runner):
        plan = table2_demands(runner)
        assert len(plan) == 3 * 8 * len(BENCHMARKS)

    def test_summary_demands_subset_of_fig09_plan(self, runner):
        summary = summary_demands(runner)
        fig09 = figure_demands("9", runner)
        assert set(summary.run_ids) == set(fig09.run_ids)

    def test_demands_use_runner_horizon(self, runner):
        other = Runner(seed=1, duration_ms=9999.0, warmup_ms=500.0)
        a = figure_demands("1", runner).run_ids
        b = figure_demands("1", other).run_ids
        assert not set(a) & set(b)
