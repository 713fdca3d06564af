"""Tests for the experiment harness: configs, runner, report, user study."""

import pytest

from repro.experiments import (
    ExperimentConfig,
    PlatformRes,
    Runner,
    format_table,
    paper_configuration_matrix,
    platform_res_combos,
)
from repro.experiments.chaos import chaos_demands
from repro.experiments.config import regulator_specs_for
from repro.experiments.plan import Plan
from repro.experiments.userstudy import STUDY_SPECS, UserStudy, extract_features
from repro.workloads import GCE, PRIVATE_CLOUD, Resolution
from tests.records import planned_record


@pytest.fixture(scope="module")
def runner():
    return Runner(seed=1, duration_ms=6000.0, warmup_ms=1000.0)


class TestConfigMatrix:
    def test_28_paper_configurations(self):
        assert len(paper_configuration_matrix()) == 28

    def test_32_with_ablation(self):
        assert len(paper_configuration_matrix(include_ablation=True)) == 32

    def test_four_platform_res_groups(self):
        combos = platform_res_combos()
        assert [c.label for c in combos] == ["Priv720p", "GCE720p", "Priv1080p", "GCE1080p"]

    def test_fixed_targets_follow_resolution(self):
        combos = platform_res_combos()
        assert combos[0].fixed_target == 60   # 720p
        assert combos[2].fixed_target == 30   # 1080p

    def test_specs_for_720p_use_60(self):
        combo = PlatformRes(PRIVATE_CLOUD, Resolution.R720P)
        specs = regulator_specs_for(combo)
        assert "Int60" in specs and "ODR60" in specs and "Int30" not in specs

    def test_specs_for_1080p_use_30(self):
        combo = PlatformRes(GCE, Resolution.R1080P)
        specs = regulator_specs_for(combo)
        assert "ODR30" in specs and "ODR60" not in specs

    def test_labels_unique(self):
        labels = [c.label for c in paper_configuration_matrix(include_ablation=True)]
        assert len(labels) == len(set(labels))


class TestRunner:
    def test_record_fields(self, runner):
        combo = PlatformRes(PRIVATE_CLOUD, Resolution.R720P)
        record = planned_record(runner, "IM", ExperimentConfig(combo, "ODR60"))
        assert record.benchmark == "IM"
        assert record.regulator == "ODR60"
        assert record.client_fps > 50
        assert record.power_w > 100
        assert 0 <= record.qos_satisfaction <= 1
        assert record.mtp_mean_ms is not None

    def test_memoization_returns_same_object(self, runner):
        combo = PlatformRes(PRIVATE_CLOUD, Resolution.R720P)
        config = ExperimentConfig(combo, "NoReg")
        a = planned_record(runner, "RE", config)
        b = planned_record(runner, "RE", config)
        assert a is b

    def test_different_seed_not_cached_together(self, runner):
        combo = PlatformRes(PRIVATE_CLOUD, Resolution.R720P)
        config = ExperimentConfig(combo, "NoReg")
        a = planned_record(runner, "RE", config, seed=1)
        b = planned_record(runner, "RE", config, seed=2)
        assert a is not b

    def test_local_and_gce_labels_do_not_collide(self, runner):
        """Regression test: the Local platform must not share a cache
        label with GCE."""
        from repro.workloads.platforms import LOCAL_MACHINE

        local = PlatformRes(LOCAL_MACHINE, Resolution.R1080P)
        gce = PlatformRes(GCE, Resolution.R1080P)
        assert local.label != gce.label
        a = planned_record(runner, "IM", ExperimentConfig(local, "NoReg"))
        b = planned_record(runner, "IM", ExperimentConfig(gce, "NoReg"))
        assert a.mtp_mean_ms != b.mtp_mean_ms

    def test_records_for_rejects_cell_outside_plan(self, runner):
        combo = PlatformRes(PRIVATE_CLOUD, Resolution.R720P)
        planned = ExperimentConfig(combo, "ODR60")
        plan = Plan([runner.spec_for("IM", planned)])
        runner.run_plan(plan)
        records = runner.records_for(plan)
        assert records.get("IM", planned).regulator == "ODR60"
        # The store already holds RE/NoReg (seed 1) from the tests above,
        # and seed 2 of the planned cell: the view still refuses both.
        runner.run_plan(Plan([runner.spec_for("RE", ExperimentConfig(combo, "NoReg"))]))
        with pytest.raises(KeyError, match="not in the plan"):
            records.get("RE", ExperimentConfig(combo, "NoReg"))
        with pytest.raises(KeyError, match="not in the plan"):
            records.get("IM", planned, seed=2)
        # A planned cell that never ran has no record to read.
        unrun = Plan([runner.spec_for("STK", planned)])
        with pytest.raises(KeyError, match="no stored record"):
            runner.records_for(unrun).get("STK", planned)
        # The view names cells without their horizon, so one name per plan.
        twice = Plan([runner.spec_for("IM", planned)])
        twice.add(Runner(duration_ms=9000.0).spec_for("IM", planned))
        with pytest.raises(ValueError, match="twice"):
            runner.records_for(twice)
        # Nor can that name tell a fault-injected cell from its clean twin.
        stalled = chaos_demands(
            ["IM"], ["ODR60"], ["encode_stall"], seeds=[1],
            duration_ms=runner.duration_ms, warmup_ms=runner.warmup_ms,
        )
        with pytest.raises(ValueError, match="carries faults"):
            runner.records_for(stalled)


class TestFormatTable:
    def test_alignment_and_title(self):
        text = format_table(["a", "bb"], [[1, 2.5], [10, 0.123]], title="T")
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "a" in lines[1] and "bb" in lines[1]
        assert len(lines) == 5

    def test_none_rendered_as_na(self):
        text = format_table(["x"], [[None]])
        assert "n/a" in text

    def test_row_width_mismatch_rejected(self):
        with pytest.raises(ValueError):
            format_table(["a", "b"], [[1]])

    def test_number_formats(self):
        text = format_table(["x"], [[1234.5], [12.34], [1.234]])
        assert "1234" in text and "12.3" in text and "1.23" in text


class TestUserStudyModel:
    def make_record(self, runner, spec="ODR30"):
        combo = PlatformRes(GCE, Resolution.R1080P)
        return planned_record(runner, "IM", ExperimentConfig(combo, spec))

    def test_features_extracted(self, runner):
        record = self.make_record(runner)
        features = extract_features(record)
        assert features.client_fps > 0
        assert features.mtp_ms > 0
        assert 0 <= features.stutter_frac <= 1
        assert 0 <= features.tear_score <= 1

    def test_display_synced_caps_fps_and_removes_tearing(self, runner):
        record = self.make_record(runner, spec="NoReg")
        synced = extract_features(record, display_synced=True)
        free = extract_features(record, display_synced=False)
        assert synced.tear_score == 0.0
        assert synced.client_fps <= 60.0
        assert free.tear_score > 0.0

    def test_noreg_tears_more_than_odr(self, runner):
        noreg = extract_features(self.make_record(runner, "NoReg"))
        odr = extract_features(self.make_record(runner, "ODRMax"))
        assert noreg.tear_score > odr.tear_score

    def test_participants_deterministic(self):
        a = UserStudy(seed=3).participants
        b = UserStudy(seed=3).participants
        assert [p.benchmark for p in a] == [p.benchmark for p in b]
        assert [p.lag_threshold_ms for p in a] == [p.lag_threshold_ms for p in b]

    def test_rating_bounds(self):
        study = UserStudy(seed=3)
        from repro.experiments.userstudy import SessionFeatures

        terrible = SessionFeatures(client_fps=5, mtp_ms=5000, stutter_frac=1.0, tear_score=1.0)
        great = SessionFeatures(client_fps=60, mtp_ms=20, stutter_frac=0.0, tear_score=0.0)
        for participant in study.participants[:5]:
            for spec_index in range(len(STUDY_SPECS)):
                assert 1.0 <= study.rate(participant, spec_index, terrible) <= 4.0
                assert 6.0 <= study.rate(participant, spec_index, great) <= 10.0

    def test_reports_thresholding(self):
        study = UserStudy(seed=3)
        from repro.experiments.userstudy import SessionFeatures

        participant = study.participants[0]
        laggy = SessionFeatures(client_fps=60, mtp_ms=10000, stutter_frac=0, tear_score=0)
        clean = SessionFeatures(client_fps=60, mtp_ms=5, stutter_frac=0, tear_score=0)
        assert study.reports(participant, laggy)["lag"] == "yes"
        assert study.reports(participant, clean)["lag"] == "no"
