"""Tests for the declarative fault model: specs, plans, and the catalog."""

import pytest

from repro.faults import (
    FAULT_CLASSES,
    BandwidthCollapse,
    ClientPause,
    FaultPlan,
    GpuPreemption,
    NetworkOutage,
    PacketLossBurst,
    StageStall,
    StallStorm,
    build_fault_plan,
    fault_class_names,
    fault_from_dict,
)

ALL_SPECS = [
    StageStall("encode", 5000.0, 300.0),
    StallStorm("render", 4000.0, 8000.0, rate_per_s=4.0, mean_stall_ms=40.0),
    NetworkOutage(5000.0, 800.0),
    BandwidthCollapse(4000.0, 2000.0, factor=0.25),
    PacketLossBurst(5000.0, 1500.0, loss_prob=0.3),
    ClientPause(5000.0, 500.0),
    GpuPreemption(4000.0, 120.0, slowdown=3.5, period_ms=480.0, count=4),
]


class TestSpecRoundTrip:
    @pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.kind)
    def test_dict_round_trip(self, spec):
        payload = spec.to_dict()
        assert payload["kind"] == spec.kind
        assert fault_from_dict(payload) == spec

    def test_plan_payload_round_trip(self):
        plan = FaultPlan(tuple(ALL_SPECS))
        payload = [fault.to_dict() for fault in plan]
        assert FaultPlan([fault_from_dict(item) for item in payload]) == plan
        assert len(plan) == len(ALL_SPECS)
        assert bool(plan)
        assert not FaultPlan()

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            fault_from_dict({"kind": "meteor_strike"})

    def test_extra_fields_rejected(self):
        payload = StageStall("encode", 5000.0, 300.0).to_dict()
        payload["surprise"] = 1
        with pytest.raises(ValueError):
            fault_from_dict(payload)


class TestSpecValidation:
    def test_stall_needs_positive_duration(self):
        with pytest.raises(ValueError):
            StageStall("encode", 5000.0, 0.0)

    def test_stall_needs_known_stage(self):
        with pytest.raises(ValueError):
            StageStall("teleport", 5000.0, 10.0)

    def test_storm_window_must_be_ordered(self):
        with pytest.raises(ValueError):
            StallStorm("render", 8000.0, 4000.0, rate_per_s=1.0, mean_stall_ms=5.0)

    def test_bandwidth_factor_in_unit_interval(self):
        with pytest.raises(ValueError):
            BandwidthCollapse(4000.0, 2000.0, factor=0.0)
        with pytest.raises(ValueError):
            BandwidthCollapse(4000.0, 2000.0, factor=1.5)

    def test_loss_prob_in_unit_interval(self):
        with pytest.raises(ValueError):
            PacketLossBurst(5000.0, 1500.0, loss_prob=1.5)

    def test_preemption_slowdown_above_one(self):
        with pytest.raises(ValueError):
            GpuPreemption(4000.0, 120.0, slowdown=1.0)

    def test_preemption_period_covers_duration(self):
        with pytest.raises(ValueError):
            GpuPreemption(4000.0, 500.0, slowdown=2.0, period_ms=100.0, count=3)

    def test_preemption_slices(self):
        fault = GpuPreemption(1000.0, 100.0, slowdown=2.0, period_ms=400.0, count=3)
        assert fault.slices() == [
            (1000.0, 1100.0),
            (1400.0, 1500.0),
            (1800.0, 1900.0),
        ]


class TestCatalog:
    def test_catalog_names_sorted_and_complete(self):
        assert fault_class_names() == sorted(FAULT_CLASSES)
        assert "encode_stall" in FAULT_CLASSES

    @pytest.mark.parametrize("name", sorted(FAULT_CLASSES))
    def test_every_class_lands_inside_the_measured_window(self, name):
        duration, warmup = 10000.0, 2000.0
        plan = build_fault_plan(name, duration, warmup)
        assert len(plan) >= 1
        for fault in plan:
            start, end = fault.window()
            assert warmup <= start < end <= warmup + duration

    def test_unknown_class_rejected(self):
        with pytest.raises(ValueError):
            build_fault_plan("meteor_strike", 10000.0, 2000.0)

    def test_catalog_is_deterministic(self):
        for name in fault_class_names():
            assert build_fault_plan(name, 8000.0, 1000.0) == build_fault_plan(
                name, 8000.0, 1000.0
            )
