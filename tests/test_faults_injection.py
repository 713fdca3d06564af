"""Behavioural tests for fault application: every taxonomy entry, end to end.

Each fault class must (a) visibly disturb the pipeline it targets,
(b) leave the run a pure function of ``(config, seed)``, and (c) show
up on the observability surface — telemetry windows, trace events,
regulator hooks.
"""

import json

import pytest

from repro import CloudSystem, SystemConfig, make_regulator
from repro.devtools.determinism import verify_determinism
from repro.faults import (
    BandwidthCollapse,
    ClientPause,
    FaultPlan,
    GpuPreemption,
    NetworkOutage,
    PacketLossBurst,
    StageStall,
    StallStorm,
    build_fault_plan,
)
from repro.obs import Telemetry, write_chrome_trace, write_jsonl
from repro.pipeline.frames import DropReason
from repro.workloads import PRIVATE_CLOUD, Resolution

DURATION_MS = 8000.0
WARMUP_MS = 1000.0


def run_with(plan, spec="NoReg", seed=1, telemetry=None):
    config = SystemConfig(
        "IM", PRIVATE_CLOUD, Resolution.R720P, seed=seed,
        duration_ms=DURATION_MS, warmup_ms=WARMUP_MS,
    )
    system = CloudSystem(
        config, make_regulator(spec), telemetry=telemetry, fault_plan=plan
    )
    return system, system.run()


def delivered_in(result, start, end):
    return len([t for t in result.counter.times("decode") if start <= t < end])


class TestOutageAndLoss:
    def test_outage_blackholes_the_window(self):
        plan = FaultPlan([NetworkOutage(4000.0, 800.0)])
        system, result = run_with(plan)
        # Nothing new serializes during the outage; at most one frame
        # already in flight lands just after the window opens.
        assert delivered_in(result, 4050.0, 4800.0) == 0
        # Delivery resumes after release.
        assert delivered_in(result, 4800.0, 5800.0) > 30

    def test_packet_loss_drops_and_carries_inputs(self):
        plan = FaultPlan([PacketLossBurst(3000.0, 2000.0, loss_prob=0.5)])
        system, result = run_with(plan)
        assert system.faults is not None
        assert system.faults.frames_lost > 10
        lost = result.dropped_frames(DropReason.NETWORK_LOSS)
        assert len(lost) == system.faults.frames_lost
        # Input-to-photon accounting survives the loss: inputs issued
        # during the burst still close (on a later delivered frame).
        during = [
            s for s in result.tracker.samples if 3000.0 <= s.issued_at < 5000.0
        ]
        assert during, "inputs issued during the burst must still close"

    def test_loss_is_seeded_not_wallclock(self):
        plan = FaultPlan([PacketLossBurst(3000.0, 2000.0, loss_prob=0.5)])
        first, _ = run_with(plan, seed=7)
        second, _ = run_with(plan, seed=7)
        assert first.faults.frames_lost == second.faults.frames_lost


class TestThroughputFaults:
    def test_bandwidth_collapse_slows_delivery(self):
        plan = FaultPlan([BandwidthCollapse(3500.0, 2000.0, factor=0.1)])
        _, clean = run_with(FaultPlan())
        _, collapsed = run_with(plan)
        window = (3500.0, 5500.0)
        assert delivered_in(collapsed, *window) < delivered_in(clean, *window)

    def test_gpu_preemption_slows_render_in_slices(self):
        plan = FaultPlan(
            [GpuPreemption(3000.0, 400.0, slowdown=6.0, period_ms=1200.0, count=3)]
        )
        _, clean = run_with(FaultPlan())
        _, preempted = run_with(plan)
        in_slices = lambda r: sum(
            len([t for t in r.counter.times("render") if s <= t < e])
            for s, e in ((3000.0, 3400.0), (4200.0, 4600.0), (5400.0, 5800.0))
        )
        assert in_slices(preempted) < in_slices(clean)

    def test_client_pause_freezes_decode(self):
        plan = FaultPlan([ClientPause(4000.0, 500.0)])
        _, result = run_with(plan)
        # The pause inflates one decode: a visible delivery gap >= the
        # pause length starts within a frame or two of the pause point.
        times = result.counter.times("decode")
        gaps = [
            (a, b - a) for a, b in zip(times, times[1:]) if 3900.0 <= a < 4700.0
        ]
        assert max(gap for _, gap in gaps) >= 450.0

    def test_stall_storm_is_deterministic_per_seed(self):
        plan = FaultPlan(
            [StallStorm("render", 3000.0, 6000.0, rate_per_s=5.0, mean_stall_ms=30.0)]
        )
        first, _ = run_with(plan, seed=3)
        second, _ = run_with(plan, seed=3)
        other, _ = run_with(plan, seed=4)
        fired = lambda s: s.faults.injectors["render"].fired
        assert fired(first) == fired(second)
        assert fired(first), "a 5/s storm over 3 s must fire at least once"
        assert fired(first) != fired(other)


class TestObservabilitySurface:
    @pytest.fixture()
    def faulted_telemetry(self):
        telemetry = Telemetry()
        plan = FaultPlan(
            [
                StageStall("encode", 4000.0, 300.0),
                NetworkOutage(5500.0, 400.0),
            ]
        )
        run_with(plan, telemetry=telemetry)
        return telemetry

    def test_fault_windows_recorded(self, faulted_telemetry):
        kinds = {w["kind"] for w in faulted_telemetry.fault_windows}
        assert kinds == {"stage_stall", "net_outage"}
        snapshot = faulted_telemetry.snapshot()
        total = sum(
            value
            for key, value in snapshot.counters.items()
            if key.name == "fault_windows_total"
        )
        assert total == 2

    def test_chrome_trace_has_fault_lane(self, faulted_telemetry, tmp_path):
        path = tmp_path / "trace.json"
        write_chrome_trace(faulted_telemetry, str(path))
        events = json.loads(path.read_text())["traceEvents"]
        faults = [e for e in events if e.get("cat") == "fault"]
        assert {e["name"] for e in faults} == {"fault:encode_stall", "fault:net_outage"}
        assert all(e["ph"] == "X" and e["dur"] > 0 for e in faults)

    def test_jsonl_has_fault_windows(self, faulted_telemetry, tmp_path):
        path = tmp_path / "dump.jsonl"
        write_jsonl(faulted_telemetry, str(path))
        records = [json.loads(line) for line in path.read_text().splitlines()]
        windows = [r for r in records if r["type"] == "fault_window"]
        assert len(windows) == 2

    def test_regulator_hooks_fire_in_order(self):
        calls = []
        regulator = make_regulator("ODR60")
        regulator.on_fault_begin = lambda kind, at: calls.append(("begin", kind, at))
        regulator.on_fault_end = lambda kind, at: calls.append(("end", kind, at))
        config = SystemConfig(
            "IM", PRIVATE_CLOUD, Resolution.R720P, seed=1,
            duration_ms=DURATION_MS, warmup_ms=WARMUP_MS,
        )
        plan = FaultPlan([NetworkOutage(4000.0, 500.0)])
        CloudSystem(config, regulator, fault_plan=plan).run()
        assert calls == [
            ("begin", "net_outage", 4000.0),
            ("end", "net_outage", 4500.0),
        ]


class TestDeterminismWithFaults:
    @pytest.mark.parametrize("fault_class", ["packet_loss", "stall_storm"])
    def test_double_run_fingerprints_match(self, fault_class):
        """Satellite: the determinism verifier over a fault-plan config.

        The stochastic fault classes draw from seeded RNG streams; a
        same-seed double run must produce bit-identical schedules."""
        plan = build_fault_plan(fault_class, 2000.0, 500.0)
        report = verify_determinism(
            seed=5, duration_ms=2000.0, warmup_ms=500.0, fault_plan=plan
        )
        assert report.ok, report.describe()

    def test_fault_plan_changes_the_schedule(self):
        from repro.devtools.determinism import fingerprint_run

        clean = fingerprint_run(seed=5, duration_ms=2000.0, warmup_ms=500.0)
        faulted = fingerprint_run(
            seed=5, duration_ms=2000.0, warmup_ms=500.0,
            fault_plan=build_fault_plan("encode_stall", 2000.0, 500.0),
        )
        assert clean.digest != faulted.digest

