"""Tests for the sweep telemetry plane: bus, events, resources, drain.

The two guarantees everything else rests on:

* **out-of-band** — executor output is bit-identical with the event
  bus attached and detached, serially and in parallel (the double-run
  determinism tests); and
* **cheap when off** — the disabled emit path costs well under the 2%
  budget of a typical cell (mirrors PR 1's engine-probe guard).

Plus the edge cases the exporters must survive: an empty sweep, an
all-cached resume sweep, and an event log cut short by a SIGKILLed
worker (the queue drain must neither hang nor corrupt the log).
"""

import json

import pytest

from repro.experiments import (
    CellSpec,
    ParallelExecutor,
    Plan,
    ResultStore,
    Runner,
    SerialExecutor,
)
from repro.obs import host_wallclock
from repro.obs import sweep as sweepbus
from repro.obs.runmeta import metrics_digest
from repro.obs.sweep import (
    EVENT_SCHEMA,
    ResourceMeter,
    SweepEventBus,
    events_path_for,
    read_events,
    validate_events,
    validate_events_file,
)

DURATION_MS = 2000.0
WARMUP_MS = 500.0

#: Cell events the executors emit per executed cell (scheduled,
#: started, finished, plus one for retries and failures).
EMITS_PER_CELL = 4
#: Wall clock of a short reference cell.
REFERENCE_CELL_WALL_S = 0.05
#: The event plane's budget on the disabled path, as a fraction of a
#: cell's wall clock.
DISABLED_OVERHEAD_BUDGET = 0.02


def spec(benchmark="IM", regulator="ODR60", seed=1) -> CellSpec:
    return CellSpec(
        benchmark=benchmark,
        platform="private",
        resolution="720p",
        regulator=regulator,
        seed=seed,
        duration_ms=DURATION_MS,
        warmup_ms=WARMUP_MS,
    )


def four_cell_plan() -> Plan:
    return Plan(
        [
            spec("IM", "ODR60"),
            spec("RE", "NoReg"),
            spec("STK", "Int60"),
            spec("IM", "ODR60", seed=2),
        ]
    )


def kinds(events):
    return [event.kind for event in events]


class TestBus:
    def test_emit_envelope_and_order(self):
        bus = SweepEventBus()
        bus.emit(sweepbus.SWEEP_BEGIN, cells=0, executor="serial", workers=1)
        bus.emit(sweepbus.SWEEP_END, executed=0, cached=0, failed=0, wall_s=0.0)
        assert len(bus) == 2
        first, second = bus.events
        assert first.seq == 0 and second.seq == 1
        assert first.sweep_id == second.sweep_id == bus.sweep_id
        assert second.t_s >= first.t_s
        assert first.to_dict()["schema"] == EVENT_SCHEMA

    def test_persist_read_validate_roundtrip(self, tmp_path):
        path = tmp_path / "events.jsonl"
        with SweepEventBus(path=path) as bus:
            bus.emit(sweepbus.SWEEP_BEGIN, cells=1, executor="serial", workers=1)
            bus.emit(sweepbus.CELL_SCHEDULED, run_id="abc", label="IM/x")
            bus.emit(
                sweepbus.CELL_FINISHED, run_id="abc", label="IM/x", wall_s=0.5
            )
            bus.emit(sweepbus.SWEEP_END, executed=1, cached=0, failed=0, wall_s=0.6)
        assert validate_events_file(path) == []
        events = read_events(path)
        assert kinds(events) == [
            "sweep_begin", "cell_scheduled", "cell_finished", "sweep_end",
        ]
        assert events[1].run_id == "abc"
        # from_dict round-trips the envelope and the fields.
        reloaded = sweepbus.SweepEvent.from_dict(events[2].to_dict())
        assert reloaded == events[2]

    def test_log_appends_across_sweeps_and_selects(self, tmp_path):
        path = tmp_path / "events.jsonl"
        ids = []
        for _ in range(2):
            with SweepEventBus(path=path) as bus:
                ids.append(bus.sweep_id)
                bus.emit(
                    sweepbus.SWEEP_BEGIN, cells=0, executor="serial", workers=1
                )
                bus.emit(
                    sweepbus.SWEEP_END, executed=0, cached=0, failed=0, wall_s=0.0
                )
        assert read_events(path)[0].sweep_id == ids[-1]  # latest by default
        assert read_events(path, sweep_id=ids[0])[0].sweep_id == ids[0]
        with pytest.raises(ValueError):
            read_events(path, sweep_id="nope")

    def test_subscriber_sees_every_event(self):
        seen = []
        bus = SweepEventBus()
        bus.subscribe(seen.append)
        bus.emit(sweepbus.POOL_BROKEN)
        assert [event.kind for event in seen] == ["pool_broken"]

    def test_validation_catches_bad_logs(self):
        def envelope(kind, seq, **fields):
            record = {
                "schema": EVENT_SCHEMA, "sweep_id": "s1", "seq": seq,
                "kind": kind, "t_s": 0.0, "epoch_s": 0.0,
            }
            record.update(fields)
            return record

        ok = [
            envelope("sweep_begin", 0, cells=0, executor="serial", workers=1),
            envelope("sweep_end", 1, executed=0, cached=0, failed=0, wall_s=0.0),
        ]
        assert validate_events(ok) == []
        assert any(
            "schema" in e for e in validate_events([{"schema": 99, "kind": "x"}])
        )
        assert any(
            "unknown kind" in e
            for e in validate_events([envelope("not_a_kind", 0)])
        )
        assert any(
            "missing field" in e
            for e in validate_events([envelope("sweep_begin", 0, cells=1)])
        )
        assert any(
            "before sweep_begin" in e
            for e in validate_events([envelope("pool_broken", 0)])
        )
        shuffled = [ok[0], dict(ok[1], seq=0)]
        assert any("not increasing" in e for e in validate_events(shuffled))
        trailing = ok + [envelope("pool_broken", 2)]
        assert any("after sweep_end" in e for e in validate_events(trailing))

    def test_worker_sink_detached_is_noop_and_swallows_errors(self, monkeypatch):
        monkeypatch.setattr(sweepbus, "_WORKER_SINK", None)
        sweepbus.emit_cell_event(sweepbus.CELL_STARTED, run_id="x")  # no sink
        boom = []

        def bad_sink(kind, fields):
            boom.append(kind)
            raise RuntimeError("queue full")

        sweepbus.attach_worker_sink(bad_sink)
        sweepbus.emit_cell_event(sweepbus.CELL_STARTED, run_id="x")
        assert boom == ["cell_started"]  # raised, swallowed


class TestResources:
    def test_meter_measures_the_cell_body(self):
        meter = ResourceMeter()
        total = sum(i * i for i in range(200000))
        assert total > 0
        resources = meter.finish(events_fired=1000)
        assert resources.wall_s > 0.0
        assert resources.cpu_user_s >= 0.0 and resources.cpu_sys_s >= 0.0
        assert resources.max_rss_kb > 0
        assert resources.events_per_sec == pytest.approx(
            1000 / resources.wall_s
        )


class TestExecutorIntegration:
    def test_serial_sweep_narrates_itself(self, tmp_path):
        path = tmp_path / "events.jsonl"
        plan = Plan([spec("IM"), spec("STK")])
        with SweepEventBus(path=path) as bus:
            report = SerialExecutor().run(plan, bus=bus)
        assert report.ok
        assert validate_events_file(path) == []
        events = read_events(path)
        assert kinds(events) == [
            "sweep_begin",
            "cell_scheduled", "cell_scheduled",
            "cell_started", "cell_finished",
            "cell_started", "cell_finished",
            "sweep_end",
        ]
        begin, end = events[0], events[-1]
        assert begin.get("cells") == 2 and begin.get("executor") == "serial"
        assert end.get("executed") == 2 and end.get("failed") == 0
        finished = [e for e in events if e.kind == "cell_finished"]
        for event in finished:
            resources = event.get("resources")
            assert resources is not None
            assert resources["wall_s"] == pytest.approx(
                event.get("wall_s"), rel=1e-6
            )
            assert resources["max_rss_kb"] > 0

    def test_parallel_sweep_ships_worker_events(self, tmp_path):
        path = tmp_path / "events.jsonl"
        with SweepEventBus(path=path) as bus:
            report = ParallelExecutor(workers=2).run(four_cell_plan(), bus=bus)
        assert report.ok
        assert validate_events_file(path) == []
        events = read_events(path)
        by_kind = {}
        for event in events:
            by_kind.setdefault(event.kind, []).append(event)
        assert len(by_kind["worker_spawned"]) == 2
        assert len(by_kind["pool_opened"]) == 1
        assert len(by_kind["cell_started"]) == 4
        assert len(by_kind["cell_finished"]) == 4
        # Worker events carry worker pids, distinct from the parent's.
        import os

        worker_pids = {event.get("pid") for event in by_kind["cell_started"]}
        assert os.getpid() not in worker_pids
        assert len(worker_pids) <= 2

    def test_failure_and_quarantine_events(self, tmp_path):
        bad = CellSpec(
            benchmark="IM", platform="private", resolution="720p",
            regulator="definitely-not-a-regulator", seed=1,
            duration_ms=DURATION_MS, warmup_ms=WARMUP_MS,
        )
        store = ResultStore(tmp_path / "cells")
        good = spec("IM")
        SerialExecutor().run(Plan([good]), store=store)
        # Corrupt the persisted cell so the next scan quarantines it.
        cell_path = store.cell_path(good.run_id)
        cell_path.write_text("{ not json", encoding="utf-8")
        with SweepEventBus() as bus, pytest.warns(RuntimeWarning):
            report = SerialExecutor().run(
                Plan([good, bad]), store=ResultStore(tmp_path / "cells"), bus=bus
            )
        assert not report.ok
        observed = kinds(bus.events)
        assert "cell_quarantined" in observed
        assert "cell_failed" in observed
        failed = [e for e in bus.events if e.kind == "cell_failed"][0]
        assert failed.run_id == bad.run_id
        assert "unrecognized regulator" in failed.get("error")
        quarantine = [e for e in bus.events if e.kind == "cell_quarantined"][0]
        assert quarantine.run_id == good.run_id
        assert "corrupt" in quarantine.get("path")
        # The quarantine hook is restored afterwards.
        assert ResultStore(tmp_path / "cells").on_quarantine is None

    def test_exec_meta_persists_cached_cell_cost(self, tmp_path):
        """Satellite: what a cached cell cost when it ran stays on disk."""
        store = ResultStore(tmp_path / "cells")
        cell = spec("IM")
        report = SerialExecutor().run(Plan([cell]), store=store)
        executed_wall = report.outcomes[0].wall_clock_s

        def persisted_meta():
            path = store.cell_path(cell.run_id)
            return json.loads(path.read_text(encoding="utf-8"))["exec"]

        meta = persisted_meta()
        assert meta["wall_clock_s"] == pytest.approx(executed_wall)
        assert meta["resources"]["max_rss_kb"] > 0
        # The cached outcome itself reports zero wall and leaves the
        # persisted cost alone: "cost now" and "cost when it ran" differ.
        resumed = SerialExecutor().run(Plan([cell]), store=ResultStore(tmp_path / "cells"))
        assert resumed.outcomes[0].cached
        assert resumed.outcomes[0].wall_clock_s == 0.0
        assert persisted_meta() == meta


class TestOutOfBand:
    """The double-run determinism guarantee, bus on vs off."""

    def test_serial_records_identical_with_and_without_bus(self, tmp_path):
        plan = four_cell_plan()
        bare = SerialExecutor().run(plan, store=ResultStore())
        with SweepEventBus(path=tmp_path / "events.jsonl") as bus:
            observed = SerialExecutor().run(plan, store=ResultStore(), bus=bus)
        assert [o.record for o in bare.outcomes] == [
            o.record for o in observed.outcomes
        ]

    def test_parallel_records_identical_with_and_without_bus(self, tmp_path):
        plan = four_cell_plan()
        bare = ParallelExecutor(workers=2).run(plan, store=ResultStore())
        with SweepEventBus(path=tmp_path / "events.jsonl") as bus:
            observed = ParallelExecutor(workers=2).run(
                plan, store=ResultStore(), bus=bus
            )
        assert [o.record for o in bare.outcomes] == [
            o.record for o in observed.outcomes
        ]

    def test_ledger_digests_identical_with_and_without_bus(self, tmp_path):
        from repro.obs.ledger import RunLedger

        plan = Plan([spec("IM"), spec("STK")])
        ledger_off = RunLedger(tmp_path / "off")
        ledger_on = RunLedger(tmp_path / "on")
        SerialExecutor().run(plan, store=ResultStore(), ledger=ledger_off)
        with SweepEventBus() as bus:
            SerialExecutor().run(
                plan, store=ResultStore(), ledger=ledger_on, bus=bus
            )
        digests_off = [metrics_digest(r) for r in ledger_off.records()]
        digests_on = [metrics_digest(r) for r in ledger_on.records()]
        assert digests_off == digests_on

    def test_disabled_overhead_within_budget(self, monkeypatch):
        """With no sink, each would-be emission is one call and one
        ``is None`` branch; the emits of one cell must cost under
        ``DISABLED_OVERHEAD_BUDGET`` of a reference cell's wall clock."""
        monkeypatch.setattr(sweepbus, "_WORKER_SINK", None)
        samples = 20000
        started = host_wallclock()
        for _ in range(samples):
            sweepbus.emit_cell_event(sweepbus.CELL_STARTED)
        per_emit_s = (host_wallclock() - started) / samples
        assert per_emit_s > 0.0
        fraction = per_emit_s * EMITS_PER_CELL / REFERENCE_CELL_WALL_S
        assert fraction < DISABLED_OVERHEAD_BUDGET, per_emit_s


class TestEdgeCases:
    def test_empty_sweep(self, tmp_path):
        path = tmp_path / "events.jsonl"
        with SweepEventBus(path=path) as bus:
            report = SerialExecutor().run(Plan([]), bus=bus)
        assert report.ok and len(report.outcomes) == 0
        assert validate_events_file(path) == []
        events = read_events(path)
        assert kinds(events) == ["sweep_begin", "sweep_end"]
        assert events[0].get("cells") == 0
        assert events[-1].get("executed") == 0

    def test_all_cached_resume_sweep(self, tmp_path):
        plan = Plan([spec("IM"), spec("STK")])
        SerialExecutor().run(plan, store=ResultStore(tmp_path / "cells"))
        path = tmp_path / "events.jsonl"
        with SweepEventBus(path=path) as bus:
            report = ParallelExecutor(workers=2).run(
                plan, store=ResultStore(tmp_path / "cells"), bus=bus
            )
        assert report.ok and report.cached == 2 and report.executed == 0
        assert validate_events_file(path) == []
        events = read_events(path)
        assert kinds(events) == [
            "sweep_begin", "cell_cached", "cell_cached", "sweep_end",
        ]
        assert events[-1].get("cached") == 2

    def test_bus_drains_cleanly_after_worker_sigkill(self, tmp_path, monkeypatch):
        """A SIGKILLed worker breaks the pool mid-sweep; the event pipe
        survives (each event is one atomic write, so the dead worker
        left whole frames or none), the drain stops cleanly, and the
        log stays schema-valid with the crash visible."""
        plan = four_cell_plan()
        victim = plan.specs[2]
        marker = tmp_path / "kills.txt"
        monkeypatch.setenv(
            "ODR_EXECUTOR_SIMULATED_CRASH", f"{victim.run_id}:{marker}:1"
        )
        path = tmp_path / "events.jsonl"
        with SweepEventBus(path=path) as bus:
            report = ParallelExecutor(workers=2).run(plan, bus=bus)
        monkeypatch.delenv("ODR_EXECUTOR_SIMULATED_CRASH")
        assert report.ok, [f.error for f in report.failures]
        assert validate_events_file(path) == []
        observed = kinds(read_events(path))
        assert "pool_broken" in observed
        assert "cell_retried" in observed
        assert observed.count("pool_opened") == 2  # fresh pool for the retry
        assert observed[-1] == "sweep_end"
        # And the records still match an unobserved serial run.
        serial = SerialExecutor().run(plan)
        for a, b in zip(serial.outcomes, report.outcomes):
            assert a.record == b.record

    def test_timeout_emits_cell_timed_out(self, monkeypatch):
        hung, ok = spec("IM"), spec("STK")
        monkeypatch.setenv("ODR_EXECUTOR_SIMULATED_STALL", f"{hung.run_id}:5.0")
        with SweepEventBus() as bus:
            report = ParallelExecutor(workers=2, cell_timeout_s=1.0).run(
                Plan([hung, ok]), bus=bus
            )
        assert not report.ok
        timed_out = [e for e in bus.events if e.kind == "cell_timed_out"]
        assert len(timed_out) == 1
        assert timed_out[0].run_id == hung.run_id
        assert timed_out[0].get("timeout_s") == pytest.approx(1.0)


class TestRunnerWiring:
    def test_runner_passes_bus_through(self, tmp_path):
        runner = Runner(seed=1, duration_ms=DURATION_MS, warmup_ms=WARMUP_MS)
        runner.bus = SweepEventBus(path=tmp_path / "events.jsonl")
        runner.run_plan(Plan([spec("IM")]))
        runner.bus.close()
        observed = kinds(runner.bus.events)
        assert observed[0] == "sweep_begin" and observed[-1] == "sweep_end"
        assert "cell_finished" in observed

    def test_events_path_for(self, tmp_path):
        assert events_path_for(tmp_path) == str(tmp_path / "events.jsonl")


class TestEventsFileToughness:
    def test_blank_lines_and_junk_are_tolerated_by_reader(self, tmp_path):
        path = tmp_path / "events.jsonl"
        with SweepEventBus(path=path) as bus:
            bus.emit(sweepbus.SWEEP_BEGIN, cells=0, executor="serial", workers=1)
            bus.emit(sweepbus.SWEEP_END, executed=0, cached=0, failed=0, wall_s=0.0)
        with open(path, "a", encoding="utf-8") as handle:
            handle.write("\n")  # torn/blank line
        assert len(read_events(path)) == 2
        assert validate_events_file(path) == []

    def test_validate_reports_unreadable_file(self, tmp_path):
        errors = validate_events_file(tmp_path / "missing.jsonl")
        assert errors and "unreadable" in errors[0]
        bad = tmp_path / "bad.jsonl"
        bad.write_text("{ not json\n", encoding="utf-8")
        errors = validate_events_file(bad)
        assert errors and "not JSONL" in errors[0]

    def test_events_jsonl_is_one_object_per_line(self, tmp_path):
        path = tmp_path / "events.jsonl"
        with SweepEventBus(path=path) as bus:
            bus.emit(sweepbus.SWEEP_BEGIN, cells=0, executor="serial", workers=1)
            bus.emit(sweepbus.SWEEP_END, executed=0, cached=0, failed=0, wall_s=0.0)
        lines = path.read_text(encoding="utf-8").splitlines()
        assert len(lines) == 2
        for line in lines:
            record = json.loads(line)
            assert record["schema"] == EVENT_SCHEMA
