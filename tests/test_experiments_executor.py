"""Tests for the execution layer: serial/parallel equivalence and resume.

The headline guarantee of the plan/execute split: a plan executed by
``ParallelExecutor`` yields **bit-identical** results to a serial run
(same ``ExperimentRecord``s, same ledger ``metrics_digest``s, same
append order), and a persistent :class:`ResultStore` warm-starts later
invocations so only missing cells execute.
"""

import json
from concurrent.futures import ProcessPoolExecutor

import pytest

from repro.cli import main
from repro.devtools.determinism import fingerprint_run
from repro.experiments import (
    CellSpec,
    ParallelExecutor,
    Plan,
    ResultStore,
    Runner,
    SerialExecutor,
    execute_cell,
    make_executor,
)
from repro.experiments.chaos import chaos_demands
from repro.experiments.record import RECORD_DICT_SCHEMA, record_as_dict
from repro.obs import Telemetry, build_record
from repro.obs.ledger import RunLedger
from repro.obs.probes import EngineProbe
from repro.obs.registry import MetricsRegistry
from repro.obs.runmeta import metrics_digest
from repro.obs.spans import SpanStore
from repro.pipeline import CloudSystem, SystemConfig
from repro.regulators import make_regulator
from repro.workloads import PLATFORMS, Resolution

DURATION_MS = 2000.0
WARMUP_MS = 500.0


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


class TestSerialParallelEquivalence:
    @pytest.fixture(scope="class")
    def runs(self, tmp_path_factory):
        serial_dir = tmp_path_factory.mktemp("ledger-serial")
        parallel_dir = tmp_path_factory.mktemp("ledger-parallel")
        serial_ledger = RunLedger(serial_dir)
        parallel_ledger = RunLedger(parallel_dir)
        serial = SerialExecutor().run(
            four_cell_plan(), store=ResultStore(), ledger=serial_ledger
        )
        parallel = ParallelExecutor(workers=2).run(
            four_cell_plan(), store=ResultStore(), ledger=parallel_ledger
        )
        return serial, parallel, serial_ledger, parallel_ledger

    def test_records_bit_identical(self, runs):
        serial, parallel, _, _ = runs
        assert len(serial.outcomes) == len(parallel.outcomes) == 4
        for a, b in zip(serial.outcomes, parallel.outcomes):
            assert a.spec == b.spec
            # Frozen dataclasses all the way down: == is field-by-field
            # bit equality, including box stats and hardware reports.
            assert a.record == b.record

    def test_ledger_digests_identical(self, runs):
        """The PR 2 determinism contract, re-stated for the pool: the
        measured content of every ledger record (metrics + series,
        wall clock excluded) must hash identically."""
        _, _, serial_ledger, parallel_ledger = runs
        serial_records = serial_ledger.records()
        parallel_records = parallel_ledger.records()
        assert len(serial_records) == len(parallel_records) == 4
        for a, b in zip(serial_records, parallel_records):
            assert a["run_id"] == b["run_id"]
            assert metrics_digest(a) == metrics_digest(b)

    def test_ledger_append_order_matches_plan(self, runs):
        _, _, serial_ledger, parallel_ledger = runs
        plan_ids = list(four_cell_plan().run_ids)
        assert [r["run_id"] for r in serial_ledger.records()] == plan_ids
        assert [r["run_id"] for r in parallel_ledger.records()] == plan_ids

    def test_all_cells_executed_not_cached(self, runs):
        serial, parallel, _, _ = runs
        assert serial.executed == parallel.executed == 4
        assert serial.cached == parallel.cached == 0


class TestScheduleDeterminismAcrossProcesses:
    def test_pool_worker_schedule_matches_in_process(self):
        """Reuse the determinism verifier: the full event-schedule
        fingerprint (not just final metrics) must match between an
        in-process run and the same run inside a pool worker."""
        local = fingerprint_run(seed=1, duration_ms=1500.0, warmup_ms=300.0)
        with ProcessPoolExecutor(max_workers=1) as pool:
            remote = pool.submit(
                fingerprint_run, seed=1, duration_ms=1500.0, warmup_ms=300.0
            ).result()
        assert local.digest == remote.digest
        assert local.events_fired == remote.events_fired


class TestResultStore:
    def test_hit_miss_accounting(self):
        store = ResultStore()
        outcome = execute_cell(spec())
        assert store.get(outcome.spec.run_id) is None
        assert (store.hits, store.misses) == (0, 1)
        store.put(outcome.spec.run_id, outcome.record)
        assert store.get(outcome.spec.run_id) == outcome.record
        assert (store.hits, store.misses) == (1, 1)

    def test_persistent_round_trip(self, tmp_path):
        outcome = execute_cell(spec())
        writer = ResultStore(tmp_path)
        writer.put(outcome.spec.run_id, outcome.record)
        # A different process would build a fresh store over the same dir.
        reader = ResultStore(tmp_path)
        assert outcome.spec.run_id in reader
        assert reader.get(outcome.spec.run_id) == outcome.record

    def test_persisted_file_is_canonical_json(self, tmp_path):
        outcome = execute_cell(spec())
        store = ResultStore(tmp_path)
        exec_meta = {"wall_s": 0.125, "rss_mb": 48.5}
        store.put(outcome.spec.run_id, outcome.record, exec_meta=exec_meta)
        payload = {
            "schema": RECORD_DICT_SCHEMA,
            "run_id": outcome.spec.run_id,
            "record": record_as_dict(outcome.record),
            "exec": exec_meta,
        }
        expected = json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"
        assert store.cell_path(outcome.spec.run_id).read_text(encoding="utf-8") == expected

    def test_torn_cell_file_is_a_miss(self, tmp_path):
        outcome = execute_cell(spec())
        store = ResultStore(tmp_path)
        store.put(outcome.spec.run_id, outcome.record)
        path = store.cell_path(outcome.spec.run_id)
        path.write_text(path.read_text()[: len(path.read_text()) // 2])
        assert ResultStore(tmp_path).get(outcome.spec.run_id) is None

    def test_schema_mismatch_is_a_miss(self, tmp_path):
        outcome = execute_cell(spec())
        store = ResultStore(tmp_path)
        store.put(outcome.spec.run_id, outcome.record)
        path = store.cell_path(outcome.spec.run_id)
        payload = json.loads(path.read_text())
        payload["schema"] = -1
        path.write_text(json.dumps(payload))
        assert ResultStore(tmp_path).get(outcome.spec.run_id) is None


class TestWarmStart:
    def test_rerun_executes_nothing(self, tmp_path):
        plan = Plan([spec("IM", "ODR60"), spec("IM", "NoReg")])
        first = SerialExecutor().run(plan, store=ResultStore(tmp_path))
        assert (first.executed, first.cached) == (2, 0)
        # Fresh store over the same persist dir = a later invocation.
        second = SerialExecutor().run(plan, store=ResultStore(tmp_path))
        assert (second.executed, second.cached) == (0, 2)
        for a, b in zip(first.outcomes, second.outcomes):
            assert a.record == b.record

    def test_interrupted_sweep_resumes_missing_only(self, tmp_path):
        full = Plan([spec("IM", "ODR60"), spec("IM", "NoReg"), spec("IM", "Int60")])
        subset = Plan(list(full.specs)[:2])
        SerialExecutor().run(subset, store=ResultStore(tmp_path))
        resumed = SerialExecutor().run(full, store=ResultStore(tmp_path))
        assert (resumed.executed, resumed.cached) == (1, 2)
        executed_ids = {o.spec.run_id for o in resumed.outcomes if not o.cached}
        assert executed_ids == {full.specs[2].run_id}

    def test_cached_cells_skip_ledger(self, tmp_path):
        plan = Plan([spec()])
        # First run ledgered: the second recalls the cell and appends
        # nothing.  First run unledgered (a store hit the ledger lacks,
        # as after a crash between put and append): the cell is not
        # trusted, so it re-executes once and its row lands.
        for case, first_ledgered, executed in (
            ("both", True, 0),
            ("store-only", False, 1),
        ):
            ledger = RunLedger(tmp_path / case / "ledger")
            store_dir = tmp_path / case / "cells"
            SerialExecutor().run(
                plan,
                store=ResultStore(store_dir),
                ledger=ledger if first_ledgered else None,
            )
            second = SerialExecutor().run(
                plan, store=ResultStore(store_dir), ledger=ledger
            )
            assert second.executed == executed, case
            assert len(ledger.records()) == 1, case


class TestRunnerFacade:
    def test_rerun_plan_recalls_same_object(self):
        runner = Runner(seed=1, duration_ms=DURATION_MS, warmup_ms=WARMUP_MS)
        plan = Plan([spec()])
        first = runner.run_plan(plan).outcomes[0].record
        again = runner.run_plan(plan)
        assert again.cached == 1
        assert runner.records_for(plan).get("IM", spec().experiment_config()) is first

    def test_make_executor(self):
        assert isinstance(make_executor(1), SerialExecutor)
        pool = make_executor(3)
        assert isinstance(pool, ParallelExecutor)
        assert pool.workers == 3
        with pytest.raises(ValueError):
            ParallelExecutor(workers=0)


class TestCliResume:
    @staticmethod
    def argv(tmp_path):
        return [
            "--duration", "2000", "--warmup", "500",
            "matrix", str(tmp_path / "matrix.csv"),
            "--ledger", str(tmp_path / "ledger"),
            "--benchmarks", "IM",
            "--groups", "Priv720p",
            "--resume",
        ]

    def test_matrix_resume_skips_executed_cells(self, tmp_path, capsys):
        argv = self.argv(tmp_path)
        assert main(list(argv)) == 0
        first = capsys.readouterr().out
        assert "executed=7 cached=0" in first
        assert main(list(argv)) == 0
        second = capsys.readouterr().out
        assert "executed=0 cached=7" in second

    def test_resume_reexecutes_cell_missing_from_ledger(self, tmp_path, capsys):
        """A crash between store.put and ledger.append leaves a cell in
        the store without its ledger row; --resume must re-run it."""
        argv = self.argv(tmp_path)
        assert main(list(argv)) == 0
        capsys.readouterr()
        ledger_path = tmp_path / "ledger" / "ledger.jsonl"
        lines = ledger_path.read_text(encoding="utf-8").splitlines(keepends=True)
        dropped = json.loads(lines[-1])
        ledger_path.write_text("".join(lines[:-1]), encoding="utf-8")

        assert main(list(argv)) == 0
        assert "executed=1 cached=6" in capsys.readouterr().out
        rows = RunLedger(tmp_path / "ledger").records()
        assert len(rows) == 7
        assert len({row["run_id"] for row in rows}) == 7
        (redone,) = [row for row in rows if row["run_id"] == dropped["run_id"]]
        assert metrics_digest(redone) == metrics_digest(dropped)



def without_wall_fields(row):
    """A ledger row minus the fields that measure host time."""
    row = dict(row, engine=dict(row["engine"]))
    del row["wall_clock_s"]
    del row["engine"]["events_per_sec"], row["engine"]["wall_per_sim_second_mean"]
    return row


def stall_storm_spec() -> CellSpec:
    plan = chaos_demands(
        ["IM"],
        ["ODR60"],
        fault_classes=["stall_storm"],
        seeds=[1],
        duration_ms=DURATION_MS,
        warmup_ms=WARMUP_MS,
        include_baseline=False,
    )
    return plan.specs[0]


def full_telemetry_row(cell: CellSpec):
    """``build_record`` over ``cell`` run with ``Telemetry(engine_probe=True)``,
    and that telemetry."""
    config = SystemConfig(
        benchmark=cell.benchmark,
        platform=PLATFORMS[cell.platform],
        resolution=Resolution(cell.resolution),
        seed=cell.seed,
        duration_ms=cell.duration_ms,
        warmup_ms=cell.warmup_ms,
    )
    telemetry = Telemetry(engine_probe=True)
    system = CloudSystem(
        config, make_regulator(cell.regulator), telemetry=telemetry, fault_plan=cell.fault_plan()
    )
    row = build_record(
        system.run(), cell.config_payload(), label=cell.label, wall_clock_s=1.0, git_rev="r"
    )
    return row, telemetry


#: The row's engine counts, each equal to an attached probe's.
ENGINE_COUNTS = ("events_scheduled", "events_fired", "max_heap_depth", "processes_started")


class TestLedgerCellRows:
    """Ledger cells run the bare engine, yet their rows equal those of a
    full-telemetry run of the same cell."""

    @pytest.mark.parametrize(
        "cell",
        [spec(regulator=name) for name in ("NoReg", "ODR60", "Int60", "ODRMax", "RVS60")]
        + [stall_storm_spec()],
        ids=["NoReg", "ODR60", "Int60", "ODRMax", "RVS60", "stall_storm"],
    )
    def test_row_producers_agree(self, cell, tmp_path):
        lean = execute_cell(cell, collect_ledger=True, git_rev="r")
        traced = execute_cell(
            cell, collect_ledger=True, telemetry_dir=str(tmp_path), git_rev="r"
        )
        assert list(tmp_path.iterdir())
        assert lean.record == traced.record
        row, telemetry = full_telemetry_row(cell)
        expected = without_wall_fields(row)
        # The row's summaries are the telemetry's own.
        gate = telemetry.registry.histogram_stats("gate_delay_ms")
        assert expected["metrics"]["gate_delay"] == {
            "count": float(gate.count),
            "mean_ms": gate.mean,
            "p99_ms": gate.p99,
        }
        probe = telemetry.probe.summary()
        for count in ENGINE_COUNTS:
            assert expected["engine"][count] == probe[count], count
        assert without_wall_fields(lean.ledger_record) == expected
        assert without_wall_fields(traced.ledger_record) == expected
        assert lean.resources.events_fired == expected["engine"]["events_fired"]

    def test_ledger_path_builds_no_telemetry(self, monkeypatch):
        def refuse(self, *args, **kwargs):
            raise AssertionError("the ledger path built telemetry")

        monkeypatch.setattr(SpanStore, "__init__", refuse)
        monkeypatch.setattr(MetricsRegistry, "__init__", refuse)
        # Nor an engine probe: the environment counts its own statistics.
        monkeypatch.setattr(EngineProbe, "__init__", refuse)
        outcome = execute_cell(spec(regulator="ODR60"), collect_ledger=True, git_rev="r")
        row = outcome.ledger_record
        assert row["engine"]["events_fired"] > 0
        assert row["metrics"]["gate_delay"]["count"] > 0
