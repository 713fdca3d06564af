"""Execution-layer fault tolerance: failed cells, crashed workers, resume.

The guarantees under test: a cell failure never aborts a sweep (it
becomes a :class:`CellFailure` on a partial report), a SIGKILLed pool
worker costs at most the cells in flight (bounded retry in a fresh
pool), everything that did finish persists, and a later ``--resume``
run completes only the missing cells — bit-identically.
"""

import json

import pytest

from repro.experiments import (
    CellSpec,
    ExecutionError,
    ParallelExecutor,
    Plan,
    ResultStore,
    Runner,
    SerialExecutor,
    execute_cell,
    make_executor,
)

DURATION_MS = 1500.0
WARMUP_MS = 300.0


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


BAD = spec(regulator="NotARegulator")


class TestSerialFailures:
    def test_bad_cell_becomes_failure_not_abort(self):
        plan = Plan([spec("IM"), BAD, spec("STK")])
        report = SerialExecutor().run(plan)
        assert not report.ok
        assert len(report.outcomes) == 2
        assert len(report.failures) == 1
        [failure] = report.failures
        assert failure.spec.run_id == BAD.run_id
        assert "ValueError" in failure.error
        assert failure.attempts == 1
        assert "failed=1" in report.describe()
        assert report.describe().startswith("3 cell(s)")

    def test_runner_raises_execution_error_by_default(self):
        runner = Runner(seed=1, duration_ms=DURATION_MS, warmup_ms=WARMUP_MS)
        with pytest.raises(ExecutionError) as excinfo:
            runner.run_plan(Plan([spec(), BAD]))
        report = excinfo.value.report
        assert len(report.outcomes) == 1 and len(report.failures) == 1
        # allow_failures opts into the partial report instead.
        partial = runner.run_plan(Plan([spec(), BAD]), allow_failures=True)
        assert not partial.ok and len(partial.outcomes) == 1


class TestWorkerCrash:
    def test_crash_once_retries_and_completes(self, tmp_path, monkeypatch):
        """A worker SIGKILLed mid-cell breaks the pool; the casualty
        re-runs in a fresh pool and the sweep still completes, with
        output bit-identical to a serial run."""
        plan = Plan([spec("IM"), spec("STK"), spec("RE"), spec("IM", seed=2)])
        victim = plan.specs[2]
        marker = tmp_path / "kills.txt"
        monkeypatch.setenv(
            "ODR_EXECUTOR_SIMULATED_CRASH", f"{victim.run_id}:{marker}:1"
        )
        report = ParallelExecutor(workers=2).run(plan)
        assert report.ok, [f.error for f in report.failures]
        assert marker.read_text().strip() == victim.run_id
        monkeypatch.delenv("ODR_EXECUTOR_SIMULATED_CRASH")
        serial = SerialExecutor().run(plan)
        for a, b in zip(serial.outcomes, report.outcomes):
            assert a.spec == b.spec and a.record == b.record

    def test_crash_always_yields_partial_report(self, tmp_path, monkeypatch):
        """A cell that kills its worker on every attempt fails after
        max_attempts; cells that finished meanwhile are kept."""
        survivor, victim = spec("IM"), spec("STK")
        marker = tmp_path / "kills.txt"
        monkeypatch.setenv(
            "ODR_EXECUTOR_SIMULATED_CRASH", f"{victim.run_id}:{marker}:99"
        )
        # The victim stalls before dying so the survivor finishes first
        # (a crash fails *every* in-flight future in the broken pool).
        monkeypatch.setenv(
            "ODR_EXECUTOR_SIMULATED_STALL", f"{victim.run_id}:1.0"
        )
        store = ResultStore(tmp_path / "cells")
        report = ParallelExecutor(workers=2, max_attempts=2).run(
            Plan([survivor, victim]), store=store
        )
        assert not report.ok
        assert [o.spec.run_id for o in report.outcomes] == [survivor.run_id]
        [failure] = report.failures
        assert failure.spec.run_id == victim.run_id
        assert "worker crashed" in failure.error
        assert failure.attempts == 2
        assert len(marker.read_text().split()) == 2

        # Resume: with the chaos hooks off, a fresh run over the same
        # store executes only the missing cell — bit-identically.
        monkeypatch.delenv("ODR_EXECUTOR_SIMULATED_CRASH")
        monkeypatch.delenv("ODR_EXECUTOR_SIMULATED_STALL")
        resumed = ParallelExecutor(workers=2).run(
            Plan([survivor, victim]), store=ResultStore(tmp_path / "cells")
        )
        assert resumed.ok
        assert (resumed.executed, resumed.cached) == (1, 1)
        by_id = {o.spec.run_id: o for o in resumed.outcomes}
        assert by_id[survivor.run_id].cached
        clean = execute_cell(victim)
        assert by_id[victim.run_id].record == clean.record


class TestCellTimeout:
    def test_hung_cell_times_out(self, monkeypatch):
        healthy, hung = spec("IM"), spec("STK")
        monkeypatch.setenv("ODR_EXECUTOR_SIMULATED_STALL", f"{hung.run_id}:5.0")
        executor = ParallelExecutor(workers=2, cell_timeout_s=1.0)
        report = executor.run(Plan([healthy, hung]))
        assert not report.ok
        assert [o.spec.run_id for o in report.outcomes] == [healthy.run_id]
        [failure] = report.failures
        assert failure.spec.run_id == hung.run_id
        assert "timed out" in failure.error

    def test_timeout_validation(self):
        with pytest.raises(ValueError):
            ParallelExecutor(workers=2, cell_timeout_s=0.0)
        with pytest.raises(ValueError):
            ParallelExecutor(workers=2, max_attempts=0)
        pool = make_executor(3, cell_timeout_s=2.5)
        assert pool.cell_timeout_s == 2.5


class TestStoreQuarantine:
    def test_corrupt_cell_is_quarantined_and_reexecuted(self, tmp_path):
        outcome = execute_cell(spec())
        run_id = outcome.spec.run_id
        store = ResultStore(tmp_path)
        store.put(run_id, outcome.record)
        path = store.cell_path(run_id)
        path.write_text("{ not json at all")

        fresh = ResultStore(tmp_path)
        with pytest.warns(RuntimeWarning, match="failed to decode"):
            assert fresh.get(run_id) is None
        assert not path.exists()
        quarantined = tmp_path / "corrupt" / path.name
        assert quarantined.read_text() == "{ not json at all"

        # The executor treats it as a miss and re-runs the cell;
        # the rewritten cell file round-trips again.
        report = SerialExecutor().run(Plan([spec()]), store=fresh)
        assert report.ok and report.executed == 1
        assert ResultStore(tmp_path).get(run_id) == outcome.record

    def test_stale_shape_is_a_plain_miss_without_quarantine(self, tmp_path):
        outcome = execute_cell(spec())
        run_id = outcome.spec.run_id
        store = ResultStore(tmp_path)
        store.put(run_id, outcome.record)
        path = store.cell_path(run_id)
        payload = json.loads(path.read_text())
        del payload["record"]["client_fps"]
        path.write_text(json.dumps(payload))
        assert ResultStore(tmp_path).get(run_id) is None
        assert path.exists()
        assert not (tmp_path / "corrupt").exists()
