"""Tests for the reusable scheduling core: dispatch and pool reuse.

The guarantees: every pool submission is one cell, published as soon
as its own future returns and re-run alone after a worker crash; a
caller-owned :class:`WorkerPool` survives across runs (warmup paid
once); the event plane is one pipe whose frames arrive whole; and the
in-flight registry holds only cells still running or failed.
"""

import multiprocessing
import os
import time
from pathlib import Path

import pytest

from repro.experiments import (
    CellSpec,
    ParallelExecutor,
    Plan,
    ResultStore,
    SerialExecutor,
    WorkerPool,
    execute_cell,
)
from repro.experiments.pool import MAX_EVENT_BYTES
from repro.experiments.scheduling import InflightRegistry, SweepLoop
from repro.obs import sweep as sweepbus
from repro.obs.ledger import RunLedger
from repro.obs.runmeta import metrics_digest
from repro.obs.sweep import (
    CELL_DEDUPED,
    CELL_FINISHED,
    CELL_STARTED,
    POOL_OPENED,
    SweepEventBus,
)

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


class TestOneCellPerSubmission:
    """Four cells on a one-worker pool: each cell is its own submission."""

    def test_a_finished_cell_does_not_wait_for_the_next(self, monkeypatch):
        plan = four_cell_plan()
        first, second = plan.specs[:2]
        monkeypatch.setenv("ODR_EXECUTOR_SIMULATED_STALL", f"{second.run_id}:0.5")
        bus = SweepEventBus()
        with WorkerPool(workers=1, events=True) as pool:
            report = ParallelExecutor(workers=1, pool=pool).run(
                plan, store=ResultStore(), bus=bus
            )
        assert report.ok and report.executed == 4
        finished = {
            e.fields["run_id"]: e.t_s for e in bus.events if e.kind == CELL_FINISHED
        }
        assert finished[second.run_id] - finished[first.run_id] >= 0.4
        opened = [e.fields["batch"] for e in bus.events if e.kind == POOL_OPENED]
        assert opened == [4]

    def test_a_crash_reruns_only_the_cells_it_lost(self, tmp_path, monkeypatch):
        plan = four_cell_plan()
        first, second = plan.specs[:2]
        marker = tmp_path / "kills.txt"
        monkeypatch.setenv(
            "ODR_EXECUTOR_SIMULATED_CRASH", f"{second.run_id}:{marker}:1"
        )
        bus = SweepEventBus()
        with WorkerPool(workers=1, events=True) as pool:
            report = ParallelExecutor(workers=1, pool=pool).run(
                plan, store=ResultStore(), bus=bus
            )
        assert report.ok and report.executed == 4
        assert marker.read_text().split() == [second.run_id]
        started = [e.fields["run_id"] for e in bus.events if e.kind == CELL_STARTED]
        assert started.count(first.run_id) == 1
        assert started.count(second.run_id) == 2

    def test_a_raising_cell_fails_alike_in_a_worker_and_in_process(self):
        plan = Plan([spec("IM"), spec(regulator="NotARegulator")])
        serial = SerialExecutor().run(plan, store=ResultStore())
        with WorkerPool(workers=1) as pool:
            pooled = ParallelExecutor(workers=1, pool=pool).run(plan, store=ResultStore())
        assert [o.spec for o in pooled.outcomes] == [plan.specs[0]]
        assert pooled.failures == serial.failures
        assert pooled.failures[0].error.startswith("ValueError: ")


class TestPoolReuse:
    def test_one_pool_many_runs(self):
        plan_a = Plan([spec("IM"), spec("STK", "NoReg")])
        plan_b = Plan([spec("RE", "Int60"), spec("IM", seed=3)])
        serial_a = SerialExecutor().run(plan_a, store=ResultStore())
        serial_b = SerialExecutor().run(plan_b, store=ResultStore())
        with WorkerPool(workers=2) as pool:
            pool.warm()
            executor = ParallelExecutor(workers=2, pool=pool)
            report_a = executor.run(plan_a, store=ResultStore())
            report_b = executor.run(plan_b, store=ResultStore())
            assert pool.respawns == 0
        for serial, pooled in ((serial_a, report_a), (serial_b, report_b)):
            assert pooled.ok
            for a, b in zip(serial.outcomes, pooled.outcomes):
                assert a.spec == b.spec and a.record == b.record

    def test_borrowed_pool_survives_run(self):
        with WorkerPool(workers=2) as pool:
            ParallelExecutor(workers=2, pool=pool).run(
                Plan([spec()]), store=ResultStore()
            )
            # The run must not close a pool it does not own.
            future = pool.submit(execute_cell, spec("STK", "NoReg"))
            assert future.result(timeout=60).record is not None

    def test_event_plane_routes_to_attached_sink(self):
        seen = []
        with WorkerPool(workers=1, events=True) as pool:
            pool.attach_sink(lambda kind, fields: seen.append(kind))
            pool.warm()
            bus = SweepEventBus()
            ParallelExecutor(workers=1, pool=pool).run(
                Plan([spec()]), store=ResultStore(), bus=bus
            )
            # The executor temporarily claims the sink for its bus and
            # must hand it back afterwards.
            kinds = [e.kind for e in bus.events]
            assert CELL_FINISHED in kinds
            before = len(seen)
            pool.submit(execute_cell, spec("STK", "NoReg")).result(timeout=60)
            assert len(seen) > before  # worker events flow to our sink again


# -- pool tasks for the event-plane tests (module-level: they are pickled) --


def _emit_oversized_then_execute(cell):
    sweepbus.emit_cell_event(
        CELL_STARTED, run_id="oversized", blob="x" * MAX_EVENT_BYTES
    )
    return execute_cell(cell)


def _emit_burst(tag, meet_dir, tasks, count, size):
    """Emit ``count`` near-limit events once all ``tasks`` burst tasks
    are running, so several workers write into the pipe at once."""
    meet = Path(meet_dir)
    (meet / tag).touch()
    for _ in range(30000):
        if len(list(meet.iterdir())) >= tasks:
            break
        time.sleep(0.001)
    else:
        raise TimeoutError("the other burst tasks never started")
    for i in range(count):
        sweepbus.emit_cell_event("burst", tag=tag, i=i, blob=tag * size)
    return os.getpid()


def _wait_for(predicate):
    for _ in range(6000):
        if predicate():
            return
        time.sleep(0.005)
    raise AssertionError("the drain thread fell behind")


class TestEventPlane:
    def test_events_add_no_process_beyond_the_workers(self):
        before = {child.pid for child in multiprocessing.active_children()}
        with WorkerPool(workers=2, events=True) as pool:
            pool.warm()
            spawned = {
                child.pid for child in multiprocessing.active_children()
            } - before
            assert len(spawned) == 2

    def test_oversized_event_is_dropped_and_cell_succeeds(self):
        seen = []
        cell = spec("STK", "NoReg")
        with WorkerPool(workers=1, events=True) as pool:
            pool.attach_sink(lambda kind, fields: seen.append(fields))
            outcome = pool.submit(_emit_oversized_then_execute, cell).result(
                timeout=60
            )
            # The pipe is FIFO: once the cell's own cell_started is
            # drained, the oversized event would have been too.
            _wait_for(lambda: any(f.get("run_id") == cell.run_id for f in seen))
        serial = SerialExecutor().run(Plan([cell]), store=ResultStore())
        assert outcome.record == serial.outcomes[0].record
        assert not any(f.get("run_id") == "oversized" for f in seen)

    def test_events_from_concurrent_workers_arrive_whole(self, tmp_path):
        # More writers than a small host has cores, each frame near the
        # atomic-write limit and many pipe buffers' worth in total.
        tags, count, size = ("a", "b", "c"), 200, MAX_EVENT_BYTES - 200
        seen = []
        with WorkerPool(workers=len(tags), events=True) as pool:
            pool.attach_sink(
                lambda kind, fields: seen.append(fields) if kind == "burst" else None
            )
            futures = [
                pool.submit(_emit_burst, tag, str(tmp_path), len(tags), count, size)
                for tag in tags
            ]
            pids = {future.result(timeout=60) for future in futures}
            _wait_for(lambda: len(seen) >= len(tags) * count)
        assert len(pids) == len(tags)
        assert len(seen) == len(tags) * count
        for tag in tags:
            mine = [f for f in seen if f["tag"] == tag]
            assert [f["i"] for f in mine] == list(range(count))
            assert all(f["blob"] == tag * size for f in mine)


class TestInflightRegistry:
    def test_clean_resolve_leaves_and_reads_clean(self):
        registry = InflightRegistry()
        assert registry.claim("x", "owner")
        assert not registry.claim("x", "joiner")
        registry.resolve("x")
        # The joiner reaches wait() only after the entry has gone.
        assert registry.wait("x", timeout_s=0.0) is None
        assert registry._entries == {}

    def test_failed_cell_stays_for_joiners_and_is_reclaimable(self):
        registry = InflightRegistry()
        assert registry.claim("x", "owner")
        registry.resolve("x", error="boom")
        assert registry.wait("x", timeout_s=0.0) == "boom"
        assert registry.claim("x", "retrier")

    def test_registry_is_empty_after_a_job(self, tmp_path):
        loop = SweepLoop(ResultStore(), RunLedger(tmp_path / "ledger"), execute_cell)
        report = loop.run(Plan([spec("IM"), spec("STK", "NoReg")]))
        assert report.ok and report.executed == 2
        assert loop.inflight._entries == {}

    def test_claim_won_after_the_owner_resolved_runs_the_cell_once(self):
        """Job b runs the cell start to finish between job a's store pass
        and job a's claim; a must join b's result, not execute again."""
        executed = []

        def run_cell(cell, sink=None):
            executed.append(cell.run_id)
            return execute_cell(cell, sink=sink)

        loop = SweepLoop(ResultStore(), None, run_cell)
        cell = spec("IM")
        claim = loop.inflight.claim

        def claim_after_b_ran(run_id, owner):
            if owner == "a":
                loop.inflight.claim = claim
                assert loop.run(Plan([cell]), owner="b").executed == 1
            return claim(run_id, owner)

        loop.inflight.claim = claim_after_b_ran
        bus = SweepEventBus()
        report = loop.run(Plan([cell]), owner="a", bus=bus)
        assert executed == [cell.run_id]
        assert report.ok and report.outcomes[0].deduped
        assert [e.kind for e in bus.events] == [CELL_DEDUPED]
        assert loop.inflight._entries == {}
