"""The execution layer: the cell body, and the CLI's executors.

:func:`execute_cell` is the single place a cell turns into numbers:
it is what pool workers run and what in-process execution runs, for
every plan ``Runner.run_plan`` is given.  Everything it needs is derived
from the plain-data :class:`~repro.experiments.plan.CellSpec`, so a
cell computes the same bits in any process.

The executors are thin adapters over the one sweep loop,
:class:`~repro.experiments.scheduling.SweepLoop` — the same loop the
service gateway runs its jobs through:

* :class:`SerialExecutor` — every missing cell in-process, one after
  another;
* :class:`ParallelExecutor` — a fan-out over a
  :class:`~repro.experiments.pool.WorkerPool` (``--workers N``), one
  cell per submission, with a per-cell timeout (``cell_timeout_s``) and
  bounded retry of cells lost to a worker crash (``max_attempts``).  A
  caller that already owns a warm pool passes it as ``pool=``.
  Records are **bit-identical** to a serial run — cells share no
  state, and every RNG stream is seeded from the spec alone.

An executor adds only what a one-shot CLI sweep needs around the loop:
its ``sweep_begin``/``sweep_end`` frame and ``cell_quarantined``
events on an optional :class:`~repro.obs.sweep.SweepEventBus`
(``bus=``; with ``bus=None`` nothing is emitted and results are
bit-identical either way).
"""

from __future__ import annotations

import os
import signal
from functools import partial
from typing import Any, Dict, Optional

from repro.experiments.plan import CellSpec, Plan
from repro.experiments.pool import EventSink, WorkerPool
from repro.experiments.record import build_experiment_record
from repro.experiments.results import (
    CellFailure,
    CellOutcome,
    ExecutionError,
    ExecutionReport,
)
from repro.experiments.scheduling import SweepLoop
from repro.experiments.store import ResultStore
from repro.metrics.recovery import RecoveryStats, recovery_stats
from repro.obs import sweep as sweepbus
from repro.obs.ledger import RunLedger
from repro.obs.probes import host_epoch, host_wallclock
from repro.obs.runmeta import build_record
from repro.obs.sweep import ResourceMeter, SweepEventBus
from repro.pipeline import CloudSystem, SystemConfig
from repro.regulators import make_regulator
from repro.workloads import PLATFORMS, Resolution

__all__ = [
    "CellFailure",
    "CellOutcome",
    "ExecutionError",
    "ExecutionReport",
    "ParallelExecutor",
    "SerialExecutor",
    "execute_cell",
    "make_executor",
]

#: Test/CI hook: ``<run_id_prefix>:<marker_file>:<max_kills>`` — a worker
#: about to execute a matching cell SIGKILLs itself (at most
#: ``max_kills`` times across the sweep, tracked in ``marker_file``),
#: simulating a mid-sweep worker crash for the retry/resume paths.
_CRASH_ENV = "ODR_EXECUTOR_SIMULATED_CRASH"
#: Test hook: ``<run_id_prefix>:<seconds>`` — a worker executing a
#: matching cell sleeps first, simulating a hung cell for the timeout path.
_STALL_ENV = "ODR_EXECUTOR_SIMULATED_STALL"


def _chaos_hooks(spec: CellSpec) -> None:
    """Honor the simulated-crash/stall env hooks (tests and CI only)."""
    stall = os.environ.get(_STALL_ENV)  # analyzer: allow=P3 -- fault-injection hook, set only by chaos tests, never hashed
    if stall:
        prefix, _, seconds = stall.partition(":")
        if spec.run_id.startswith(prefix):
            import time

            time.sleep(float(seconds))
    crash = os.environ.get(_CRASH_ENV)  # analyzer: allow=P3 -- fault-injection hook, set only by chaos tests, never hashed
    if crash:
        prefix, marker_path, max_kills = crash.rsplit(":", 2)
        if not prefix or spec.run_id.startswith(prefix):
            try:
                with open(marker_path, "r", encoding="utf-8") as handle:
                    kills = len(handle.read().split())
            except OSError:
                kills = 0
            if kills < int(max_kills):
                with open(marker_path, "a", encoding="utf-8") as handle:
                    handle.write(f"{spec.run_id}\n")
                os.kill(os.getpid(), signal.SIGKILL)


def execute_cell(
    spec: CellSpec,
    collect_ledger: bool = False,
    telemetry_dir: Optional[str] = None,
    git_rev: Optional[str] = None,
    sink: Optional[EventSink] = None,
) -> CellOutcome:
    """Execute one cell: the deterministic unit every sweep runs.

    Everything the simulation needs is derived from the plain-data
    ``spec`` — including its fault plan, whose stochastic details
    resolve from the spec's seed — so this function is safe to ship to
    a worker process; the returned outcome (record + optional ledger
    run record) is likewise plain data.  ``git_rev`` is resolved by the
    caller once per plan, not per cell (workers may not even be inside
    the repo).  ``sink`` routes the cell's events in-process; without
    it they go to the process's worker sink.  A cell that cannot run
    raises; the sweep loop turns that into a
    :class:`~repro.experiments.results.CellFailure`.
    """
    sweepbus.emit_cell_event(
        sweepbus.CELL_STARTED,
        sink=sink,
        run_id=spec.run_id,
        label=spec.label,
        pid=os.getpid(),
        epoch_s=host_epoch(),
        faults=bool(spec.faults),
        fault_class=spec.fault_class,
    )
    _chaos_hooks(spec)
    combo_platform = PLATFORMS[spec.platform]
    resolution = Resolution(spec.resolution)
    regulator = make_regulator(spec.regulator)
    sys_config = SystemConfig(
        benchmark=spec.benchmark,
        platform=combo_platform,
        resolution=resolution,
        seed=spec.seed,
        duration_ms=spec.duration_ms,
        warmup_ms=spec.warmup_ms,
    )
    # A ledger record reads gate delays from the run and engine
    # statistics from the environment's own counters, so a ledger cell
    # runs the bare engine; spans and metrics are recorded only when they
    # are persisted.
    telemetry = None
    if telemetry_dir is not None:
        from repro.obs import Telemetry

        telemetry = Telemetry(engine_probe=collect_ledger)
    meter = ResourceMeter()
    system = CloudSystem(sys_config, regulator, telemetry=telemetry, fault_plan=spec.fault_plan())
    result = system.run()
    resources = meter.finish(events_fired=system.env.stats()["events_fired"])
    wall_clock_s = resources.wall_s

    ledger_record: Optional[Dict[str, Any]] = None
    if collect_ledger:
        ledger_record = build_record(
            result,
            spec.config_payload(),
            label=spec.label,
            wall_clock_s=wall_clock_s,
            git_rev=git_rev,
        )
    if telemetry_dir is not None and telemetry is not None:
        _persist_telemetry(telemetry, spec, telemetry_dir)

    recovery: Optional[RecoveryStats] = None
    if system.faults is not None and system.faults.windows:
        recovery = recovery_stats(
            result,
            [(w.start_ms, w.end_ms) for w in system.faults.windows],
        )
    record = build_experiment_record(
        result,
        benchmark=spec.benchmark,
        config_label=spec.experiment_config().label,
        platform=combo_platform.name,
        resolution=resolution.value,
        regulator_name=regulator.name,
        fps_target=regulator.fps_target,
        qos_target=float(resolution.default_fps_target),
        recovery=recovery,
    )
    return CellOutcome(
        spec=spec,
        record=record,
        ledger_record=ledger_record,
        wall_clock_s=wall_clock_s,
        cached=False,
        resources=resources,
    )


def _persist_telemetry(telemetry: Any, spec: CellSpec, telemetry_dir: str) -> None:
    """Write one cell's Chrome trace + JSONL dump to ``telemetry_dir``."""
    from repro.obs import write_chrome_trace, write_jsonl

    os.makedirs(telemetry_dir, exist_ok=True)
    label = spec.experiment_config().label.replace("/", "-")
    stem = os.path.join(telemetry_dir, f"{spec.benchmark}_{label}_s{spec.seed}")
    if spec.fault_class:
        stem += f"_{spec.fault_class}"
    elif spec.faults:
        stem += "_faults"
    write_chrome_trace(telemetry, stem + ".trace.json")
    write_jsonl(telemetry, stem + ".jsonl")


class SerialExecutor:
    """Execute a plan's missing cells one after another, in-process."""

    name = "serial"
    # The loop settings; ParallelExecutor sets them per instance.
    workers = 1
    cell_timeout_s: Optional[float] = None
    max_attempts = 2
    pool: Optional[WorkerPool] = None

    def run(
        self,
        plan: Plan,
        store: Optional[ResultStore] = None,
        ledger: Optional[RunLedger] = None,
        telemetry_dir: Optional[str] = None,
        git_rev: Optional[str] = None,
        bus: Optional[SweepEventBus] = None,
    ) -> ExecutionReport:
        """Execute ``plan``; cached cells are recalled, the rest run.

        Every freshly executed cell is written through to ``store``
        (and appended to ``ledger``) the moment it completes, so an
        interrupted sweep keeps everything finished so far.  A cell
        that fails becomes a :class:`CellFailure` on the (then partial)
        report instead of aborting the sweep.  With a ``bus``, every
        scheduling decision and outcome is narrated as sweep events —
        observation only; the schedule is identical with or without it.
        """
        store = store if store is not None else ResultStore()
        loop = SweepLoop(
            store,
            ledger,
            partial(
                execute_cell,
                collect_ledger=ledger is not None,
                telemetry_dir=telemetry_dir,
                git_rev=git_rev,
            ),
            pool=self.pool,
            workers=self.workers,
            cell_timeout_s=self.cell_timeout_s,
            max_attempts=self.max_attempts,
        )
        if bus is None:
            return loop.run(plan)
        sweep_started = host_wallclock()
        bus.emit(
            sweepbus.SWEEP_BEGIN,
            cells=len(plan),
            executor=self.name,
            workers=self.workers,
        )
        restore_quarantine = store.on_quarantine
        store.on_quarantine = lambda run_id, path: bus.emit(
            sweepbus.CELL_QUARANTINED, run_id=run_id, path=path
        )
        try:
            report = loop.run(plan, bus=bus)
        finally:
            store.on_quarantine = restore_quarantine
        bus.emit(
            sweepbus.SWEEP_END,
            **report.counts(),
            wall_s=host_wallclock() - sweep_started,
        )
        return report


class ParallelExecutor(SerialExecutor):
    """Fan a plan's missing cells out over a worker pool.

    Workers execute :func:`execute_cell`, one plain :class:`CellSpec`
    per submission; results are harvested in submission order, each as
    soon as its own cell and those before it have finished, so store
    writes and ledger appends happen incrementally (retried cells
    append after their retry completes).  Output is
    bit-identical to :class:`SerialExecutor` — the DES is
    deterministic in the spec.

    ``cell_timeout_s`` bounds the wait for any single cell's result
    (a cell that exceeds it is reported failed; its worker is
    abandoned at pool respawn).  A worker crash breaks the pool
    (:class:`~concurrent.futures.BrokenExecutor`): finished results
    are harvested, and the lost cells re-run individually in a
    respawned pool until each has had ``max_attempts`` executions.

    By default each ``run`` spins up (and tears down) its own
    :class:`~repro.experiments.pool.WorkerPool` — or runs in-process
    when at most one cell is missing.  Pass ``pool=`` to run against a
    caller-owned pool instead, paying worker spawn once for many runs.
    """

    name = "parallel"

    def __init__(
        self,
        workers: int,
        cell_timeout_s: Optional[float] = None,
        max_attempts: int = 2,
        pool: Optional[WorkerPool] = None,
    ) -> None:
        if workers < 1:
            raise ValueError("workers must be >= 1")
        if cell_timeout_s is not None and cell_timeout_s <= 0:
            raise ValueError("cell timeout must be positive")
        if max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        self.workers = workers
        self.cell_timeout_s = cell_timeout_s
        self.max_attempts = max_attempts
        #: A caller-owned pool to run against (``None`` → per-run pool).
        self.pool = pool


def make_executor(
    workers: int = 1,
    cell_timeout_s: Optional[float] = None,
) -> SerialExecutor:
    """``workers <= 1`` → serial; otherwise a pool of ``workers``."""
    if workers > 1:
        return ParallelExecutor(workers, cell_timeout_s=cell_timeout_s)
    return SerialExecutor()
