"""The CLI's sweep bundle, and the read-only view renderers consume.

:class:`Runner` bundles what executing a plan needs — the configured
executor (:mod:`repro.experiments.executor`), the result store, the
run ledger and the sweep event bus — plus the horizon (seed, duration,
warmup) demand builders stamp on their cells.  Every result goes one
way: **plan → run → read → render**.

* :meth:`Runner.run_plan` executes a whole
  :class:`~repro.experiments.plan.Plan` — the one path every
  sweep-shaped CLI subcommand (figure, table2, summary, userstudy,
  compare, matrix, bench, chaos) executes through, in parallel with
  ``--workers N``;
* :meth:`Runner.records_for` returns a :class:`PlanRecords` view of
  the store restricted to that plan, which figures, tables and the
  user study read.  Reading never executes: a cell outside the plan
  raises :class:`KeyError`, so a renderer that reads a cell its
  demands forgot fails loudly instead of running it unplanned;
* results live in a :class:`~repro.experiments.store.ResultStore`
  keyed by the ledger's content-addressed ``run_id`` (benchmark,
  platform, resolution, regulator, **duration, warmup**, seed), so
  cells are shared across consumers, across processes, and — with a
  persistent store (``--resume``) — across invocations.

With ``telemetry_dir`` set, every executed cell persists a Chrome
trace and a JSONL dump; with a ``ledger`` (or ledger directory)
attached, every executed cell appends its self-describing run record
to the append-only run ledger (:mod:`repro.obs.ledger`).
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple, Union

from repro.experiments.config import ExperimentConfig
from repro.experiments.executor import ExecutionError, ExecutionReport, SerialExecutor
from repro.experiments.plan import CellSpec, Plan
from repro.experiments.record import ExperimentRecord
from repro.experiments.store import ResultStore
from repro.obs.ledger import RunLedger
from repro.obs.runmeta import git_revision
from repro.obs.sweep import SweepEventBus

__all__ = ["ExperimentRecord", "PlanRecords", "Runner"]


class PlanRecords:
    """Read-only view of a result store, restricted to one plan's cells.

    Cells are named the way renderers name them — benchmark,
    configuration and seed — whatever horizon the plan was built at, so
    a plan may hold each such name once, and no fault-injected cell
    (that name cannot tell it from its clean twin).
    """

    def __init__(self, plan: Plan, store: ResultStore, seed: int) -> None:
        self._store = store
        self._seed = seed
        self._run_ids: Dict[Tuple[str, str, int], str] = {}
        for run_id, spec in zip(plan.run_ids, plan.specs):
            if spec.faults:
                raise ValueError(f"plan cell {spec.label} carries faults")
            key = (spec.benchmark, spec.experiment_config().label, spec.seed)
            if key in self._run_ids:
                raise ValueError(f"plan holds {spec.label} (seed {spec.seed}) twice")
            self._run_ids[key] = run_id

    def get(
        self, benchmark: str, config: ExperimentConfig, seed: Optional[int] = None
    ) -> ExperimentRecord:
        """The record of one planned cell (``seed`` defaults to the runner's).

        Raises :class:`KeyError` for a cell outside the plan, and for a
        planned cell the store does not hold (the plan was not run, or
        the cell failed).
        """
        seed = self._seed if seed is None else seed
        name = f"{benchmark}/{config.label} (seed {seed})"
        run_id = self._run_ids.get((benchmark, config.label, seed))
        if run_id is None:
            raise KeyError(f"{name} is not in the plan")
        record = self._store.get(run_id)
        if record is None:
            raise KeyError(f"{name} has no stored record")
        return record


class Runner:
    """Executor, store, ledger and bus for running plans, at one horizon."""

    def __init__(
        self,
        seed: int = 1,
        duration_ms: float = 20000.0,
        warmup_ms: float = 3000.0,
        telemetry_dir: Optional[str] = None,
        ledger: Optional[Union[RunLedger, str]] = None,
        executor: Optional[SerialExecutor] = None,
        store: Optional[ResultStore] = None,
    ):
        self.seed = seed
        self.duration_ms = duration_ms
        self.warmup_ms = warmup_ms
        #: When set, each executed cell persists a Chrome trace and a
        #: JSONL telemetry dump into this directory.
        self.telemetry_dir = telemetry_dir
        #: Execution strategy; defaults to serial.  Pass
        #: :class:`~repro.experiments.executor.ParallelExecutor` to fan
        #: plans out over a process pool.
        self.executor = executor if executor is not None else SerialExecutor()
        #: Completed cells, keyed by content-addressed run_id.  A store
        #: with a ``persist_dir`` survives across invocations (resume).
        self.store = store if store is not None else ResultStore()
        #: When set, each executed cell appends a run record here.  A
        #: string is taken as the ledger directory.
        self.ledger: Optional[RunLedger] = None
        #: When set, every plan execution narrates itself into this
        #: sweep event bus (:mod:`repro.obs.sweep`) — observation only;
        #: results are bit-identical with or without it.
        self.bus: Optional[SweepEventBus] = None
        #: The git revision stamped on ledger records, resolved once
        #: when a ledger is attached.
        self.git_rev: Optional[str] = None
        if ledger is not None:
            self.attach_ledger(ledger)

    def attach_ledger(self, ledger: Union[RunLedger, str]) -> RunLedger:
        """Start appending every executed cell's run record to ``ledger``."""
        self.ledger = RunLedger(ledger) if isinstance(ledger, str) else ledger
        self.git_rev = git_revision()
        return self.ledger

    def spec_for(
        self, benchmark: str, config: ExperimentConfig, seed: Optional[int] = None
    ) -> CellSpec:
        """The :class:`CellSpec` this runner would execute for a cell."""
        return CellSpec.from_config(
            benchmark,
            config,
            seed=self.seed if seed is None else seed,
            duration_ms=self.duration_ms,
            warmup_ms=self.warmup_ms,
        )

    def run_plan(self, plan: Plan, allow_failures: bool = False) -> ExecutionReport:
        """Execute every cell of ``plan`` not already in the store.

        Failed cells raise :class:`ExecutionError` (carrying the
        partial report) unless ``allow_failures`` is set, in which case
        the partial report is returned and the caller inspects
        ``report.failures`` itself.
        """
        report = self.executor.run(
            plan,
            store=self.store,
            ledger=self.ledger,
            telemetry_dir=self.telemetry_dir,
            git_rev=self.git_rev,
            bus=self.bus,
        )
        if report.failures and not allow_failures:
            raise ExecutionError(report)
        return report

    def records_for(self, plan: Plan) -> PlanRecords:
        """A read-only view of the store over ``plan``'s cells."""
        return PlanRecords(plan, self.store, self.seed)
