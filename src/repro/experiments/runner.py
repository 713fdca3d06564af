"""Run experiment cells: a thin facade over the plan/execute/store core.

:class:`Runner` is the compatibility surface the figures, tables, user
study, and tests were written against.  Since the plan/execute split it
no longer executes anything itself:

* :meth:`Runner.run_cell` wraps the cell in a plan-of-one and hands it
  to the configured executor (:mod:`repro.experiments.executor`);
* :meth:`Runner.run_plan` executes a whole
  :class:`~repro.experiments.plan.Plan` at once — the one path every
  sweep-shaped CLI subcommand (figure, table2, summary, matrix, bench,
  chaos) executes through, in parallel with ``--workers N``;
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

from typing import Optional, Union

from repro.experiments.config import ExperimentConfig
from repro.experiments.executor import ExecutionError, ExecutionReport, SerialExecutor
from repro.experiments.plan import CellSpec, Plan
from repro.experiments.record import ExperimentRecord
from repro.experiments.store import ResultStore
from repro.obs.ledger import RunLedger
from repro.obs.runmeta import git_revision
from repro.obs.sweep import SweepEventBus

__all__ = ["ExperimentRecord", "Runner"]


class Runner:
    """Plan-of-one facade over the executor + result-store core."""

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

    def run_cell(
        self, benchmark: str, config: ExperimentConfig, seed: Optional[int] = None
    ) -> ExperimentRecord:
        """Run (or recall) one benchmark × configuration cell."""
        spec = self.spec_for(benchmark, config, seed)
        report = self.run_plan(Plan([spec]))
        return report.outcomes[0].record
