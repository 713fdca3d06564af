"""Experiment harness: the paper's evaluation, regenerated.

The paper evaluates 6 benchmarks × 28 configurations (2 resolutions ×
2 platforms × {NoReg, Int, RVS, ODR} × {Max, 30/60}).  This package
enumerates that matrix (:mod:`repro.experiments.config`) and runs it
through an explicit **plan → execute → render** pipeline:

* **plan** (:mod:`repro.experiments.plan`) — consumers declare their
  cell demands as content-addressed :class:`CellSpec` values collected
  into a deduplicated :class:`Plan`;
* **execute** (:mod:`repro.experiments.executor`) — a
  :class:`SerialExecutor` or :class:`ParallelExecutor` (process pool)
  runs the plan's missing cells, recalling completed ones from the
  run_id-keyed :class:`ResultStore` (:mod:`repro.experiments.store`);
* **render** — every table and figure of Sections 4 and 6
  (:mod:`repro.experiments.figures`, :mod:`repro.experiments.tables`,
  :mod:`repro.experiments.userstudy`) reads the records of its executed
  plan through :meth:`Runner.records_for`, a read-only
  :class:`PlanRecords` view that never executes.

Each generator returns structured data (plain dicts/dataclasses) plus
an ASCII rendering, so results can be consumed programmatically or
printed; ``python -m repro`` exposes them from the command line (see
``docs/EXECUTION.md``).
"""

from repro.experiments.config import (
    ExperimentConfig,
    PlatformRes,
    paper_configuration_matrix,
    platform_res_combos,
)
from repro.experiments.chaos import (
    ResilienceRow,
    chaos_demands,
    render_resilience,
    resilience_payload,
    resilience_rows,
)
from repro.experiments.executor import (
    CellFailure,
    CellOutcome,
    ExecutionError,
    ExecutionReport,
    ParallelExecutor,
    SerialExecutor,
    execute_cell,
    make_executor,
)
from repro.experiments.pool import WorkerPool
from repro.experiments.scheduling import schedule_cells
from repro.experiments.plan import (
    CellSpec,
    Plan,
    bench_demands,
    group_demands,
    matrix_demands,
)
from repro.experiments.record import ExperimentRecord
from repro.experiments.report import format_table
from repro.experiments.runner import PlanRecords, Runner
from repro.experiments.store import ResultStore

__all__ = [
    "CellFailure",
    "CellOutcome",
    "CellSpec",
    "ExecutionError",
    "ExecutionReport",
    "ExperimentConfig",
    "ExperimentRecord",
    "ParallelExecutor",
    "Plan",
    "PlanRecords",
    "PlatformRes",
    "ResilienceRow",
    "ResultStore",
    "Runner",
    "SerialExecutor",
    "WorkerPool",
    "bench_demands",
    "chaos_demands",
    "execute_cell",
    "format_table",
    "group_demands",
    "make_executor",
    "matrix_demands",
    "schedule_cells",
    "paper_configuration_matrix",
    "platform_res_combos",
    "render_resilience",
    "resilience_payload",
    "resilience_rows",
]
