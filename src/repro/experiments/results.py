"""Execution outcomes: the plain-data results of running a plan.

Extracted from :mod:`repro.experiments.executor` so the scheduling
core (:mod:`repro.experiments.scheduling`), the executors, and the
service layer (:mod:`repro.service`) can all speak the same result
vocabulary without import cycles:

* :class:`CellOutcome` — one cell that produced a record (executed,
  recalled from the store, or — under the service's cross-job dedupe —
  joined from another job's in-flight execution);
* :class:`CellFailure` — one cell that did not;
* :class:`ExecutionReport` — all outcomes of one plan, in plan order;
* :class:`ExecutionError` — the raise-on-failure wrapper.

Everything here is frozen, picklable plain data.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from repro.experiments.plan import CellSpec
from repro.experiments.record import ExperimentRecord
from repro.obs.sweep import CellResources

__all__ = [
    "CellFailure",
    "CellOutcome",
    "ExecutionError",
    "ExecutionReport",
    "exec_meta",
]


@dataclass(frozen=True)
class CellOutcome:
    """One plan cell after execution (or recall from the store)."""

    spec: CellSpec
    record: ExperimentRecord
    #: The full ledger run record, when the cell executed with ledger
    #: collection on; ``None`` for cached cells (already appended by
    #: whichever run produced them).
    ledger_record: Optional[Dict[str, Any]]
    #: Host seconds this cell's simulation took (0.0 when cached).
    wall_clock_s: float
    #: ``True`` when the result came from the store, not an execution.
    cached: bool
    #: Worker-side resource telemetry (wall, CPU user/sys, peak RSS,
    #: events/sec) for executed cells; ``None`` for cached cells.
    resources: Optional[CellResources] = None
    #: ``True`` when another concurrent job owned the execution and
    #: this job joined its in-flight result (cross-job dedupe).  Such
    #: outcomes are also ``cached`` — this job did not simulate — but
    #: the result was not in the store when the job planned it.
    deduped: bool = False


@dataclass(frozen=True)
class CellFailure:
    """One plan cell that did not produce a record."""

    spec: CellSpec
    #: Human-readable cause (exception type + message, timeout, crash).
    error: str
    #: Executions attempted before giving up.
    attempts: int = 1


@dataclass(frozen=True)
class ExecutionReport:
    """All outcomes of one executed plan, in plan order.

    A report with :attr:`failures` is *partial*: every cell in
    :attr:`outcomes` completed (and persisted, when a store/ledger was
    attached); the failed cells are enumerated with their cause, and a
    later ``--resume`` run needs to execute only those.
    """

    outcomes: Tuple[CellOutcome, ...]
    failures: Tuple[CellFailure, ...] = ()

    @property
    def ok(self) -> bool:
        """True when every planned cell produced a record."""
        return not self.failures

    @property
    def executed(self) -> int:
        """Cells that actually simulated in this run."""
        return sum(1 for o in self.outcomes if not o.cached)

    @property
    def cached(self) -> int:
        """Cells recalled from the result store (incl. deduped joins)."""
        return sum(1 for o in self.outcomes if o.cached)

    @property
    def deduped(self) -> int:
        """Cells joined from another job's in-flight execution."""
        return sum(1 for o in self.outcomes if o.deduped)

    def counts(self) -> Dict[str, int]:
        """``executed``/``cached``/``failed``, as ``sweep_end`` carries them."""
        return {"executed": self.executed, "cached": self.cached, "failed": len(self.failures)}

    @property
    def cell_seconds(self) -> float:
        """Summed per-cell wall clock (CPU-time-like; overlaps in parallel)."""
        return sum(o.wall_clock_s for o in self.outcomes)

    def records(self) -> List[ExperimentRecord]:
        return [o.record for o in self.outcomes]

    def describe(self) -> str:
        text = (
            f"{len(self.outcomes) + len(self.failures)} cell(s): executed={self.executed} "
            f"cached={self.cached} cell_seconds={self.cell_seconds:.2f}"
        )
        if self.deduped:
            text += f" deduped={self.deduped}"
        if self.failures:
            text += f" failed={len(self.failures)}"
        return text


def exec_meta(outcome: CellOutcome) -> Optional[Dict[str, Any]]:
    """Execution-cost metadata persisted with a freshly executed cell."""
    if outcome.cached:
        return None
    meta: Dict[str, Any] = {"wall_clock_s": outcome.wall_clock_s}
    if outcome.resources is not None:
        meta["resources"] = outcome.resources.to_dict()
    return meta


class ExecutionError(RuntimeError):
    """A plan finished with failed cells (raised by ``Runner.run_plan``)."""

    def __init__(self, report: ExecutionReport) -> None:
        self.report = report
        detail = "; ".join(
            f"{failure.spec.label}: {failure.error}" for failure in report.failures
        )
        super().__init__(
            f"{len(report.failures)} of "
            f"{len(report.outcomes) + len(report.failures)} cell(s) failed: {detail}"
        )
