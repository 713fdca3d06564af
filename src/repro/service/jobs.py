"""The job layer: one client request for one sweep, with a lifecycle.

A *job* wraps one :class:`~repro.experiments.plan.Plan` submitted to
the gateway:

* :class:`JobSpec` — the plain-data request (the plan's cells, plus
  a human label);
* :class:`JobState` — the lifecycle
  ``queued → running → done | failed`` (``failed`` means the job
  machinery itself broke; individual cell failures leave the job
  ``done`` with failures enumerated on its report, exactly like an
  offline sweep);
* :class:`Job` — the live record the scheduler mutates and the gateway
  reads: state, timestamps, the per-job
  :class:`~repro.obs.sweep.SweepEventBus` clients stream from, and a
  :class:`JobReport` once the sweep completes.

Job identity is time-of-submission identity (two submissions of the
same plan are two jobs); *cell* identity stays content-addressed by
``run_id``, which is what cross-job dedupe keys on.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Any, Dict, Mapping, Optional, Tuple

from repro.experiments.plan import CellSpec, Plan
from repro.experiments.results import CellFailure, ExecutionReport
from repro.obs.sweep import SweepEventBus

__all__ = ["Job", "JobCell", "JobReport", "JobSpec", "JobState"]


class JobState(enum.Enum):
    """Lifecycle of one submitted sweep."""

    QUEUED = "queued"
    RUNNING = "running"
    DONE = "done"
    FAILED = "failed"

    @property
    def terminal(self) -> bool:
        return self in (JobState.DONE, JobState.FAILED)


@dataclass(frozen=True)
class JobSpec:
    """The plain-data request one ``submit`` carries.

    ``params`` is the ``cells`` plan payload without its ``kind`` (see
    :func:`repro.service.protocol.build_plan`): JSON-safe, and rebuilt
    into the same plan on crash recovery.
    """

    params: Mapping[str, Any]
    label: str = ""
    #: Client-chosen idempotency token.  A resubmit carrying a token the
    #: scheduler has already accepted *joins* the existing job instead
    #: of forking a duplicate — the at-most-once half of the client's
    #: at-least-once retry loop.  Empty means "no dedupe, every submit
    #: is a new job" (the pre-token behavior).
    token: str = ""


@dataclass(frozen=True)
class JobCell:
    """A finished job's view of one cell that produced a record."""

    spec: CellSpec
    cached: bool
    deduped: bool
    wall_clock_s: float


@dataclass(frozen=True)
class JobReport:
    """What a finished job keeps of its :class:`ExecutionReport`.

    The server keeps every finished job for ``result``, which serves
    only these fields (and reads each cell's digest from the ledger);
    :meth:`Job.summary` reads only the counts.  The records stay in the
    result store and the rows in the ledger, not on the job.
    """

    outcomes: Tuple[JobCell, ...]
    failures: Tuple[CellFailure, ...]
    executed: int
    cached: int
    deduped: int

    @classmethod
    def of(cls, report: ExecutionReport) -> "JobReport":
        return cls(
            outcomes=tuple(
                JobCell(o.spec, o.cached, o.deduped, o.wall_clock_s) for o in report.outcomes
            ),
            failures=report.failures,
            executed=report.executed,
            cached=report.cached,
            deduped=report.deduped,
        )

    @property
    def ok(self) -> bool:
        return not self.failures


@dataclass
class Job:
    """One submitted sweep, from queue to report.

    Mutated only by the scheduler (state transitions, report); read
    concurrently by the gateway.  Field updates are single reference
    assignments, and :meth:`summary` snapshots a consistent wire view.
    """

    job_id: str
    plan: Plan
    #: Per-job event stream (``sweep_id == job_id``); clients subscribe
    #: through the scheduler, which replays history before going live.
    bus: SweepEventBus
    #: The submitted :class:`JobSpec`'s label and token.  Its ``params``
    #: payload is read only at submit, to build ``plan`` and to journal
    #: it, so the job does not keep it.
    label: str = ""
    token: str = ""
    state: JobState = JobState.QUEUED
    submitted_epoch_s: float = 0.0
    started_epoch_s: Optional[float] = None
    finished_epoch_s: Optional[float] = None
    report: Optional[JobReport] = None
    #: Infrastructure failure diagnosis (``state == FAILED`` only).
    error: Optional[str] = None
    #: True when this job was replayed from the job journal after a
    #: gateway crash rather than submitted by a live client.
    recovered: bool = False

    def summary(self) -> Dict[str, Any]:
        """JSON-safe snapshot for ``status`` responses."""
        report = self.report
        out: Dict[str, Any] = {
            "job_id": self.job_id,
            "label": self.label,
            "state": self.state.value,
            "cells": len(self.plan),
            "submitted_epoch_s": self.submitted_epoch_s,
            "started_epoch_s": self.started_epoch_s,
            "finished_epoch_s": self.finished_epoch_s,
        }
        if report is not None:
            out["executed"] = report.executed
            out["cached"] = report.cached
            out["deduped"] = report.deduped
            out["failed"] = len(report.failures)
            out["ok"] = report.ok
        if self.error is not None:
            out["error"] = self.error
        if self.recovered:
            out["recovered"] = True
        return out
