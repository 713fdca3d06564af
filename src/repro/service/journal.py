"""The job journal: crash-tolerant job state for the gateway.

The scheduler's in-memory job table dies with the process; the
*results* of finished cells survive in the store and ledger, but a
SIGKILLed gateway used to forget which sweeps it still owed its
clients.  :class:`JobJournal` closes that gap with the cheapest durable
structure that works — an append-only ``<ledger>/jobs.jsonl``, one
canonical-JSON record per line, written and read by the same rules as
the run ledger and the sweep event log (:mod:`repro.obs.jsonl`):

* ``job_submitted`` — appended *before* a job's first cell executes:
  job id, plan params (the exact wire payload, so the plan can be
  rebuilt bit-for-bit), label, idempotency token and cell count;
* ``job_finished`` — appended when the job reaches a terminal state,
  with its outcome accounting.

Recovery (:meth:`JobJournal.pending` via
:meth:`~repro.service.scheduler.SweepScheduler.recover`) replays the
log: every submitted-but-unfinished job is resubmitted **under its
original job id and token**, so a client that saw ``submitted job-X``
before the crash can keep polling ``job-X`` after the restart, and a
client retrying its submit with the same token joins the recovered job
instead of forking a duplicate.  Re-execution is naturally minimal:
the recovered job's store pass finds every cell the first life
completed, and the content-addressed ledger dedupes re-appends, so a
kill-and-resume sweep produces the same results and the same ledger as
an uninterrupted one.

A torn ``job_submitted`` (the process died mid-append) is a job the
server never acknowledged, so dropping it on replay is correct.
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Union

from repro.obs.jsonl import append_row, read_rows
from repro.obs.probes import host_epoch

__all__ = ["JOURNAL_FILENAME", "JobJournal", "JournalEntry", "journal_path_for"]

#: Bumped whenever the journal record layout changes incompatibly.
JOURNAL_SCHEMA = 1

#: Conventional journal location inside a ledger directory.
JOURNAL_FILENAME = "jobs.jsonl"


def journal_path_for(ledger_dir: Union[str, Path]) -> str:
    """Where a ledger directory's job journal lives."""
    return os.path.join(str(ledger_dir), JOURNAL_FILENAME)


@dataclass(frozen=True)
class JournalEntry:
    """One submitted job as the journal remembers it."""

    job_id: str
    params: Dict[str, Any]
    label: str
    token: str
    cells: int
    submitted_epoch_s: float


class JobJournal:
    """Append-only NDJSON journal of submitted and finished jobs.

    Thread-safe: concurrent jobs finish on scheduler threads.
    """

    def __init__(self, path: Union[str, Path]) -> None:
        self.path = Path(path)
        self._lock = threading.Lock()

    # -- writing -----------------------------------------------------------

    def _append(self, record: Dict[str, Any]) -> None:
        with self._lock:
            append_row(self.path, record)

    def record_submitted(
        self,
        job_id: str,
        params: Mapping[str, Any],
        label: str,
        token: str,
        cells: int,
    ) -> None:
        """Journal one accepted submit, before its first cell runs."""
        self._append(
            {
                "schema": JOURNAL_SCHEMA,
                "kind": "job_submitted",
                "job_id": job_id,
                "epoch_s": host_epoch(),
                "params": dict(params),
                "label": label,
                "token": token,
                "cells": cells,
            }
        )

    def record_finished(
        self,
        job_id: str,
        state: str,
        executed: int = 0,
        cached: int = 0,
        failed: int = 0,
        error: Optional[str] = None,
    ) -> None:
        """Journal one job reaching a terminal state."""
        record: Dict[str, Any] = {
            "schema": JOURNAL_SCHEMA,
            "kind": "job_finished",
            "job_id": job_id,
            "epoch_s": host_epoch(),
            "state": state,
            "executed": executed,
            "cached": cached,
            "failed": failed,
        }
        if error is not None:
            record["error"] = error
        self._append(record)

    # -- replay ------------------------------------------------------------

    def _records(self) -> List[Dict[str, Any]]:
        """Every journal record of this schema, in append order (a newer
        server's records are skipped by an older one)."""
        return [
            record
            for record in read_rows(self.path)
            if record.get("schema") == JOURNAL_SCHEMA
        ]

    def entries(self) -> List[JournalEntry]:
        """Every journaled submission, in submission order."""
        out: List[JournalEntry] = []
        for record in self._records():
            if record.get("kind") != "job_submitted":
                continue
            params = record.get("params")
            out.append(
                JournalEntry(
                    job_id=str(record.get("job_id", "")),
                    params=dict(params) if isinstance(params, dict) else {},
                    label=str(record.get("label", "")),
                    token=str(record.get("token", "")),
                    cells=int(record.get("cells", 0)),
                    submitted_epoch_s=float(record.get("epoch_s", 0.0)),
                )
            )
        return out

    def finished_ids(self) -> Dict[str, str]:
        """``job_id → terminal state`` for every finished job."""
        out: Dict[str, str] = {}
        for record in self._records():
            if record.get("kind") == "job_finished":
                out[str(record.get("job_id", ""))] = str(record.get("state", ""))
        return out

    def pending(self) -> List[JournalEntry]:
        """Submitted-but-unfinished jobs, oldest first — the recovery set."""
        finished = self.finished_ids()
        return [
            entry
            for entry in self.entries()
            if entry.job_id and entry.job_id not in finished
        ]
