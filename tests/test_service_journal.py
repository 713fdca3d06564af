"""Tests for the job journal and ``serve --resume`` crash recovery.

The contract under test: a SIGKILLed gateway owes its clients the jobs
it acknowledged.  The append-only ``<ledger>/jobs.jsonl`` journal plus
``SweepScheduler.recover`` must resurrect every submitted-but-unfinished
job under its original job id and token, re-execute *only* the cells
the first life never finished, and leave a ledger that is row-for-row
identical to an uninterrupted sweep's.
"""

import json
import os
import signal
import subprocess
import sys
import time

import pytest

from repro.experiments import CellSpec, Plan, ResultStore, SerialExecutor
from repro.obs import sweep as sweepbus
from repro.obs.ledger import RunLedger
from repro.obs.runmeta import metrics_digest
from repro.service import (
    JobJournal,
    JobSpec,
    RetryPolicy,
    ServiceClient,
    ServiceError,
    SweepScheduler,
    journal_path_for,
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


def wait_journaled(job, timeout_s=60.0):
    """Block until ``job`` ends its stream (``sweep_end`` is its last
    emit, after the journal row and the terminal state)."""
    for _ in range(int(timeout_s / 0.05)):
        if any(e.kind == sweepbus.SWEEP_END for e in job.bus.events):
            return
        time.sleep(0.05)
    raise AssertionError(f"{job.job_id} never finished")


class TestJobJournal:
    def test_pending_tracks_unfinished_submissions(self, tmp_path):
        journal = JobJournal(journal_path_for(tmp_path))
        journal.record_submitted(
            "job-a", {"cells": []}, label="", token="tok-a", cells=0
        )
        journal.record_submitted(
            "job-b", {"cells": []}, label="lbl", token="tok-b", cells=2
        )
        assert [e.job_id for e in journal.pending()] == ["job-a", "job-b"]

        journal.record_finished("job-a", "done", executed=0, cached=0)
        pending = journal.pending()
        assert [e.job_id for e in pending] == ["job-b"]
        assert pending[0].token == "tok-b" and pending[0].cells == 2
        assert journal.finished_ids() == {"job-a": "done"}

        journal.record_finished("job-b", "failed", failed=2, error="boom")
        assert journal.pending() == []

    def test_replay_reopens_from_disk(self, tmp_path):
        path = journal_path_for(tmp_path)
        JobJournal(path).record_submitted(
            "job-x", {"cells": []}, label="", token="t", cells=1
        )
        # A different instance (a restarted process) sees the entry.
        assert [e.job_id for e in JobJournal(path).pending()] == ["job-x"]

    def test_torn_final_line_and_junk_are_skipped(self, tmp_path):
        path = journal_path_for(tmp_path)
        journal = JobJournal(path)
        journal.record_submitted(
            "job-ok", {"cells": []}, label="", token="t", cells=1
        )
        with open(path, "a", encoding="utf-8") as handle:
            handle.write("not json at all\n")
            handle.write(json.dumps({"schema": 999, "kind": "job_submitted"}) + "\n")
            handle.write('{"schema": 1, "kind": "job_subm')  # torn mid-append
        assert [e.job_id for e in journal.pending()] == ["job-ok"]

    def test_missing_file_is_empty(self, tmp_path):
        journal = JobJournal(journal_path_for(tmp_path / "never-created"))
        assert journal.pending() == [] and journal.entries() == []


class TestInProcessRecovery:
    def test_recover_resumes_only_missing_cells(self, tmp_path):
        ledger_dir = tmp_path / "ledger"
        cells = [spec("IM"), spec("STK", "NoReg")]
        done, missing = cells

        # Life one: the job was journaled, one cell finished (persisted
        # store + ledger), then the process "died".
        SerialExecutor().run(
            Plan([done]),
            store=ResultStore(ledger_dir / "cells"),
            ledger=RunLedger(ledger_dir),
        )
        journal = JobJournal(journal_path_for(ledger_dir))
        params = {"cells": [c.to_dict() for c in cells]}
        journal.record_submitted(
            "job-test123", params, label="resumed",
            token="tok-recover", cells=len(cells),
        )

        # Life two: a fresh scheduler over the same dirs recovers it.
        scheduler = SweepScheduler(
            ResultStore(ledger_dir / "cells"),
            ledger=RunLedger(ledger_dir),
            workers=1,
            journal=journal,
        )
        try:
            recovered = scheduler.recover()
            assert [job.job_id for job in recovered] == ["job-test123"]
            job = recovered[0]
            assert job.recovered and job.label == "resumed"

            wait_journaled(job)
            assert job.state.value == "done"
            report = job.report
            assert report is not None
            assert report.executed == 1 and report.cached == 1
            cached_ids = {o.spec.run_id for o in report.outcomes if o.cached}
            assert cached_ids == {done.run_id}

            kinds = [e.kind for e in job.bus.events]
            assert sweepbus.JOB_RECOVERED in kinds
            summary = job.summary()
            assert summary["recovered"] is True

            # Recovery closed the journal entry: nothing pends anymore.
            assert journal.pending() == []
            # A client submit-retry with the pre-crash token joins the
            # recovered job instead of forking a duplicate sweep.
            joined = scheduler.submit(
                JobSpec(params=params, token="tok-recover")
            )
            assert joined is job
        finally:
            scheduler.close()

        # One ledger row per cell — re-execution deduped, bit-identical.
        rows = RunLedger(ledger_dir).records()
        assert sorted(r["run_id"] for r in rows) == sorted(
            c.run_id for c in cells
        )

    def test_entry_whose_plan_no_longer_builds_fails_once(self, tmp_path):
        ledger_dir = tmp_path / "ledger"
        os.makedirs(ledger_dir)
        path = journal_path_for(ledger_dir)
        # A protocol-1 server journaled a server-side ``matrix`` plan.
        with open(path, "w", encoding="utf-8") as handle:
            old = {
                "schema": 1, "kind": "job_submitted", "job_id": "job-old",
                "epoch_s": 0.0, "plan_kind": "matrix",
                "params": {"benchmarks": ["IM"], "groups": ["Priv720p"]},
                "label": "", "token": "tok-old", "cells": 7,
            }
            handle.write(json.dumps(old) + "\n")
        journal = JobJournal(path)
        journal.record_submitted(
            "job-new", {"cells": [spec("IM").to_dict()]}, label="",
            token="tok-new", cells=1,
        )
        scheduler = SweepScheduler(
            ResultStore(ledger_dir / "cells"),
            ledger=RunLedger(ledger_dir),
            workers=1,
            journal=journal,
        )
        failures = []
        try:
            def note(job_id, error):
                failures.append(job_id)

            recovered = scheduler.recover(note)
            assert [job.job_id for job in recovered] == ["job-new"]
            assert failures == ["job-old"]
            assert journal.finished_ids()["job-old"] == "failed"
            wait_journaled(recovered[0])
            assert recovered[0].state.value == "done"
            # Journaled as failed: a second recovery does not retry it.
            assert scheduler.recover(note) == []
            assert failures == ["job-old"]
        finally:
            scheduler.close()


class StateProbeJournal(JobJournal):
    """Notes the job's published state each time ``job_finished`` is
    journaled."""

    def __init__(self, path):
        super().__init__(path)
        self.scheduler = None
        self.states_at_finish = []

    def record_finished(self, job_id, state, **counts):
        self.states_at_finish.append(self.scheduler.get(job_id).state)
        super().record_finished(job_id, state, **counts)


class TestJournalBeforeState:
    def test_terminal_state_is_published_after_the_journal_row(self, tmp_path):
        ledger_dir = tmp_path / "ledger"
        journal = StateProbeJournal(journal_path_for(ledger_dir))
        scheduler = SweepScheduler(
            ResultStore(ledger_dir / "cells"),
            ledger=RunLedger(ledger_dir),
            workers=1,
            journal=journal,
        )
        journal.scheduler = scheduler
        try:
            job = scheduler.submit(JobSpec(params={"cells": [spec().to_dict()]}))
            wait_journaled(job)
        finally:
            scheduler.close()
        assert job.state.value == "done"
        assert [state.terminal for state in journal.states_at_finish] == [False]
        assert journal.finished_ids() == {job.job_id: "done"}


class TestKillDashNineRecovery:
    def _serve(self, ledger_dir, extra_env=None):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [os.path.join(os.getcwd(), "src"), env.get("PYTHONPATH", "")]
        )
        env["PYTHONUNBUFFERED"] = "1"
        if extra_env:
            env.update(extra_env)
        proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro.cli", "serve",
                "--port", "0", "--workers", "1",
                "--ledger", str(ledger_dir), "--resume", "--no-warm",
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            env=env,
            # Its own process group, so cleanup reaches the pool workers
            # (same command line) and not only the serve parent.
            start_new_session=True,
        )
        port = None
        assert proc.stdout is not None
        for _ in range(200):
            line = proc.stdout.readline()
            if not line:
                break
            if "serve: listening on" in line:
                port = int(line.split(":")[2].split()[0])
                break
        assert port, "server never reported its port"
        return proc, port

    @staticmethod
    def _kill_group(proc):
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass  # the server and its workers already exited
        proc.wait(timeout=30)

    def test_sigkill_resume_executes_only_missing_cells(self, tmp_path):
        ledger_dir = tmp_path / "ledger"
        fast, stalled = spec("IM"), spec("STK", "NoReg")
        plan = Plan([fast, stalled])

        # Life one: the second cell stalls forever; kill -9 mid-sweep.
        proc, port = self._serve(
            ledger_dir,
            extra_env={
                "ODR_EXECUTOR_SIMULATED_STALL": f"{stalled.run_id}:300"
            },
        )
        job_id = None
        try:
            client = ServiceClient(port=port, connect_wait_s=30.0)
            job_id = client.submit(
                {"kind": "cells", "cells": [c.to_dict() for c in plan]},
                label="kill-nine",
            )["job_id"]
            for _ in range(600):
                try:
                    if client.fetch(fast.run_id).get("ledger_record"):
                        break
                except ServiceError:
                    pass
                time.sleep(0.1)
            else:
                pytest.fail("first cell never persisted before the kill")
        finally:
            self._kill_group(proc)

        journal = JobJournal(journal_path_for(ledger_dir))
        assert [e.job_id for e in journal.pending()] == [job_id]

        # Life two: same ledger, no stall — recovery finishes the sweep.
        proc, port = self._serve(ledger_dir)
        try:
            client = ServiceClient(
                port=port, connect_wait_s=30.0,
                retry=RetryPolicy(attempts=3, base_delay_s=0.05, seed=3),
            )
            status = None
            for _ in range(600):
                try:
                    status = client.status(job_id)["job"]
                    break
                except ServiceError:
                    time.sleep(0.1)  # recovery races the listener
            assert status is not None, "recovered job never reappeared"
            done = client.wait(job_id)
            assert done["state"] == "done" and done.get("recovered") is True
            # Only the stalled cell re-executed; the fast one warmed in.
            assert done["executed"] == 1 and done["cached"] == 1
            served = {
                c.run_id: client.fetch(c.run_id)["metrics_digest"]
                for c in plan
            }
            client.shutdown()
            proc.wait(timeout=30)
        finally:
            self._kill_group(proc)

        # Post-mortem: journal drained, one ledger row per cell, and the
        # interrupted sweep's bits match an uninterrupted offline run.
        assert journal.pending() == []
        rows = RunLedger(ledger_dir).records()
        assert sorted(r["run_id"] for r in rows) == sorted(
            c.run_id for c in plan
        )
        offline = SerialExecutor().run(
            Plan(list(plan)), ledger=RunLedger(tmp_path / "offline")
        )
        for outcome in offline.outcomes:
            assert outcome.ledger_record is not None
            assert served[outcome.spec.run_id] == metrics_digest(
                outcome.ledger_record
            )
