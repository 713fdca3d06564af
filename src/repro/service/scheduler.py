"""The sweep scheduler: many jobs, one pool, each unique cell once.

:class:`SweepScheduler` is the server-side engine behind the gateway.
It owns the shared execution state — one warm
:class:`~repro.experiments.pool.WorkerPool`, one
:class:`~repro.experiments.store.ResultStore`, one
:class:`~repro.obs.ledger.RunLedger` — and one
:class:`~repro.experiments.scheduling.SweepLoop` over them, the same
sweep loop the CLI executors run.  Every job runs through that loop on
a thread, so concurrent jobs share its in-flight dedupe (each unique
cell executes once; overlapping jobs join it), its single publish path
(one store ``put`` and one ledger append per unique ``run_id``), and
its event router (each job's stream narrates exactly its own cells).
Records and metrics digests are therefore bit-identical to a serial run
of the union plan.

What is left here is the job layer:

* **admission control** — at most ``max_queued_jobs`` non-terminal jobs
  are admitted; beyond that :meth:`SweepScheduler.submit` raises
  :class:`~repro.service.errors.ServerBusy` (with a retry-after hint)
  and emits a ``load_shed`` event, so overload degrades to explicit
  backpressure instead of unbounded queueing;
* **journaled recovery** — with a :class:`~repro.service.journal.JobJournal`
  attached, every accepted job is journaled before it runs and again
  when it finishes; :meth:`SweepScheduler.recover` replays
  submitted-but-unfinished jobs after a crash under their original ids
  and tokens;
* **job framing** — each job's bus opens with ``sweep_begin`` (plus
  ``job_recovered`` for a replayed job) and closes with ``sweep_end``
  on every exit path.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor
from functools import partial
from typing import Callable, Dict, List, Optional

from repro.experiments.executor import execute_cell
from repro.experiments.pool import WorkerPool
from repro.experiments.scheduling import SweepLoop, SweepTally
from repro.experiments.store import ResultStore
from repro.obs import sweep as sweepbus
from repro.obs.ledger import RunLedger
from repro.obs.probes import host_epoch, host_wallclock
from repro.obs.runmeta import config_fingerprint
from repro.obs.sweep import SweepEvent, SweepEventBus
from repro.service.errors import ServerBusy
from repro.service.jobs import Job, JobReport, JobSpec, JobState
from repro.service.journal import JobJournal

__all__ = ["Subscription", "SweepScheduler"]


class Subscription:
    """One client's ordered, gap-free view of a job's event stream.

    Subscribing races the live bus: events emitted between the
    subscribe call and the history replay could arrive twice or out of
    order.  The subscription buffers live events until the replay
    finishes, then merges by ``seq`` (each bus numbers its events
    densely), delivering every event exactly once, in order.

    ``since_seq`` makes the stream *resumable*: a reconnecting watcher
    passes the last ``seq`` it saw, and the replay skips everything at
    or below it — the client's event log continues gap-free across a
    dropped connection instead of starting over.
    """

    def __init__(
        self,
        deliver: Callable[[SweepEvent], None],
        since_seq: int = -1,
    ) -> None:
        self._deliver = deliver
        self._lock = threading.Lock()
        self._live = False
        self._closed = False
        self._pending: List[SweepEvent] = []
        self._last_seq = since_seq
        self._bus: Optional[SweepEventBus] = None

    def _on_event(self, event: SweepEvent) -> None:
        with self._lock:
            if self._closed:
                return
            if not self._live:
                self._pending.append(event)
                return
            if event.seq <= self._last_seq:
                return
            self._last_seq = event.seq
            deliver = self._deliver
        deliver(event)

    def start(self, bus: SweepEventBus) -> "Subscription":
        self._bus = bus
        bus.subscribe(self._on_event)
        history = list(bus.events)
        with self._lock:
            merged = {event.seq: event for event in history}
            for event in self._pending:
                merged.setdefault(event.seq, event)
            self._pending = []
            backlog = [
                merged[seq] for seq in sorted(merged) if seq > self._last_seq
            ]
            if backlog:
                self._last_seq = backlog[-1].seq
            self._live = True
        for event in backlog:
            if not self._closed:
                self._deliver(event)
        return self

    def close(self) -> None:
        """Stop delivery and leave the bus, which then holds no
        reference to ``deliver``."""
        with self._lock:
            self._closed = True
        if self._bus is not None:
            self._bus.unsubscribe(self._on_event)


class SweepScheduler:
    """Run submitted jobs concurrently over one shared pool and store."""

    def __init__(
        self,
        store: ResultStore,
        ledger: Optional[RunLedger] = None,
        pool: Optional[WorkerPool] = None,
        workers: int = 2,
        max_parallel_jobs: int = 4,
        cell_timeout_s: Optional[float] = None,
        max_attempts: int = 2,
        git_rev: Optional[str] = None,
        events_path: Optional[str] = None,
        max_queued_jobs: int = 64,
        journal: Optional[JobJournal] = None,
    ) -> None:
        if max_parallel_jobs < 1:
            raise ValueError("max_parallel_jobs must be >= 1")
        if max_queued_jobs < 1:
            raise ValueError("max_queued_jobs must be >= 1")
        self.store = store
        self.ledger = ledger
        self.pool = pool if pool is not None else WorkerPool(workers, events=True)
        #: Where job buses persist their events (None → in-memory only).
        self.events_path = events_path
        #: Admission bound: most non-terminal jobs held at once.
        self.max_queued_jobs = max_queued_jobs
        #: Crash-recovery journal (None → job state is memory-only).
        self.journal = journal
        #: The sweep loop every job runs through (shared dedupe,
        #: publication and event routing).
        self.loop = SweepLoop(
            store,
            ledger,
            partial(execute_cell, collect_ledger=ledger is not None, git_rev=git_rev),
            pool=self.pool,
            workers=self.pool.workers,
            cell_timeout_s=cell_timeout_s,
            max_attempts=max_attempts,
        )
        self.pool.attach_sink(self.loop.router.dispatch)
        self._jobs: Dict[str, Job] = {}
        self._jobs_lock = threading.Lock()
        self._job_counter = 0
        #: Jobs in ``_jobs`` not yet published terminal: the admission
        #: count, kept so a submit does not scan every job ever held.
        self._active = 0
        #: Idempotency-token → job id (the resubmit-joins-job table).
        self._tokens: Dict[str, str] = {}
        self._threads = ThreadPoolExecutor(
            max_workers=max_parallel_jobs, thread_name_prefix="odr-job"
        )
        self._closed = False
        #: Server-level control-plane stream: admission decisions and
        #: detected client retries, which belong to no single job.  It
        #: is a sweep bus like any other (``sweep_id`` = this server's
        #: identity), so the same validators and dashboards apply.
        self.server_bus = SweepEventBus(
            path=events_path,
            sweep_id="server-"
            + config_fingerprint({"epoch": host_epoch(), "pid": os.getpid()})[:12],
        )
        self.server_bus.emit(
            sweepbus.SWEEP_BEGIN,
            cells=0,
            executor="service-control",
            workers=self.pool.workers,
        )

    # -- job intake --------------------------------------------------------

    def _new_job_id(self) -> str:
        with self._jobs_lock:
            self._job_counter += 1
            nonce = self._job_counter
        return "job-" + config_fingerprint(
            {"epoch": host_epoch(), "pid": os.getpid(), "job": nonce}
        )[:12]

    def submit(
        self,
        spec: JobSpec,
        job_id: Optional[str] = None,
        recovered: bool = False,
    ) -> Job:
        """Queue one sweep; returns the live job record immediately.

        Three admission outcomes precede queueing:

        * a ``spec.token`` the scheduler already accepted **joins** the
          existing job (idempotent resubmit — the client retried a
          submit whose reply it lost) and emits ``client_retry``;
        * more than :attr:`max_queued_jobs` non-terminal jobs raises
          :class:`~repro.service.errors.ServerBusy` and emits
          ``load_shed`` — explicit backpressure, never silent queueing;
        * otherwise the job is journaled (so a crash cannot lose it)
          and queued.

        ``job_id``/``recovered`` are the recovery path's levers: replay
        resubmits under the original identity without re-journaling.
        """
        if self._closed:
            raise RuntimeError("scheduler is closed")
        from repro.service.protocol import build_plan

        if spec.token:
            with self._jobs_lock:
                known = self._tokens.get(spec.token)
                existing = self._jobs.get(known) if known is not None else None
            if existing is not None:
                self.server_bus.emit(
                    sweepbus.CLIENT_RETRY,
                    op="submit",
                    token=spec.token,
                    job_id=existing.job_id,
                )
                return existing
        with self._jobs_lock:
            active = self._active
        if not recovered and active >= self.max_queued_jobs:
            self.server_bus.emit(
                sweepbus.LOAD_SHED,
                reason=f"{active} active jobs >= max_queued_jobs "
                f"({self.max_queued_jobs})",
                active_jobs=active,
            )
            raise ServerBusy(
                f"submit queue full ({active} active jobs)",
                retry_after_s=1.0,
            )
        plan = build_plan("cells", dict(spec.params))
        job_id = job_id if job_id is not None else self._new_job_id()
        bus = SweepEventBus(path=self.events_path, sweep_id=job_id)
        job = Job(
            job_id=job_id,
            plan=plan,
            bus=bus,
            label=spec.label,
            token=spec.token,
            submitted_epoch_s=host_epoch(),
            recovered=recovered,
        )
        with self._jobs_lock:
            self._jobs[job_id] = job
            self._active += 1
            if spec.token:
                self._tokens[spec.token] = job_id
        if self.journal is not None and not recovered:
            self.journal.record_submitted(
                job_id=job_id,
                params=spec.params,
                label=spec.label,
                token=spec.token,
                cells=len(plan),
            )
        self._threads.submit(self._run_job, job)
        return job

    def recover(
        self, on_failure: Callable[[str, str], None] = lambda job_id, error: None
    ) -> List[Job]:
        """Replay submitted-but-unfinished journaled jobs after a crash.

        Each pending journal entry is resubmitted under its **original**
        job id and idempotency token, so clients that saw the submit
        acknowledged before the crash keep polling the same id, and
        client-side submit retries join the recovered job.  The store
        pass then recalls every cell the previous life completed — only
        the missing cells execute, and the content-addressed ledger
        dedupes their re-appends, so the resumed sweep's results and
        ledger are bit-identical to an uninterrupted run's.

        An entry whose plan no longer builds (say, one written by a
        server that accepted plan kinds this one does not) is journaled
        ``failed`` with the error, reported to ``on_failure(job_id,
        error)``, and never retried; the rest still recover.
        """
        if self.journal is None:
            return []
        recovered: List[Job] = []
        for entry in self.journal.pending():
            spec = JobSpec(params=entry.params, label=entry.label, token=entry.token)
            try:
                job = self.submit(spec, job_id=entry.job_id, recovered=True)
            except ValueError as exc:
                error = f"plan no longer builds: {exc}"
                self.journal.record_finished(entry.job_id, "failed", error=error)
                on_failure(entry.job_id, error)
                continue
            recovered.append(job)
        return recovered

    def get(self, job_id: str) -> Optional[Job]:
        """Job by id (unique prefixes accepted, newest match wins)."""
        with self._jobs_lock:
            job = self._jobs.get(job_id)
            if job is not None:
                return job
            match: Optional[Job] = None
            for candidate_id, candidate in self._jobs.items():
                if candidate_id.startswith(job_id):
                    match = candidate
            return match

    def jobs(self) -> List[Job]:
        """Every job, oldest first."""
        with self._jobs_lock:
            return list(self._jobs.values())

    def subscribe(
        self,
        job_id: str,
        deliver: Callable[[SweepEvent], None],
        since_seq: int = -1,
    ) -> Subscription:
        """Stream a job's events (history replayed first) into ``deliver``.

        ``since_seq`` skips replay at or below that sequence number —
        how a reconnecting watcher resumes instead of starting over.
        """
        job = self.get(job_id)
        if job is None:
            raise KeyError(job_id)
        return Subscription(deliver, since_seq=since_seq).start(job.bus)

    # -- the job body ------------------------------------------------------

    def _run_job(self, job: Job) -> None:
        job.state = JobState.RUNNING
        job.started_epoch_s = host_epoch()
        sweep_started = host_wallclock()
        bus = job.bus
        tally = SweepTally()
        state = JobState.FAILED
        try:
            bus.emit(
                sweepbus.SWEEP_BEGIN,
                cells=len(job.plan),
                executor="service",
                workers=self.pool.workers,
            )
            if job.recovered:
                bus.emit(
                    sweepbus.JOB_RECOVERED,
                    job_id=job.job_id,
                    cells=len(job.plan),
                    label=job.label,
                )
            report = self.loop.run(job.plan, owner=job.job_id, bus=bus, tally=tally)
            # The server keeps every finished job for ``result``; keep
            # only what it serves, not the records and ledger rows.
            job.report = JobReport.of(report)
            state = JobState.DONE
        except Exception as exc:  # infrastructure failure, not a cell failure
            job.error = f"{type(exc).__name__}: {exc}"
        finally:
            job.finished_epoch_s = host_epoch()
            counts = tally.report(job.plan).counts()
            if self.journal is not None:
                try:
                    self.journal.record_finished(
                        job.job_id, state=state.value, error=job.error, **counts
                    )
                except OSError:
                    # A full disk must not unwind past the sweep_end
                    # emit below; the job simply replays on resume.
                    pass
            # Published only once journaled: a client that sees the job
            # terminal never finds it pending in the journal.
            with self._jobs_lock:
                job.state = state
                self._active -= 1
            try:
                # The stream's terminal frame: watchers key end-of-job
                # off it, so it is emitted on every exit path.
                bus.emit(
                    sweepbus.SWEEP_END,
                    **counts,
                    wall_s=host_wallclock() - sweep_started,
                )
            finally:
                bus.close()

    # -- lifecycle ---------------------------------------------------------

    def warm(self) -> None:
        """Pre-spawn the pool's workers (paid once per server)."""
        self.pool.warm()

    def close(self, close_pool: bool = True) -> None:
        """Drain running jobs, then shut the thread pool (and pool) down."""
        if self._closed:
            return
        self._closed = True
        self._threads.shutdown(wait=True)
        try:
            # Seal the control-plane stream so its event log validates.
            self.server_bus.emit(
                sweepbus.SWEEP_END,
                executed=0,
                cached=0,
                failed=0,
                wall_s=0.0,
            )
        finally:
            self.server_bus.close()
        if close_pool:
            self.pool.close()
