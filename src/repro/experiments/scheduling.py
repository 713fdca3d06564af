"""The one sweep loop, shared by the CLI executors and the gateway.

:class:`SweepLoop` turns a plan into results for
``SerialExecutor``/``ParallelExecutor`` (one loop per run) and the
service's ``SweepScheduler`` (one loop per server).  Below it,
:func:`schedule_cells` pushes cells through a
:class:`~repro.experiments.pool.WorkerPool`, one cell per submission,
with per-cell timeout, pool respawn and bounded per-cell retry.  With a
``bus`` everything narrates itself as sweep events; without one nothing
is emitted and the schedule is identical.
"""

from __future__ import annotations

import threading
from concurrent.futures import BrokenExecutor, Future
from concurrent.futures import TimeoutError as FuturesTimeoutError
from dataclasses import dataclass, field
from typing import (
    Any,
    Callable,
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
    Union,
)

from repro.experiments.plan import CellSpec, Plan
from repro.experiments.pool import PoolUnavailableError, WorkerPool
from repro.experiments.record import ExperimentRecord
from repro.experiments.results import (
    CellFailure,
    CellOutcome,
    ExecutionReport,
    exec_meta,
)
from repro.experiments.store import ResultStore
from repro.obs import sweep as sweepbus
from repro.obs.ledger import RunLedger
from repro.obs.sweep import SweepEventBus

__all__ = [
    "EventRouter",
    "InflightRegistry",
    "ResultPublisher",
    "SweepLoop",
    "SweepTally",
    "cell_event_fields",
    "schedule_cells",
]

#: A cell runner: executes one cell and returns its outcome, or raises.
#: It also takes ``sink=``, the in-process route for the cell's events.
CellRunner = Callable[..., CellOutcome]


def cell_event_fields(spec: CellSpec) -> Dict[str, Any]:
    """The identifying fields every cell event carries."""
    return {
        "run_id": spec.run_id,
        "label": spec.label,
        "faults": bool(spec.faults),
        "fault_class": spec.fault_class,
    }


def _raised(spec: CellSpec, exc: Exception, attempts: int = 1) -> CellFailure:
    """The failure of a cell whose runner raised, in a worker or in-process."""
    return CellFailure(spec, f"{type(exc).__name__}: {exc}", attempts=attempts)


def schedule_cells(
    pool: WorkerPool,
    specs: Sequence[CellSpec],
    run_cell: CellRunner,
    cell_timeout_s: Optional[float] = None,
    max_attempts: int = 2,
    bus: Optional[SweepEventBus] = None,
) -> Iterator[Union[CellOutcome, CellFailure]]:
    """Run ``specs`` through ``pool`` and yield one result per cell.

    Each cell is its own submission.  ``run_cell`` must be picklable
    (module-level, or a :func:`functools.partial` of a module-level
    function — the fork lint enforces this at its call sites).

    Policy:

    * results are harvested in submission order, each as soon as its
      own future returns, so the caller publishes a cell the moment it
      and every cell before it have finished;
    * a cell whose runner raises fails with ``"<Type>: <message>"``;
    * a cell that exceeds ``cell_timeout_s`` fails and marks the pool
      hung — the pool is respawned (workers abandoned) before the next
      round;
    * a worker crash (:class:`~concurrent.futures.BrokenExecutor`)
      breaks the pool: cells whose futures returned before the crash
      still yield results, every other cell of the round is re-queued,
      and the pool respawns;
    * a cell is retried until it has had ``max_attempts`` executions,
      then fails with a crash diagnosis.
    """
    if max_attempts < 1:
        raise ValueError("max_attempts must be >= 1")
    attempts: Dict[str, int] = {spec.run_id: 0 for spec in specs}
    queue: List[CellSpec] = list(specs)
    while queue:
        batch, queue = queue, []
        for spec in batch:
            attempts[spec.run_id] += 1
        if bus is not None:
            bus.emit(sweepbus.POOL_OPENED, workers=pool.workers, batch=len(batch))
        futures: List[Tuple[CellSpec, "Future[CellOutcome]"]] = [
            (spec, pool.submit(run_cell, spec)) for spec in batch
        ]
        hung = False
        pool_broken = False
        for spec, future in futures:
            attempt = attempts[spec.run_id]
            if pool_broken and not future.done():
                # Lost with the broken pool: run it again in a fresh one.
                yield from _requeue(spec, attempt, queue, max_attempts, bus)
                continue
            try:
                outcome = future.result(timeout=cell_timeout_s)
            except FuturesTimeoutError:
                hung = True
                if bus is not None:
                    bus.emit(
                        sweepbus.CELL_TIMED_OUT,
                        timeout_s=cell_timeout_s,
                        **cell_event_fields(spec),
                    )
                yield CellFailure(
                    spec, f"timed out after {cell_timeout_s:g} s", attempts=attempt
                )
            except BrokenExecutor:
                if not pool_broken:
                    pool_broken = True
                    if bus is not None:
                        bus.emit(sweepbus.POOL_BROKEN)
                yield from _requeue(spec, attempt, queue, max_attempts, bus)
            except Exception as exc:
                yield _raised(spec, exc, attempt)
            else:
                yield outcome
        # A hung worker poisons its slot in a persistent pool, and a
        # broken pool is dead: either way the next round needs fresh
        # workers.  ``wait=False`` abandons hung workers, the policy
        # the one-shot executor always had.
        if hung:
            pool.respawn(wait=False)
        elif pool_broken:
            pool.respawn(wait=True)


def _requeue(
    spec: CellSpec,
    attempted: int,
    queue: List[CellSpec],
    max_attempts: int,
    bus: Optional[SweepEventBus],
) -> Iterator[CellFailure]:
    """Re-queue a cell lost to a worker crash, or fail it."""
    if attempted < max_attempts:
        queue.append(spec)
        if bus is not None:
            bus.emit(sweepbus.CELL_RETRIED, attempt=attempted, **cell_event_fields(spec))
    else:
        yield CellFailure(
            spec,
            f"worker crashed (gave up after {attempted} attempt(s))",
            attempts=attempted,
        )


# -- the sweep loop --------------------------------------------------------


class _Inflight:
    """One claimed cell: who owns it, and how it resolved."""

    __slots__ = ("owner", "done", "error")

    def __init__(self, owner: str) -> None:
        self.owner = owner
        self.done = threading.Event()
        self.error: Optional[str] = None


class InflightRegistry:
    """Claim-or-join arbitration for concurrently demanded cells.

    The first claimer of a ``run_id`` owns its execution; later
    claimers join and :meth:`wait` for the owner to resolve.  A cell
    resolved with an error is re-claimable (the next job to demand it
    retries); a cell resolved clean leaves the registry — its record is
    in the store, published before the resolve, so a later claim wins
    only after the record is readable (:meth:`SweepLoop.run` re-reads
    the store after each won claim), and a :meth:`wait` that finds no
    entry reads as clean.  Deadlock-free by construction: a job resolves
    every cell it owns (success, failure, or owner-abort) *before* it
    waits on any cell it joined, so cross-job waits only ever point at
    execution phases, never at other waits.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._entries: Dict[str, _Inflight] = {}

    def claim(self, run_id: str, owner: str) -> bool:
        """True → ``owner`` executes this cell; False → join and wait."""
        with self._lock:
            entry = self._entries.get(run_id)
            if entry is None or (entry.done.is_set() and entry.error is not None):
                self._entries[run_id] = _Inflight(owner)
                return True
            return False

    def resolve(self, run_id: str, error: Optional[str] = None) -> None:
        """Owner's completion signal: clean (the entry leaves), or with
        a failure cause (the entry stays, re-claimable)."""
        with self._lock:
            entry = self._entries.get(run_id)
            if entry is None or entry.done.is_set():
                return
            if error is None:
                del self._entries[run_id]
        entry.error = error
        entry.done.set()

    def wait(self, run_id: str, timeout_s: Optional[float] = None) -> Optional[str]:
        """Block until the owner resolves; returns its error (None = clean)."""
        with self._lock:
            entry = self._entries.get(run_id)
        if entry is None:
            return None  # resolved clean, and gone
        if not entry.done.wait(timeout_s):
            return f"timed out waiting for in-flight owner ({entry.owner})"
        return entry.error

    def abort_owned(self, owner: str, error: str) -> None:
        """Resolve every unresolved cell ``owner`` claimed, as failed.

        Called from the owning job's ``finally`` so joiners never wait
        on a job that died before reaching a cell.
        """
        with self._lock:
            entries = [
                e for e in self._entries.values() if e.owner == owner
            ]
        for entry in entries:
            if not entry.done.is_set():
                entry.error = error
                entry.done.set()


class ResultPublisher:
    """The single write path for finished cells: store + ledger, once.

    Ownership (one publisher call per unique ``run_id``) is the
    :class:`InflightRegistry`'s guarantee; the lock here additionally
    keeps the store write and the ledger append of one cell adjacent,
    so a concurrent reader never sees a ledger row whose cell file is
    still being written.
    """

    def __init__(self, store: ResultStore, ledger: Optional[RunLedger]) -> None:
        self._store = store
        self._ledger = ledger
        self._lock = threading.Lock()

    def publish(self, outcome: CellOutcome) -> None:
        with self._lock:
            self._store.put(
                outcome.spec.run_id, outcome.record, exec_meta=exec_meta(outcome)
            )
            if self._ledger is not None and outcome.ledger_record is not None:
                self._ledger.append(outcome.ledger_record)


class EventRouter:
    """Fan cell events out to the bus of the sweep that owns the cell.

    Cell events identify cells (``run_id``), not sweeps; the router
    holds the run→bus mapping for every cell currently owned by a
    running sweep.  It is both the pool's event sink (worker events,
    called on the pool's drain thread) and the in-process path's
    per-call sink.  Events without a ``run_id`` (``worker_spawned``)
    are pool-level and broadcast to every active sweep.
    ``deactivate`` removes a sweep under the dispatch lock, so once it
    returns no further event can reach that sweep's bus — the sweep
    then emits its ``sweep_end`` knowing its stream is sealed.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._by_run: Dict[str, SweepEventBus] = {}
        self._active: Dict[str, SweepEventBus] = {}

    def activate(self, job_id: str, bus: SweepEventBus, run_ids: List[str]) -> None:
        with self._lock:
            self._active[job_id] = bus
            for run_id in run_ids:
                self._by_run[run_id] = bus

    def deactivate(self, job_id: str) -> None:
        with self._lock:
            bus = self._active.pop(job_id, None)
            if bus is not None:
                self._by_run = {
                    run_id: b for run_id, b in self._by_run.items() if b is not bus
                }

    def dispatch(self, kind: str, fields: Dict[str, Any]) -> None:
        """Deliver one cell event to its owning sweep's bus (if any)."""
        with self._lock:
            run_id = fields.get("run_id")
            if run_id is None:
                for bus in self._active.values():
                    bus.emit(kind, **fields)
                return
            bus = self._by_run.get(str(run_id))
            if bus is not None:
                bus.emit(kind, **fields)


def _recalled(spec: CellSpec, record: ExperimentRecord, deduped: bool = False) -> CellOutcome:
    """A cell this sweep did not simulate: recalled from the store, or
    joined from another sweep's execution (``deduped``)."""
    return CellOutcome(spec, record, None, wall_clock_s=0.0, cached=True, deduped=deduped)


@dataclass
class SweepTally:
    """A sweep's results so far, by ``run_id`` — readable even after
    the sweep raised, which is how the gateway journals and frames a
    job that died mid-way."""

    outcomes: Dict[str, CellOutcome] = field(default_factory=dict)
    failures: Dict[str, CellFailure] = field(default_factory=dict)

    def report(self, plan: Plan) -> ExecutionReport:
        """Everything tallied, in plan order."""
        return ExecutionReport(
            outcomes=tuple(
                self.outcomes[run_id] for run_id in plan.run_ids if run_id in self.outcomes
            ),
            failures=tuple(
                self.failures[run_id] for run_id in plan.run_ids if run_id in self.failures
            ),
        )


class SweepLoop:
    """Store pass → claim → execute → publish → join, for any caller.

    For each plan, in order:

    1. **store pass** — a cell counts as done only when the store holds
       it *and* the ledger (if any) holds its ``run_id``.  A crash
       between ``store.put`` and ``ledger.append`` therefore re-executes
       that cell (bit-identically) instead of leaving the ledger one
       row short for good;
    2. **claim** — each missing cell is claimed through the
       :class:`InflightRegistry`; a cell another sweep already runs is
       joined, not executed twice, and a won claim re-reads the store,
       since the cell's owner may have published and left the registry
       since the store pass;
    3. **execute** — on the pool via :func:`schedule_cells`, else
       in-process cell by cell.  A run with no ``pool``, ``workers > 1``
       and more than one cell spins up (and closes) its own pool; a pool
       that cannot provide workers at all degrades to in-process
       execution (``degraded_serial``);
    4. **publish** — :class:`ResultPublisher`: ``store.put``, then
       ``ledger.append``, then ``cell_finished``;
    5. **join and report** — wait on joined cells, then report in plan
       order.

    ``run_cell`` is a :func:`functools.partial` of
    :func:`~repro.experiments.executor.execute_cell` carrying the
    ledger/telemetry/git-rev settings.  Concurrent sweeps on one loop
    (the gateway's jobs) share its :attr:`inflight`, :attr:`publisher`
    and :attr:`router`, and are told apart by ``owner``.
    """

    def __init__(
        self,
        store: ResultStore,
        ledger: Optional[RunLedger],
        run_cell: CellRunner,
        pool: Optional[WorkerPool] = None,
        workers: int = 1,
        cell_timeout_s: Optional[float] = None,
        max_attempts: int = 2,
    ) -> None:
        self.store = store
        self.ledger = ledger
        self.run_cell = run_cell
        self.pool = pool
        self.workers = workers
        self.cell_timeout_s = cell_timeout_s
        self.max_attempts = max_attempts
        self.inflight = InflightRegistry()
        self.publisher = ResultPublisher(store, ledger)
        self.router = EventRouter()

    def run(
        self,
        plan: Plan,
        owner: str = "local",
        bus: Optional[SweepEventBus] = None,
        tally: Optional[SweepTally] = None,
    ) -> ExecutionReport:
        """Run ``plan`` as ``owner``; results accumulate in ``tally``."""
        tally = tally if tally is not None else SweepTally()
        owned: List[CellSpec] = []
        joined: List[CellSpec] = []
        for spec in plan:
            record = self._stored(spec.run_id)
            if record is not None:
                tally.outcomes[spec.run_id] = _recalled(spec, record)
                if bus is not None:
                    bus.emit(sweepbus.CELL_CACHED, **cell_event_fields(spec))
                continue
            if not self.inflight.claim(spec.run_id, owner):
                joined.append(spec)
                continue
            # The owner of a cell publishes it before it resolves (and
            # leaves the registry), so a claim can win just after
            # another sweep ran the cell: look again before executing.
            if spec.run_id in self.store:
                record = self._stored(spec.run_id)
            if record is not None:
                self.inflight.resolve(spec.run_id)
                self._deduped(spec, record, bus, tally)
                continue
            owned.append(spec)
            if bus is not None:
                bus.emit(sweepbus.CELL_SCHEDULED, **cell_event_fields(spec))
        if owned:
            self._execute_owned(owned, owner, bus, tally)
        for spec in joined:
            self._await_joined(spec, bus, tally)
        return tally.report(plan)

    def _stored(self, run_id: str) -> Optional[ExperimentRecord]:
        """The record of a cell that counts as done: the store holds it
        *and* the ledger (if any) holds its ``run_id``."""
        record = self.store.get(run_id)
        if record is not None and self.ledger is not None and run_id not in self.ledger:
            return None
        return record

    def _execute_owned(
        self,
        owned: List[CellSpec],
        owner: str,
        bus: Optional[SweepEventBus],
        tally: SweepTally,
    ) -> None:
        """Run the claimed cells; publish, narrate and resolve each once."""
        if bus is not None:
            self.router.activate(owner, bus, [spec.run_id for spec in owned])
        try:
            for item in self._results(owned, bus):
                run_id = item.spec.run_id
                if isinstance(item, CellFailure):
                    self._fail(item, bus, tally)
                    self.inflight.resolve(run_id, error=item.error)
                    continue
                self.publisher.publish(item)
                tally.outcomes[run_id] = item
                if bus is not None:
                    resources = (
                        item.resources.to_dict() if item.resources is not None else None
                    )
                    bus.emit(
                        sweepbus.CELL_FINISHED,
                        wall_s=item.wall_clock_s,
                        resources=resources,
                        **cell_event_fields(item.spec),
                    )
                self.inflight.resolve(run_id)
        finally:
            # Whatever happened above, joiners must never wait forever:
            # any cell this owner claimed but did not resolve is failed.
            self.inflight.abort_owned(owner, "owning job aborted")
            self.router.deactivate(owner)

    def _results(
        self, specs: List[CellSpec], bus: Optional[SweepEventBus]
    ) -> Iterator[Union[CellOutcome, CellFailure]]:
        """One result per cell: on the pool if there is one, else in-process."""
        workers = min(self.workers, len(specs))
        pool = self.pool
        if pool is None:
            if workers <= 1:
                yield from self._in_process(specs)
                return
            pool = WorkerPool(workers, events=bus is not None)
        previous = pool.attach_sink(self.router.dispatch) if bus is not None else None
        done: Set[str] = set()
        try:
            for item in schedule_cells(
                pool,
                specs,
                self.run_cell,
                cell_timeout_s=self.cell_timeout_s,
                max_attempts=self.max_attempts,
                bus=bus,
            ):
                done.add(item.spec.run_id)
                yield item
        except PoolUnavailableError as exc:
            # The pool cannot provide workers at all (closed, or the
            # host refuses to spawn processes) — respawning cannot
            # help.  Degrade to in-process execution of the remaining
            # cells through the same cell runner: slower,
            # bit-identical, never silently dropped.
            remaining = [spec for spec in specs if spec.run_id not in done]
            if bus is not None:
                bus.emit(
                    sweepbus.DEGRADED_SERIAL,
                    reason=f"{type(exc).__name__}: {exc}",
                    cells=len(remaining),
                )
            yield from self._in_process(remaining)
        finally:
            if bus is not None:
                # A borrowed pool gets its previous sink back (the
                # gateway's pool holds the router from the start).
                pool.attach_sink(previous)
            if pool is not self.pool:
                pool.close()

    def _in_process(
        self, specs: List[CellSpec]
    ) -> Iterator[Union[CellOutcome, CellFailure]]:
        # Cell events go straight to the router, per call: the
        # process-global worker sink is left alone, so concurrent
        # in-process sweeps cannot steal each other's events.
        for spec in specs:
            try:
                item: Union[CellOutcome, CellFailure] = self.run_cell(
                    spec, sink=self.router.dispatch
                )
            except Exception as exc:
                item = _raised(spec, exc)
            yield item

    def _await_joined(
        self, spec: CellSpec, bus: Optional[SweepEventBus], tally: SweepTally
    ) -> None:
        """Collect a cell another concurrent sweep owns (cross-job dedupe)."""
        error = self.inflight.wait(spec.run_id)
        record = self.store.get(spec.run_id) if error is None else None
        if error is None and record is None:
            error = "owner resolved but result missing from store"
        if record is None:
            self._fail(CellFailure(spec, f"deduped execution failed: {error}"), bus, tally)
            return
        self._deduped(spec, record, bus, tally)

    @staticmethod
    def _deduped(
        spec: CellSpec,
        record: ExperimentRecord,
        bus: Optional[SweepEventBus],
        tally: SweepTally,
    ) -> None:
        tally.outcomes[spec.run_id] = _recalled(spec, record, deduped=True)
        if bus is not None:
            bus.emit(sweepbus.CELL_DEDUPED, **cell_event_fields(spec))

    @staticmethod
    def _fail(
        failure: CellFailure, bus: Optional[SweepEventBus], tally: SweepTally
    ) -> None:
        tally.failures[failure.spec.run_id] = failure
        if bus is not None:
            bus.emit(
                sweepbus.CELL_FAILED,
                error=failure.error,
                attempts=failure.attempts,
                **cell_event_fields(failure.spec),
            )
