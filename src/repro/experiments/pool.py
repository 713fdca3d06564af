"""A persistent, reusable process-pool for cell execution.

:class:`WorkerPool` wraps a stdlib
:class:`~concurrent.futures.ProcessPoolExecutor` so the expensive part
of parallel execution — spawning worker processes — is paid **once per
pool**, not once per sweep.  The one-shot executors
(:class:`~repro.experiments.executor.ParallelExecutor`) create a pool
per run; the service layer (:mod:`repro.service`) creates one pool per
server and runs every job's cells through it, which is what turns pool
warmup from a per-sweep tax into a per-server constant.

The pool also owns the worker→parent event plane.  With
``events=True`` it opens one one-way pipe
(``multiprocessing.Pipe(duplex=False)``), initializes every worker to
route its :func:`repro.obs.sweep.emit_cell_event` calls into the pipe's
write end, and drains the read end on a parent thread into whatever
``sink`` is currently attached.  Each event is one pickled
``send_bytes`` frame of at most :data:`MAX_EVENT_BYTES`, so the length
header and payload go out in a single ``write(2)`` of at most
``PIPE_BUF`` bytes, which POSIX makes atomic (the stdlib's
``multiprocessing.resource_tracker`` relies on the same guarantee).
Concurrent workers therefore never interleave their frames, a
SIGKILLed worker leaves a whole frame or none, and no worker holds a
lock that its death could leave taken.  A larger event is dropped, like
any other failed emit, rather than split.  Emitting costs one pipe
write; there is no server process and no round trip.

Because the sink is attached *per run* (not baked in at worker spawn),
one warm pool can serve many sweeps — or many concurrent service jobs,
whose router fans events out to per-job buses.

A pool survives its own failures: :meth:`respawn` replaces a broken or
hung :class:`~concurrent.futures.ProcessPoolExecutor` with a fresh one
(the scheduling core calls it after ``BrokenExecutor`` / a cell
timeout) while the pipe, drain thread, and attached sink all keep
working.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import select
import threading
from concurrent.futures import Future, ProcessPoolExecutor
from multiprocessing.connection import Connection
from typing import Any, Callable, Dict, Optional

from repro.obs import sweep as sweepbus
from repro.obs.probes import host_epoch

__all__ = ["MAX_EVENT_BYTES", "PoolUnavailableError", "WorkerPool"]


class PoolUnavailableError(RuntimeError):
    """The pool cannot provide workers at all — it is closed, or the
    host refuses to spawn worker processes (fork/spawn failure, fd or
    process limits).  Distinct from :class:`~concurrent.futures.BrokenExecutor`
    (workers existed and died, which :meth:`WorkerPool.respawn` heals):
    this is the signal that respawning cannot help, and callers who can
    degrade — the service scheduler falls back to serial in-process
    execution — should.  Subclasses :class:`RuntimeError` so existing
    ``except RuntimeError`` handlers keep working.
    """

#: Signature of a worker-event sink: ``sink(kind, fields)``.
EventSink = Callable[[str, Dict[str, Any]], None]


#: Largest pickled event a worker sends: ``send_bytes`` writes a 4-byte
#: length header and the payload in one ``write(2)``, and a pipe write
#: of at most ``PIPE_BUF`` bytes is atomic.
MAX_EVENT_BYTES = select.PIPE_BUF - 4


def _pipe_sink(writer: Connection) -> EventSink:
    """A worker sink that writes each (kind, fields) event as one frame."""

    def sink(kind: str, fields: Dict[str, Any]) -> None:
        frame = pickle.dumps((kind, fields), pickle.HIGHEST_PROTOCOL)
        if len(frame) > MAX_EVENT_BYTES:
            # Split frames could interleave with other workers' frames.
            raise ValueError(
                f"{kind} event is {len(frame)} bytes (limit {MAX_EVENT_BYTES})"
            )
        writer.send_bytes(frame)

    return sink


def _worker_init(writer: Connection) -> None:
    """Pool-worker initializer: route cell events into the parent's pipe."""
    sweepbus.attach_worker_sink(_pipe_sink(writer))
    sweepbus.emit_cell_event(
        sweepbus.WORKER_SPAWNED, pid=os.getpid(), epoch_s=host_epoch()
    )


class WorkerPool:
    """A reusable process pool with an optional worker-event plane.

    ``workers`` is the pool width.  With ``events=True`` the pool
    carries worker-side sweep events (``worker_spawned``,
    ``cell_started``, per-cell resources) to the attached ``sink``;
    with ``events=False`` workers run bare and no pipe or drain thread
    exists — the zero-overhead default for unobserved sweeps.

    Thread-safe for concurrent :meth:`submit` calls (the service's
    concurrent jobs share one pool); :meth:`respawn` and :meth:`close`
    serialize against submissions.
    """

    def __init__(self, workers: int, events: bool = False) -> None:
        if workers < 1:
            raise ValueError("workers must be >= 1")
        self.workers = workers
        self.events = events
        self._lock = threading.Lock()
        self._executor: Optional[ProcessPoolExecutor] = None
        self._closed = False
        #: Pools replaced by :meth:`respawn` over this pool's lifetime.
        self.respawns = 0
        self._sink: Optional[EventSink] = None
        self._reader: Optional[Connection] = None
        self._writer: Optional[Connection] = None
        self._drain: Optional[threading.Thread] = None

    # -- the event plane ---------------------------------------------------

    def attach_sink(self, sink: Optional[EventSink]) -> Optional[EventSink]:
        """Route drained worker events into ``sink``; returns the old sink.

        Attach/detach happens per run (or per service job router), so a
        warm pool serves sweeps with and without observation — workers
        always emit into the pipe; unrouted events are dropped here.
        """
        previous = self._sink
        self._sink = sink
        return previous

    def _pump(self) -> None:
        reader = self._reader
        assert reader is not None
        while True:
            try:
                frame = reader.recv_bytes()
            except (EOFError, OSError):
                return
            if not frame:  # close()'s stop frame
                return
            sink = self._sink
            if sink is None:
                continue
            try:
                sink(*pickle.loads(frame))
            except Exception:
                # Telemetry must never break execution: a failing sink
                # degrades to a gap in the event log, nothing more.
                continue

    def _ensure_plane(self) -> None:
        if not self.events or self._reader is not None:
            return
        self._reader, self._writer = multiprocessing.Pipe(duplex=False)
        self._drain = threading.Thread(
            target=self._pump, name="worker-pool-drain", daemon=True
        )
        self._drain.start()

    # -- the pool itself ---------------------------------------------------

    def _ensure_executor(self) -> ProcessPoolExecutor:
        if self._closed:
            raise PoolUnavailableError("worker pool is closed")
        if self._executor is None:
            try:
                self._ensure_plane()
                if self._writer is not None:
                    self._executor = ProcessPoolExecutor(
                        max_workers=self.workers,
                        initializer=_worker_init,
                        initargs=(self._writer,),
                    )
                else:
                    self._executor = ProcessPoolExecutor(max_workers=self.workers)
            except OSError as exc:
                # The host refused to give us workers (process or
                # fd limits): respawning cannot help.
                raise PoolUnavailableError(
                    f"cannot spawn worker processes: {exc}"
                ) from exc
        return self._executor

    def submit(self, fn: Callable[..., Any], /, *args: Any, **kwargs: Any) -> "Future[Any]":
        """Submit one task; workers (and the event plane) spawn lazily."""
        with self._lock:
            return self._ensure_executor().submit(fn, *args, **kwargs)

    def warm(self) -> None:
        """Force worker spawn now, so runs do not pay it.

        Submits one no-op per worker and waits for all of them — after
        this, every worker process exists and the first real submission
        is pure work.  The service calls this at server start.
        """
        futures = [self.submit(_noop) for _ in range(self.workers)]
        for future in futures:
            future.result()

    def respawn(self, wait: bool = False) -> None:
        """Replace the underlying executor with a fresh one.

        Called after ``BrokenExecutor`` (the old pool is dead) or after
        a cell timeout (a hung worker would poison its slot forever in
        a persistent pool).  ``wait=False`` abandons hung workers, the
        same policy the one-shot executor always had.  The event plane
        is preserved — freshly spawned workers write into the same
        pipe.
        """
        with self._lock:
            old, self._executor = self._executor, None
            if old is not None:
                self.respawns += 1
                old.shutdown(wait=wait, cancel_futures=True)

    def close(self) -> None:
        """Shut everything down: executor, drain thread, pipe."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            executor, self._executor = self._executor, None
        if executor is not None:
            executor.shutdown(wait=True, cancel_futures=True)
        if self._drain is not None:
            if self._drain.is_alive():
                assert self._writer is not None
                self._writer.send_bytes(b"")
            self._drain.join(timeout=10.0)
            self._drain = None
        for end in (self._reader, self._writer):
            if end is not None:
                end.close()
        self._reader = self._writer = None

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()


def _noop() -> None:
    """The warm-up task: exists only to force worker spawn."""
    return None
