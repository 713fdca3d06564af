"""Sweep-level telemetry: the executor event bus and per-cell resources.

The per-run observability stack (spans, ledger, sentinel, profiler)
sees *inside one simulation*; this module watches the layer above — the
plan/execute/store sweep machinery — where parallel speedups, cache
hits, retries, and worker crashes live.  A
:class:`SweepEventBus` is a typed, append-only log of **execution
events** the executors (:mod:`repro.experiments.executor`) emit into:

* cell lifecycle — ``cell_scheduled`` / ``cell_started`` /
  ``cell_cached`` / ``cell_finished`` / ``cell_failed`` /
  ``cell_retried`` / ``cell_timed_out`` / ``cell_quarantined``;
* pool lifecycle — ``pool_opened`` / ``pool_broken`` /
  ``worker_spawned``;
* sweep boundaries — ``sweep_begin`` / ``sweep_end``;
* service plane (:mod:`repro.service`) — ``job_recovered`` (a journaled
  job resumed after a gateway crash), ``client_retry`` (an idempotent
  resubmit or a ``watch`` stream resumption arrived), ``load_shed``
  (admission control rejected a submit), ``degraded_serial`` (the
  worker pool died and the job fell back to in-process execution).

Worker processes attach per-cell **resource telemetry**
(:class:`CellResources`: wall time, CPU user/sys via
``resource.getrusage``, peak RSS, engine events/sec) and ship their
live events back over the pool's event pipe, one atomic write per event
(:func:`attach_worker_sink` / :func:`emit_cell_event`); the parent
drains the pipe into the bus.  With a ``path`` the bus appends each
event to ``<ledger>/events.jsonl`` as one row of a
:mod:`repro.obs.jsonl` log, keyed by ``run_id`` and grouped by
``sweep_id`` — the artifact
``odr-sim watch``, ``odr-sim sweep-trace``, and ``odr-sim cost`` read.

The plane is **strictly out-of-band**: executors consult it only
behind ``if bus is not None`` branches, events never feed back into
scheduling, and nothing here touches the simulation.  Schedule hashes
are bit-identical with the bus on and off, and the disabled path is
budgeted at <2% of a cell's wall clock (both in
``tests/test_obs_sweep.py``).
"""

from __future__ import annotations

import os
import sys
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import (
    Any,
    BinaryIO,
    Callable,
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Tuple,
    Union,
)

from repro.obs.jsonl import decode_row, dump_row, open_append, read_rows
from repro.obs.probes import host_epoch, host_wallclock
from repro.obs.runmeta import config_fingerprint

__all__ = [
    "EVENT_KINDS",
    "EVENT_SCHEMA",
    "EVENTS_FILENAME",
    "CellResources",
    "ResourceMeter",
    "SweepEvent",
    "SweepEventBus",
    "attach_worker_sink",
    "emit_cell_event",
    "events_path_for",
    "read_events",
    "validate_events",
    "validate_events_file",
]

#: Bumped whenever the persisted event layout changes incompatibly.
EVENT_SCHEMA = 1

#: Conventional event-log location inside a ledger directory.
EVENTS_FILENAME = "events.jsonl"


def events_path_for(ledger_dir: Union[str, Path]) -> str:
    """Where a ledger directory's sweep event log lives."""
    return os.path.join(str(ledger_dir), EVENTS_FILENAME)


# -- event vocabulary ------------------------------------------------------

SWEEP_BEGIN = "sweep_begin"
SWEEP_END = "sweep_end"
CELL_SCHEDULED = "cell_scheduled"
CELL_CACHED = "cell_cached"
CELL_DEDUPED = "cell_deduped"
CELL_STARTED = "cell_started"
CELL_FINISHED = "cell_finished"
CELL_FAILED = "cell_failed"
CELL_RETRIED = "cell_retried"
CELL_TIMED_OUT = "cell_timed_out"
CELL_QUARANTINED = "cell_quarantined"
WORKER_SPAWNED = "worker_spawned"
POOL_OPENED = "pool_opened"
POOL_BROKEN = "pool_broken"
JOB_RECOVERED = "job_recovered"
CLIENT_RETRY = "client_retry"
LOAD_SHED = "load_shed"
DEGRADED_SERIAL = "degraded_serial"

#: Fields an event of each kind must carry (beyond the envelope).
_REQUIRED_BY_KIND: Dict[str, frozenset] = {
    SWEEP_BEGIN: frozenset({"cells", "executor", "workers"}),
    SWEEP_END: frozenset({"executed", "cached", "failed", "wall_s"}),
    CELL_SCHEDULED: frozenset({"run_id", "label"}),
    CELL_CACHED: frozenset({"run_id", "label"}),
    CELL_DEDUPED: frozenset({"run_id", "label"}),
    CELL_STARTED: frozenset({"run_id", "label", "pid"}),
    CELL_FINISHED: frozenset({"run_id", "label", "wall_s"}),
    CELL_FAILED: frozenset({"run_id", "label", "error", "attempts"}),
    CELL_RETRIED: frozenset({"run_id", "label", "attempt"}),
    CELL_TIMED_OUT: frozenset({"run_id", "label", "timeout_s"}),
    CELL_QUARANTINED: frozenset({"run_id", "path"}),
    WORKER_SPAWNED: frozenset({"pid"}),
    POOL_OPENED: frozenset({"workers", "batch"}),
    POOL_BROKEN: frozenset(),
    JOB_RECOVERED: frozenset({"job_id", "cells"}),
    CLIENT_RETRY: frozenset({"op"}),
    LOAD_SHED: frozenset({"reason"}),
    DEGRADED_SERIAL: frozenset({"reason"}),
}

#: Every event kind the schema knows.
EVENT_KINDS = frozenset(_REQUIRED_BY_KIND)

#: Envelope keys every persisted event carries.
_ENVELOPE_KEYS = frozenset({"schema", "sweep_id", "seq", "kind", "t_s", "epoch_s"})


@dataclass(frozen=True)
class SweepEvent:
    """One typed, append-only execution event.

    ``t_s`` is seconds since the bus (sweep) started, on the emitting
    parent's clock; ``epoch_s`` is host epoch seconds, comparable
    across processes (worker-side timestamps inside ``fields`` use the
    same epoch clock).  Everything kind-specific lives in ``fields``.
    """

    sweep_id: str
    seq: int
    kind: str
    t_s: float
    epoch_s: float
    fields: Mapping[str, Any]

    def to_dict(self) -> Dict[str, Any]:
        """Flatten to the persisted JSONL form (envelope + fields)."""
        record: Dict[str, Any] = {
            "schema": EVENT_SCHEMA,
            "sweep_id": self.sweep_id,
            "seq": self.seq,
            "kind": self.kind,
            "t_s": self.t_s,
            "epoch_s": self.epoch_s,
        }
        for key, value in self.fields.items():
            if key not in record:
                record[key] = value
        return record

    @classmethod
    def from_dict(cls, record: Mapping[str, Any]) -> "SweepEvent":
        """Rebuild an event from its persisted JSONL form."""
        fields = {
            key: value for key, value in record.items() if key not in _ENVELOPE_KEYS
        }
        return cls(
            sweep_id=str(record.get("sweep_id", "")),
            seq=int(record.get("seq", 0)),
            kind=str(record.get("kind", "")),
            t_s=float(record.get("t_s", 0.0)),
            epoch_s=float(record.get("epoch_s", 0.0)),
            fields=fields,
        )

    def get(self, key: str, default: Any = None) -> Any:
        return self.fields.get(key, default)

    @property
    def run_id(self) -> str:
        """The cell this event concerns ('' for sweep/pool events)."""
        return str(self.fields.get("run_id", ""))


# -- per-cell resource telemetry -------------------------------------------


def _rusage_self() -> Tuple[float, float, int]:
    """(user s, sys s, peak RSS KiB) of this process, or zeros off-POSIX."""
    try:
        import resource
    except ImportError:  # pragma: no cover - non-POSIX hosts
        return (0.0, 0.0, 0)
    usage = resource.getrusage(resource.RUSAGE_SELF)
    rss = int(usage.ru_maxrss)
    if sys.platform == "darwin":  # pragma: no cover - ru_maxrss is bytes there
        rss //= 1024
    return (float(usage.ru_utime), float(usage.ru_stime), rss)


@dataclass(frozen=True)
class CellResources:
    """Host resources one executed cell consumed, measured in its worker.

    ``max_rss_kb`` is the worker process's lifetime peak (the kernel
    reports no per-interval peak), so in a reused pool worker it is an
    upper bound for any single cell.  CPU seconds are deltas around the
    cell body and attribute precisely.
    """

    pid: int
    started_epoch_s: float
    wall_s: float
    cpu_user_s: float
    cpu_sys_s: float
    max_rss_kb: int
    #: Engine events the cell fired (``Environment.stats()``).
    events_fired: Optional[int] = None
    events_per_sec: Optional[float] = None

    def to_dict(self) -> Dict[str, Any]:
        return {
            "pid": self.pid,
            "started_epoch_s": self.started_epoch_s,
            "wall_s": self.wall_s,
            "cpu_user_s": self.cpu_user_s,
            "cpu_sys_s": self.cpu_sys_s,
            "max_rss_kb": self.max_rss_kb,
            "events_fired": self.events_fired,
            "events_per_sec": self.events_per_sec,
        }


class ResourceMeter:
    """Measures one cell body: wall clock, CPU deltas, peak RSS.

    Construct at cell start, call :meth:`finish` at cell end.  All
    reads go through :mod:`repro.obs.probes` (the sanctioned clock
    site) and ``getrusage``; nothing here is visible to the simulation.
    """

    def __init__(self) -> None:
        self.started_epoch_s = host_epoch()
        self._wall_start = host_wallclock()
        self._user0, self._sys0, _ = _rusage_self()

    def finish(self, events_fired: Optional[int] = None) -> CellResources:
        wall_s = host_wallclock() - self._wall_start
        user1, sys1, rss = _rusage_self()
        events_per_sec: Optional[float] = None
        if events_fired is not None and wall_s > 0.0:
            events_per_sec = events_fired / wall_s
        return CellResources(
            pid=os.getpid(),
            started_epoch_s=self.started_epoch_s,
            wall_s=wall_s,
            cpu_user_s=max(0.0, user1 - self._user0),
            cpu_sys_s=max(0.0, sys1 - self._sys0),
            max_rss_kb=rss,
            events_fired=events_fired,
            events_per_sec=events_per_sec,
        )


# -- the bus ---------------------------------------------------------------

_SWEEP_COUNTER = 0
_SWEEP_COUNTER_LOCK = threading.Lock()


def _new_sweep_id() -> str:
    """A short id unique enough to group one sweep's events."""
    global _SWEEP_COUNTER
    with _SWEEP_COUNTER_LOCK:
        _SWEEP_COUNTER += 1
        nonce = _SWEEP_COUNTER
    return config_fingerprint(
        {"epoch": host_epoch(), "pid": os.getpid(), "nonce": nonce}
    )[:12]


class SweepEventBus:
    """Typed, append-only execution event log for one sweep.

    Events are held in memory (:attr:`events`) and — with a ``path`` —
    appended line-by-line to an ``events.jsonl`` file as they are
    emitted, flushed per event so a concurrent ``odr-sim watch
    --follow`` sees them live.  Subscribers (the live dashboard) are
    invoked synchronously after each append.

    The bus is written to by one parent process; worker-side events
    arrive through the executor's queue drain, not directly.
    """

    def __init__(
        self,
        path: Optional[Union[str, Path]] = None,
        sweep_id: Optional[str] = None,
    ) -> None:
        self.sweep_id = sweep_id if sweep_id is not None else _new_sweep_id()
        self.path: Optional[Path] = Path(path) if path is not None else None
        self._events: List[SweepEvent] = []
        self._subscribers: List[Callable[[SweepEvent], None]] = []
        self._lock = threading.Lock()
        self._t0 = host_wallclock()
        self._handle: Optional[BinaryIO] = None

    @property
    def events(self) -> Tuple[SweepEvent, ...]:
        with self._lock:
            return tuple(self._events)

    def subscribe(self, callback: Callable[[SweepEvent], None]) -> None:
        """Invoke ``callback(event)`` after every emitted event."""
        self._subscribers.append(callback)

    def unsubscribe(self, callback: Callable[[SweepEvent], None]) -> None:
        """Stop invoking ``callback`` (no-op if it is not subscribed).

        An emit already under way may still call it once.
        """
        with self._lock:
            if callback in self._subscribers:
                self._subscribers.remove(callback)

    def emit(self, kind: str, **fields: Any) -> SweepEvent:
        """Append one event (and persist/notify); returns it."""
        with self._lock:
            event = SweepEvent(
                sweep_id=self.sweep_id,
                seq=len(self._events),
                kind=kind,
                t_s=host_wallclock() - self._t0,
                epoch_s=host_epoch(),
                fields=dict(fields),
            )
            self._events.append(event)
            if self.path is not None:
                if self._handle is None:
                    self._handle = open_append(self.path)
                self._handle.write(dump_row(event.to_dict()).encode("utf-8"))
                self._handle.flush()
        for callback in list(self._subscribers):
            callback(event)
        return event

    def close(self) -> None:
        """Close the persistence handle (events stay readable in memory)."""
        with self._lock:
            if self._handle is not None:
                self._handle.close()
                self._handle = None

    def __enter__(self) -> "SweepEventBus":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    def __len__(self) -> int:
        with self._lock:
            return len(self._events)


# -- the worker-side sink --------------------------------------------------
#
# ``execute_cell`` runs in whatever process the sweep loop chose.  A
# pool worker emits through a process-global sink that writes each
# event to a pipe the parent drains into the bus
# (:mod:`repro.experiments.pool`); in-process execution passes a
# ``sink`` per call, so concurrent in-process sweeps never share one.
# With no sink, emitting is one ``is None`` branch.  A sink refuses an
# event it cannot deliver whole by raising; the event is then dropped.

_WORKER_SINK: Optional[Callable[[str, Dict[str, Any]], None]] = None


def attach_worker_sink(sink: Callable[[str, Dict[str, Any]], None]) -> None:
    """Route this process's cell events into ``sink(kind, fields)``."""
    global _WORKER_SINK
    _WORKER_SINK = sink


def emit_cell_event(
    kind: str,
    sink: Optional[Callable[[str, Dict[str, Any]], None]] = None,
    **fields: Any,
) -> None:
    """Emit one event from cell-execution context (no-op when detached);
    ``sink`` overrides the process-global worker sink for this call."""
    if sink is None:
        sink = _WORKER_SINK
    if sink is None:
        return
    try:
        sink(kind, fields)
    except Exception:
        # Telemetry must never fail the cell it observes: a broken
        # pipe or an oversized event degrades to a gap in the event
        # log, nothing more.
        pass


# -- reading and validating ------------------------------------------------


def read_events(
    path: Union[str, Path], sweep_id: Optional[str] = None
) -> List[SweepEvent]:
    """Load one sweep's events from an ``events.jsonl`` file.

    The log is append-only across sweeps; by default the **latest**
    sweep (the one the final row belongs to) is returned.  Pass a
    ``sweep_id`` (or a unique prefix) to select an earlier sweep.  A
    missing file holds no events.
    """
    by_sweep: Dict[str, List[SweepEvent]] = {}
    order: List[str] = []
    for record in read_rows(path):
        event = SweepEvent.from_dict(record)
        if event.sweep_id not in by_sweep:
            by_sweep[event.sweep_id] = []
            order.append(event.sweep_id)
        by_sweep[event.sweep_id].append(event)
    if not order:
        return []
    if sweep_id is None:
        return by_sweep[order[-1]]
    matches = [s for s in order if s.startswith(sweep_id)]
    if not matches:
        raise ValueError(f"{path}: no sweep matching {sweep_id!r}")
    if len(matches) > 1:
        raise ValueError(
            f"{path}: sweep id {sweep_id!r} is ambiguous ({', '.join(matches)})"
        )
    return by_sweep[matches[0]]


def validate_events(records: Iterable[Mapping[str, Any]]) -> List[str]:
    """Schema-check persisted event dicts; returns human-readable errors.

    Checks the envelope (schema version, monotonic per-sweep ``seq``,
    numeric timestamps), the kind vocabulary, each kind's required
    fields, and sweep framing (``sweep_begin`` first, nothing after
    ``sweep_end``).  An empty list means the log is valid.
    """
    errors: List[str] = []
    last_seq: Dict[str, int] = {}
    begun: Dict[str, bool] = {}
    ended: Dict[str, bool] = {}
    for index, record in enumerate(records):
        where = f"event {index}"
        schema = record.get("schema")
        if schema != EVENT_SCHEMA:
            errors.append(f"{where}: schema {schema!r} != {EVENT_SCHEMA}")
            continue
        sweep = str(record.get("sweep_id", ""))
        if not sweep:
            errors.append(f"{where}: missing sweep_id")
            continue
        kind = record.get("kind")
        if kind not in EVENT_KINDS:
            errors.append(f"{where}: unknown kind {kind!r}")
            continue
        for key in ("t_s", "epoch_s"):
            if not isinstance(record.get(key), (int, float)):
                errors.append(f"{where}: {key} is not numeric")
        seq = record.get("seq")
        if not isinstance(seq, int):
            errors.append(f"{where}: seq is not an integer")
        else:
            previous = last_seq.get(sweep)
            if previous is not None and seq <= previous:
                errors.append(
                    f"{where}: seq {seq} not increasing within sweep {sweep}"
                )
            last_seq[sweep] = seq
        missing = _REQUIRED_BY_KIND[kind] - set(record)
        if missing:
            errors.append(
                f"{where}: {kind} missing field(s) {', '.join(sorted(missing))}"
            )
        if kind == SWEEP_BEGIN:
            begun[sweep] = True
        elif not begun.get(sweep):
            errors.append(f"{where}: {kind} before sweep_begin in sweep {sweep}")
            begun[sweep] = True  # report once per sweep
        if ended.get(sweep):
            errors.append(f"{where}: {kind} after sweep_end in sweep {sweep}")
        if kind == SWEEP_END:
            ended[sweep] = True
    return errors


def validate_events_file(path: Union[str, Path]) -> List[str]:
    """Schema-check an ``events.jsonl`` file (see :func:`validate_events`);
    unlike the readers, it reports each line that is not a JSON object."""
    errors: List[str] = []
    records: List[Dict[str, Any]] = []
    try:
        with open(path, "rb") as handle:
            for number, line in enumerate(handle, start=1):
                record = decode_row(line)
                if record is not None:
                    records.append(record)
                elif line.strip():
                    errors.append(f"{path}:{number}: not JSONL ({line[:40]!r})")
    except OSError as exc:
        return [f"{path}: unreadable ({exc})"]
    return errors + validate_events(records)
