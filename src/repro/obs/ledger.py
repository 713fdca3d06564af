"""The run ledger: an append-only, content-addressed store of run records.

Every instrumented :class:`~repro.experiments.runner.Runner` invocation
(and every ``odr-sim bench`` cell) persists its run record — built by
:func:`repro.obs.runmeta.build_record` — into ``.odr-runs/ledger.jsonl``
as one :mod:`repro.obs.jsonl` row.  The store is

* **append-only** — records are never rewritten; history is the point;
* **content-addressed** — a record's ``run_id`` hashes its
  ``(config, seed)`` identity, so re-running the same cell maps to the
  same id, and a re-run whose measured content is byte-identical
  (same :func:`~repro.obs.runmeta.metrics_digest`) is deduped rather
  than appended again;
* **versioned by position** — when code changes alter a cell's results,
  the new record appends under the same ``run_id`` and lookups return
  the *latest* record for an id, with the full history still on disk.

A *baseline* is one pinned record (``.odr-runs/baseline.json``) the
regression sentinel (:mod:`repro.obs.sentinel`) can diff any later run
against; CI keeps its own checked-in baselines under
``benchmarks/baselines/``.
"""

from __future__ import annotations

import json
import os
import threading
from contextlib import contextmanager
from pathlib import Path
from typing import Any, BinaryIO, Dict, Iterator, List, Optional, Tuple, Union

from repro.obs.jsonl import append_row, decode_row, read_rows, write_atomic
from repro.obs.runmeta import metrics_digest

__all__ = ["DEFAULT_LEDGER_DIR", "RunLedger", "load_record", "resolve_record"]

#: Conventional ledger location at a repository / experiment root.
DEFAULT_LEDGER_DIR = ".odr-runs"


def load_record(path: Union[str, Path]) -> Dict[str, Any]:
    """Read one run record from a standalone JSON file."""
    with open(path, "r", encoding="utf-8") as handle:
        record = json.load(handle)
    if not isinstance(record, dict):
        raise ValueError(f"{path}: run record must be a JSON object")
    return record


class RunLedger:
    """Append-only JSONL store of run records under one directory.

    Lookups by ``run_id`` (:meth:`append`'s dedupe check, :meth:`get`,
    ``run_id in ledger`` and :meth:`digest`) go through an in-memory
    index: ``run_id`` → (row position, byte offset) of the id's latest
    row.  The file stays the only record of truth.  Every lookup first
    indexes the complete (``\n``-terminated) lines appended since the
    last one, so rows another instance or process wrote show up, and a
    half-written row is never read.  The index starts over when the
    file is missing, is another file (new ``(st_dev, st_ino)``), or no
    longer holds the last indexed line just before the indexed offset
    (it was rewritten in place).  It is built on first use, which
    parses the file once; after that a lookup parses only the new rows,
    plus the one row it returns or compares.  :meth:`records`,
    :meth:`latest` and ``len()`` are full scans.
    """

    def __init__(self, root: Union[str, Path] = DEFAULT_LEDGER_DIR) -> None:
        self.root = Path(root)
        #: The JSONL store itself.
        self.path = self.root / "ledger.jsonl"
        #: Location of the pinned baseline record.
        self.baseline_path = self.root / "baseline.json"
        # Guards the index, and makes append() read-check-append one
        # step: concurrent service jobs that finish cells simultaneously
        # must not interleave those, or the same record lands twice.
        self._lock = threading.Lock()
        self._reset_index()

    def _reset_index(self) -> None:
        #: run_id -> (row position, byte offset) of the id's latest row.
        self._rows: Dict[str, Tuple[int, int]] = {}
        #: metrics_digest of the row ``_rows`` points at, once computed.
        self._digests: Dict[str, str] = {}
        #: (st_dev, st_ino) of the indexed file.
        self._file_id: Optional[Tuple[int, int]] = None
        #: Bytes indexed so far; always the end of a line.
        self._offset = 0
        #: The last indexed line, newline included; it ends at ``_offset``.
        self._tail = b""
        #: Rows indexed so far, i.e. the next row's position.
        self._count = 0

    # -- the index -------------------------------------------------------

    @contextmanager
    def _indexed(self) -> Iterator[Optional[BinaryIO]]:
        """Hold the lock with the index current; yields the open file
        (None when there is none) so a row is read from the same file."""
        with self._lock:
            try:
                handle = open(self.path, "rb")
            except FileNotFoundError:
                self._reset_index()
                yield None
                return
            with handle:
                self._index_new_lines(handle)
                yield handle

    def _index_new_lines(self, handle: BinaryIO) -> None:
        stat = os.fstat(handle.fileno())
        file_id = (stat.st_dev, stat.st_ino)
        handle.seek(self._offset - len(self._tail))
        data = handle.read()
        # Another file, or this one rewritten in place (a file shorter
        # than the indexed offset cannot hold the last indexed line).
        if file_id != self._file_id or not data.startswith(self._tail):
            self._reset_index()
            self._file_id = file_id
            handle.seek(0)
            data = handle.read()
        data = data[len(self._tail) :]
        # Only complete lines: a row still being written (or a crashed
        # writer's fragment) waits until a newline ends it.
        end = data.rfind(b"\n") + 1
        if not end:
            return
        lines = data[:end].split(b"\n")[:-1]
        offset = self._offset
        for line in lines:
            row_offset = offset
            offset += len(line) + 1
            record = decode_row(line)
            if record is not None:
                run_id = str(record.get("run_id", ""))
                self._rows[run_id] = (self._count, row_offset)
                self._digests.pop(run_id, None)
                self._count += 1
        self._offset = offset
        self._tail = lines[-1] + b"\n"

    def _digest(self, handle: Optional[BinaryIO], run_id: str) -> Optional[str]:
        """Memoized ``metrics_digest`` of ``run_id``'s latest row."""
        digest = self._digests.get(run_id)
        if digest is None and handle is not None and run_id in self._rows:
            row = _read_row(handle, self._rows[run_id][1])
            digest = self._digests[run_id] = metrics_digest(row)
        return digest

    # -- writing ---------------------------------------------------------

    def append(self, record: Dict[str, Any]) -> str:
        """Persist ``record``; returns its ``run_id``.

        Identical re-runs — same ``run_id`` *and* same measured content
        — are deduped: the ledger is left untouched.  A record with the
        same id but different content (the code changed) appends a new
        version.  Thread-safe: the dedupe check and the append are one
        atomic step, so concurrent jobs sharing a ledger write one row
        per unique record, not one per requesting job.
        """
        run_id = str(record.get("run_id", ""))
        if not run_id:
            raise ValueError("run record has no run_id")
        digest = metrics_digest(record)
        with self._indexed() as indexed:
            if self._digest(indexed, run_id) != digest:
                append_row(self.path, record)
        return run_id

    def set_baseline(self, record: Dict[str, Any]) -> Path:
        """Pin ``record`` as the ledger's baseline."""
        text = json.dumps(record, sort_keys=True, indent=2) + "\n"
        os.makedirs(self.root, exist_ok=True)
        write_atomic(self.baseline_path, text)
        return self.baseline_path

    # -- reading ---------------------------------------------------------

    def records(self) -> List[Dict[str, Any]]:
        """Every record in append order (oldest first); takes no lock."""
        return read_rows(self.path)

    def get(self, run_id: str) -> Optional[Dict[str, Any]]:
        """Latest record whose ``run_id`` starts with ``run_id``."""
        with self._indexed() as handle:
            matches = [row for key, row in self._rows.items() if key.startswith(run_id)]
            if handle is None or not matches:
                return None
            return _read_row(handle, max(matches)[1])

    def __contains__(self, run_id: object) -> bool:
        """Whether some row has exactly this ``run_id``."""
        with self._indexed():
            return run_id in self._rows

    def digest(self, run_id: str) -> Optional[str]:
        """``metrics_digest`` of the latest row with exactly this ``run_id``."""
        with self._indexed() as handle:
            return self._digest(handle, run_id)

    def latest(self, offset: int = 0) -> Optional[Dict[str, Any]]:
        """The most recently appended record (``offset`` steps back)."""
        records = self.records()
        if offset < 0 or offset >= len(records):
            return None
        return records[-1 - offset]

    def baseline(self) -> Optional[Dict[str, Any]]:
        """The pinned baseline record, if one was set."""
        if not self.baseline_path.exists():
            return None
        return load_record(self.baseline_path)

    def __len__(self) -> int:
        return len(self.records())


def _read_row(handle: BinaryIO, offset: int) -> Dict[str, Any]:
    """The indexed row starting at byte ``offset`` of ``handle``."""
    handle.seek(offset)
    row = decode_row(handle.readline())
    if row is None:
        raise ValueError(f"ledger row at byte {offset} no longer decodes")
    return row


def resolve_record(ref: str, ledger: RunLedger) -> Dict[str, Any]:
    """Resolve a CLI run reference to a record.

    Accepted forms, tried in order:

    * ``latest`` / ``latest~N`` — ledger position from the end;
    * ``baseline`` — the ledger's pinned baseline;
    * a path to a standalone record JSON file (e.g. a checked-in CI
      baseline);
    * a ``run_id`` prefix looked up in the ledger.
    """
    if ref == "latest":
        record = ledger.latest()
        if record is None:
            raise ValueError(f"ledger {ledger.path} is empty")
        return record
    if ref.startswith("latest~"):
        try:
            offset = int(ref.split("~", 1)[1])
        except ValueError:
            raise ValueError(f"bad run reference {ref!r}")
        record = ledger.latest(offset)
        if record is None:
            raise ValueError(f"ledger {ledger.path} has no entry {ref}")
        return record
    if ref == "baseline":
        record = ledger.baseline()
        if record is None:
            raise ValueError(f"no baseline pinned at {ledger.baseline_path}")
        return record
    if os.path.exists(ref):
        return load_record(ref)
    record = ledger.get(ref)
    if record is None:
        raise ValueError(
            f"run {ref!r} not found in {ledger.path} (and is not a file)"
        )
    return record
