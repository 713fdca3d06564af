"""The run ledger: an append-only, content-addressed store of run records.

Every instrumented :class:`~repro.experiments.runner.Runner` invocation
(and every ``odr-sim bench`` cell) persists its run record — built by
:func:`repro.obs.runmeta.build_record` — into ``.odr-runs/ledger.jsonl``,
one canonical-JSON object per line.  The store is

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
from pathlib import Path
from typing import Any, Dict, List, Optional, Union

from repro.obs.runmeta import metrics_digest

__all__ = ["DEFAULT_LEDGER_DIR", "RunLedger", "load_record", "resolve_record"]

#: Conventional ledger location at a repository / experiment root.
DEFAULT_LEDGER_DIR = ".odr-runs"


def _dump(record: Dict[str, Any]) -> str:
    return json.dumps(record, sort_keys=True, separators=(",", ":"))


def load_record(path: Union[str, Path]) -> Dict[str, Any]:
    """Read one run record from a standalone JSON file."""
    with open(path, "r", encoding="utf-8") as handle:
        record = json.load(handle)
    if not isinstance(record, dict):
        raise ValueError(f"{path}: run record must be a JSON object")
    return record


class RunLedger:
    """Append-only JSONL store of run records under one directory."""

    def __init__(self, root: Union[str, Path] = DEFAULT_LEDGER_DIR) -> None:
        self.root = Path(root)
        # append() is read-check-append; concurrent service jobs that
        # finish cells simultaneously must not interleave those steps,
        # or the same record lands twice before either read sees it.
        self._append_lock = threading.Lock()

    @property
    def path(self) -> Path:
        """The JSONL store itself."""
        return self.root / "ledger.jsonl"

    @property
    def baseline_path(self) -> Path:
        """Location of the pinned baseline record."""
        return self.root / "baseline.json"

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
        line = _dump(record) + "\n"
        with self._append_lock:
            existing = self.get(run_id)
            if existing is not None and metrics_digest(existing) == digest:
                return run_id
            os.makedirs(self.root, exist_ok=True)
            with open(self.path, "ab+") as handle:
                size = handle.seek(0, os.SEEK_END)
                if size:
                    handle.seek(size - 1)
                    if handle.read(1) != b"\n":
                        # A writer died mid-line: end its fragment so it
                        # cannot swallow this row.
                        line = "\n" + line
                handle.write(line.encode("utf-8"))
        return run_id

    def set_baseline(self, record: Dict[str, Any]) -> Path:
        """Pin ``record`` as the ledger's baseline."""
        os.makedirs(self.root, exist_ok=True)
        with open(self.baseline_path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps(record, sort_keys=True, indent=2) + "\n")
        return self.baseline_path

    # -- reading ---------------------------------------------------------

    def records(self) -> List[Dict[str, Any]]:
        """Every record in append order (oldest first).

        A line that does not decode to a JSON object is skipped: the
        fragment a crashed writer left, or the tail of a row another
        thread is appending right now (reads take no lock).
        """
        if not self.path.exists():
            return []
        out: List[Dict[str, Any]] = []
        with open(self.path, "r", encoding="utf-8") as handle:
            for line in handle:
                line = line.strip()
                if not line:
                    continue
                try:
                    record = json.loads(line)
                except ValueError:
                    continue
                if isinstance(record, dict):
                    out.append(record)
        return out

    def get(self, run_id: str) -> Optional[Dict[str, Any]]:
        """Latest record whose ``run_id`` starts with ``run_id``."""
        match: Optional[Dict[str, Any]] = None
        for record in self.records():
            if str(record.get("run_id", "")).startswith(run_id):
                match = record
        return match

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
