"""The result-store layer: completed cells, keyed by content address.

A :class:`ResultStore` maps a cell's ``run_id`` — the ledger's
content-addressed hash over the canonical ``(config, seed)`` payload
(:func:`repro.obs.runmeta.run_id_for`) — to its finished
:class:`~repro.experiments.record.ExperimentRecord`.  It is the cache
every executor checks before running a cell, in two tiers:

* **in-memory** — always on; figures that share cells (most of them)
  reuse the same record object within one process, exactly like the
  old ``Runner._cache`` but keyed correctly (the run_id covers
  duration/warmup, which the old ``(benchmark, label, seed)`` key
  silently dropped);
* **on-disk** (opt-in via ``persist_dir``) — each completed cell is
  written through to ``<persist_dir>/<run_id>.json`` as it finishes,
  so a *different* process (a pool worker's parent, a later
  invocation) warm-starts from it.  ``odr-sim matrix --resume`` points
  this at ``<ledger>/cells/``: re-running after an interrupted sweep
  executes only the missing cells.

Persisted results are only as fresh as the code that produced them —
the run_id hashes the configuration, not the simulator.  Resume is
therefore opt-in, and :meth:`ResultStore.invalidate` clears a stale
cell (the ledger's append-only history is the durable record; the
store is a cache).
"""

from __future__ import annotations

import json
import os
import warnings
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Union

from repro.experiments.record import (
    RECORD_DICT_SCHEMA,
    ExperimentRecord,
    record_as_dict,
    record_from_dict,
)
from repro.obs.jsonl import dump_row, write_atomic

__all__ = ["ResultStore"]


class ResultStore:
    """Two-tier (memory + optional JSON-file) cache of finished cells."""

    def __init__(self, persist_dir: Optional[Union[str, Path]] = None) -> None:
        self._memory: Dict[str, ExperimentRecord] = {}
        self.persist_dir: Optional[Path] = Path(persist_dir) if persist_dir else None
        #: Lookup accounting.
        self.hits = 0
        self.misses = 0
        #: Observability hook: called as ``on_quarantine(run_id, path)``
        #: whenever a corrupt cell file is moved aside (the sweep event
        #: bus subscribes while an executor runs).
        self.on_quarantine: Optional[Callable[[str, str], None]] = None

    def cell_path(self, run_id: str) -> Optional[Path]:
        """Where ``run_id`` persists, or ``None`` for a memory-only store."""
        if self.persist_dir is None:
            return None
        return self.persist_dir / f"{run_id}.json"

    def get(self, run_id: str) -> Optional[ExperimentRecord]:
        """The stored record for ``run_id``, or ``None`` (counted as a miss)."""
        record = self._memory.get(run_id)
        if record is None:
            record = self._load(run_id)
            if record is not None:
                self._memory[run_id] = record
        if record is None:
            self.misses += 1
        else:
            self.hits += 1
        return record

    def put(
        self,
        run_id: str,
        record: ExperimentRecord,
        exec_meta: Optional[Dict[str, Any]] = None,
    ) -> None:
        """Store a finished cell (written through to disk if persistent).

        ``exec_meta`` — execution-cost metadata (wall clock, CPU,
        RSS, ...) for a cell that actually simulated — rides along in
        the persisted JSON (its ``exec`` field) so what a cached cell
        cost when it ran stays on record.  It is *not* part of the
        record and never affects cache identity.
        """
        self._memory[run_id] = record
        path = self.cell_path(run_id)
        if path is None:
            return
        os.makedirs(path.parent, exist_ok=True)
        payload: Dict[str, Any] = {
            "schema": RECORD_DICT_SCHEMA,
            "run_id": run_id,
            "record": record_as_dict(record),
        }
        if exec_meta is not None:
            payload["exec"] = dict(exec_meta)
        write_atomic(path, dump_row(payload))

    def quarantined(self) -> List[str]:
        """run_ids of corrupt cells moved to ``<persist_dir>/corrupt/``.

        These are cells whose persisted JSON failed to decode (torn
        writes from killed workers, full disks); the executor treats
        them as misses and re-runs them, and the evidence stays here
        for inspection.  Memory-only stores have none.
        """
        if self.persist_dir is None:
            return []
        corrupt_dir = self.persist_dir / "corrupt"
        if not corrupt_dir.is_dir():
            return []
        return sorted(path.stem for path in corrupt_dir.glob("*.json"))

    def __contains__(self, run_id: object) -> bool:
        if not isinstance(run_id, str):
            return False
        if run_id in self._memory:
            return True
        path = self.cell_path(run_id)
        return path is not None and path.exists()

    def __len__(self) -> int:
        """Cells resident in memory (disk cells load lazily on ``get``)."""
        return len(self._memory)

    # -- internals ---------------------------------------------------------

    def _load(self, run_id: str) -> Optional[ExperimentRecord]:
        path = self.cell_path(run_id)
        if path is None or not path.exists():
            return None
        try:
            with open(path, "r", encoding="utf-8") as handle:
                payload = json.load(handle)
        except OSError:
            # Unreadable file (permissions, races): a plain cache miss.
            return None
        except ValueError:
            # A torn write (killed worker, full disk) left bytes that
            # are not JSON.  Treat as a miss — the executor re-runs the
            # cell — but move the evidence aside so the rewrite cannot
            # race it and the corruption stays inspectable.
            self._quarantine(path, run_id)
            return None
        try:
            if not isinstance(payload, dict):
                return None
            if payload.get("schema") != RECORD_DICT_SCHEMA:
                return None
            if payload.get("run_id") != run_id:
                return None
            return record_from_dict(payload["record"])
        except (ValueError, KeyError, TypeError):
            # Valid JSON, stale shape (old record layout): a cache
            # miss; the re-executed cell overwrites it in place.
            return None

    def _quarantine(self, path: Path, run_id: str) -> None:
        corrupt_dir = path.parent / "corrupt"
        try:
            os.makedirs(corrupt_dir, exist_ok=True)
            os.replace(path, corrupt_dir / path.name)
        except OSError:
            return
        if self.on_quarantine is not None:
            self.on_quarantine(run_id, str(corrupt_dir / path.name))
        warnings.warn(
            f"result store: cell {run_id} failed to decode; "
            f"moved to {corrupt_dir / path.name} and will be re-executed",
            RuntimeWarning,
            stacklevel=3,
        )
