"""The one writer and reader of the run directory's append-only logs.

The run ledger (``ledger.jsonl``), the job journal (``jobs.jsonl``) and
the sweep event log (``events.jsonl``) hold one canonical-JSON object
per line (:func:`dump_row`), appended by writers that may be killed
mid-row.  Such a writer leaves a fragment with no ``"\\n"``:
:func:`open_append` ends it before the next row, and :func:`decode_row`
skips it, as it skips blank lines and rows still being written.  So a
torn tail costs at most the row being written, never another one.
Whole-file writes go through :func:`write_atomic`: a failed one leaves
the previous file in place.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Any, BinaryIO, Dict, List, Mapping, Optional, Union

__all__ = ["append_row", "decode_row", "dump_row", "open_append", "read_rows", "write_atomic"]

PathLike = Union[str, Path]


def dump_row(record: Mapping[str, Any]) -> str:
    """``record`` as one canonical log line, newline included."""
    return json.dumps(record, sort_keys=True, separators=(",", ":")) + "\n"


def open_append(path: PathLike) -> BinaryIO:
    """Open ``path`` (and its directory) for appending rows, ending a
    torn last line first."""
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    handle: BinaryIO = open(path, "ab+")
    try:
        size = handle.seek(0, os.SEEK_END)
        if size:
            handle.seek(size - 1)
            if handle.read(1) != b"\n":
                handle.write(b"\n")
    except OSError:
        handle.close()
        raise
    return handle


def append_row(path: PathLike, record: Mapping[str, Any]) -> None:
    """Append ``record`` to the log at ``path``, flushed on close."""
    with open_append(path) as handle:
        handle.write(dump_row(record).encode("utf-8"))


def decode_row(line: Union[str, bytes]) -> Optional[Dict[str, Any]]:
    """The object a log line holds, or None for a line to skip."""
    if not line.strip():
        return None
    try:
        record = json.loads(line)
    except ValueError:
        return None
    return record if isinstance(record, dict) else None


def read_rows(path: PathLike) -> List[Dict[str, Any]]:
    """Every row of the log at ``path`` in append order ([] if missing)."""
    try:
        handle = open(path, "rb")
    except FileNotFoundError:
        return []
    with handle:
        return [row for row in map(decode_row, handle) if row is not None]


def write_atomic(path: PathLike, text: str) -> None:
    """Replace ``path`` with ``text`` via ``<path>.tmp`` and ``os.replace``."""
    tmp = f"{path}.tmp"
    with open(tmp, "w", encoding="utf-8") as handle:
        handle.write(text)
    os.replace(tmp, path)
