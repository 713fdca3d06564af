"""The wire protocol: newline-delimited JSON frames over a socket.

One request is one JSON object on one line; one response is one JSON
object on one line — except ``watch``, which answers with an ``ok``
frame followed by one ``{"event": ...}`` line per sweep event and a
final ``{"done": true}`` frame after the job's ``sweep_end``.  NDJSON
keeps the protocol greppable, stdlib-parseable from any language, and
stream-framed for free (the same reason ``events.jsonl`` is NDJSON).

Requests (``op`` selects):

=========  ==========================================================
``ping``      liveness + server identity
``submit``    ``plan`` (see :func:`build_plan`), optional ``label``
``status``    all jobs, or one with ``job_id`` (prefixes accepted)
``result``    a finished job's per-cell outcome table
``fetch``     one cell by ``run_id``, straight from the store/ledger
``watch``     stream one job's sweep events (history replays first)
``shutdown``  ask the server to stop accepting and exit
=========  ==========================================================

Every response carries ``ok``; failures carry ``error``.  The protocol
is versioned (:data:`PROTOCOL_VERSION`) and the version rides every
``ping``/``submit`` response, so a drifted client fails loud, not
weird.

Plans travel as ``{"kind": "cells", "cells": [...]}``: any
:class:`~repro.experiments.plan.Plan` serializes to its cell list via
:func:`plan_payload`.  Clients build the plan themselves — ``odr-sim
submit <verb>`` with the local verb's own code — so the gateway never
interprets sweep flags.  Version 1 also accepted server-side demand
builders by name; version 2 answers any kind but ``cells`` with a
``protocol`` error.
"""

from __future__ import annotations

import json
from typing import Any, Dict, Optional

from repro.experiments.plan import CellSpec, Plan

__all__ = [
    "PROTOCOL_VERSION",
    "build_plan",
    "decode_frame",
    "encode_frame",
    "error_frame",
    "plan_payload",
]

#: Bumped whenever the frame layout changes incompatibly.
PROTOCOL_VERSION = 2

#: Largest accepted request line (a 10k-cell ``cells`` plan fits).
MAX_FRAME_BYTES = 8 * 1024 * 1024


def encode_frame(payload: Dict[str, Any]) -> bytes:
    """One frame: canonical JSON, one line, UTF-8."""
    return (
        json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"
    ).encode("utf-8")


def decode_frame(line: bytes) -> Dict[str, Any]:
    """Parse one received line; raises ``ValueError`` on junk."""
    payload = json.loads(line.decode("utf-8"))
    if not isinstance(payload, dict):
        raise ValueError("frame must be a JSON object")
    return payload


def error_frame(
    message: str,
    code: Optional[str] = None,
    retry_after_s: Optional[float] = None,
) -> Dict[str, Any]:
    """One failure response.

    ``code`` is the :mod:`repro.service.errors` taxonomy discriminator
    (``transport`` / ``protocol`` / ``busy`` / ``job_lost``) the client
    maps back to a typed exception; ``retry_after_s`` rides along with
    ``busy`` as the server's backoff hint.  Both are optional so old
    clients (which only read ``error``) keep working.
    """
    frame: Dict[str, Any] = {"ok": False, "error": message}
    if code is not None:
        frame["code"] = code
    if retry_after_s is not None:
        frame["retry_after_s"] = retry_after_s
    return frame


def plan_payload(plan: Plan) -> Dict[str, Any]:
    """Serialize any plan to its ``cells`` wire form."""
    return {"kind": "cells", "cells": [spec.to_dict() for spec in plan]}


def build_plan(kind: str, params: Dict[str, Any]) -> Plan:
    """Materialize a submitted ``cells`` payload into a :class:`Plan`.

    The cell identity math (``run_id``) happens in :class:`CellSpec`
    itself, so a plan built here from a client's payload addresses the
    exact same cells as the same demand built offline — which is what
    makes serving from the shared store, and cross-job dedupe, sound.
    """
    if kind != "cells":
        raise ValueError(f"unknown plan kind {kind!r}")
    cells = params.get("cells")
    if not isinstance(cells, list) or not cells:
        raise ValueError("cells plan needs a non-empty 'cells' list")
    return Plan(CellSpec.from_dict(cell) for cell in cells)
