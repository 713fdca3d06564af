"""Per-file-hash fact cache: warm runs skip the parse, never the passes.

Extraction (:func:`~repro.devtools.analyzer.facts.extract_module`) is
the analyzer's expensive phase — one full AST walk per file.  The cache
stores each file's serialized :class:`ModuleFacts` keyed by the SHA-256
of its *content*, so a warm run re-parses only files whose bytes
changed; renames hit too, because the key is the content hash, not the
path.  The whole-program passes always run fresh — they are cheap and
depend on the cross-product of files, which no per-file key captures.

The cache file is a plain JSON object stamped with the SHA-256 of the
extractor's own source (:mod:`.facts`), so any change to what
extraction records — a new taint kind, a fixed visitor — invalidates
everything at once without anyone remembering to bump a version.  It
is advisory: a missing, corrupt, or stale-extractor cache means a cold
run, never an error.
"""

from __future__ import annotations

import hashlib
import json
import os
from typing import Any, Dict, Mapping, Optional

from repro.devtools.analyzer import facts as _facts
from repro.devtools.analyzer.facts import ModuleFacts, facts_from_payload
from repro.obs.jsonl import write_atomic

__all__ = ["EXTRACTOR_DIGEST", "FactsCache"]


def _source_digest(path: str) -> str:
    with open(path, "rb") as handle:
        return hashlib.sha256(handle.read()).hexdigest()


#: SHA-256 of the extractor source; cached facts are valid only under it.
EXTRACTOR_DIGEST = _source_digest(_facts.__file__)


class FactsCache:
    """Content-addressed facts store backed by one JSON file."""

    def __init__(self, path: Optional[str]):
        self.path = path
        self.hits = 0
        self.misses = 0
        self._entries: Dict[str, Any] = {}
        self._dirty = False
        if path is not None and os.path.exists(path):
            try:
                with open(path, "r", encoding="utf-8") as handle:
                    payload = json.load(handle)
                if (
                    isinstance(payload, dict)
                    and payload.get("extractor") == EXTRACTOR_DIGEST
                    and isinstance(payload.get("entries"), dict)
                ):
                    self._entries = payload["entries"]
            except (OSError, ValueError):
                self._entries = {}

    def get(self, sha: str) -> Optional[ModuleFacts]:
        payload = self._entries.get(sha)
        if payload is None:
            self.misses += 1
            return None
        try:
            facts = facts_from_payload(payload)
        except (KeyError, TypeError, ValueError):
            self.misses += 1
            return None
        self.hits += 1
        return facts

    def put(self, facts: ModuleFacts) -> None:
        self._entries[facts.sha] = facts.to_payload()
        self._dirty = True

    def prune(self, live_shas: Mapping[str, str]) -> None:
        """Drop entries for content no longer present in the tree."""
        live = set(live_shas.values())
        dead = [sha for sha in self._entries if sha not in live]
        for sha in dead:
            del self._entries[sha]
            self._dirty = True

    def save(self) -> None:
        if self.path is None or not self._dirty:
            return
        payload = {"extractor": EXTRACTOR_DIGEST, "entries": self._entries}
        try:
            write_atomic(self.path, json.dumps(payload))
        except OSError:
            pass  # advisory: a read-only checkout just runs cold
