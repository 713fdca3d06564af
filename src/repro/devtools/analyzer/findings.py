"""Finding and report types shared by every analyzer pass."""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Dict, List, Tuple

__all__ = ["AnalyzerReport", "Finding"]


@dataclass(frozen=True)
class Finding:
    """One rule violation at one source location.

    ``chain`` carries the purity passes' evidence: the call path from a
    sim-pure root to the tainted line, outermost first.  ``detail`` is
    a machine-readable discriminator (taint kind, drifted field name)
    that baselines fingerprint on, so findings survive line renumbering.
    """

    rule: str
    path: str
    line: int
    col: int
    message: str
    chain: Tuple[str, ...] = ()
    detail: str = ""

    def to_dict(self) -> Dict[str, Any]:
        payload: Dict[str, Any] = {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
        }
        if self.chain:
            payload["chain"] = list(self.chain)
        if self.detail:
            payload["detail"] = self.detail
        return payload

    def render(self) -> str:
        text = f"{self.path}:{self.line}:{self.col}: {self.rule} {self.message}"
        if self.chain:
            text += "\n    via " + " -> ".join(self.chain)
        return text

    def sort_key(self) -> Tuple[str, int, int, str]:
        return (self.path, self.line, self.col, self.rule)


@dataclass
class AnalyzerReport:
    """Aggregate result of one ``analyze`` invocation."""

    findings: Tuple[Finding, ...]
    files_scanned: int
    #: Findings silenced by a line-scoped waiver (count per rule).
    waived: Dict[str, int] = field(default_factory=dict)
    #: Findings silenced by the suppression baseline (count per rule).
    baselined: Dict[str, int] = field(default_factory=dict)
    #: Baseline entries that matched nothing (path kept for pruning);
    #: entries for deleted files land here rather than erroring.
    stale_baseline: List[Dict[str, Any]] = field(default_factory=list)
    #: Per-file-hash cache statistics for this run.
    cache_hits: int = 0
    cache_misses: int = 0
    #: Wall seconds the whole analysis took (parse + passes).
    elapsed_s: float = 0.0

    @property
    def ok(self) -> bool:
        return not self.findings

    def counts(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for finding in self.findings:
            counts[finding.rule] = counts.get(finding.rule, 0) + 1
        return counts

    def to_json(self) -> str:
        return json.dumps(
            {
                "files_scanned": self.files_scanned,
                "elapsed_s": round(self.elapsed_s, 3),
                "cache": {"hits": self.cache_hits, "misses": self.cache_misses},
                "counts": self.counts(),
                "waived": dict(sorted(self.waived.items())),
                "baselined": dict(sorted(self.baselined.items())),
                "stale_baseline": self.stale_baseline,
                "findings": [f.to_dict() for f in self.findings],
            },
            indent=2,
            sort_keys=True,
        )

    def summary_line(self) -> str:
        counts = ", ".join(f"{r}: {n}" for r, n in sorted(self.counts().items()))
        silenced = sum(self.waived.values()) + sum(self.baselined.values())
        text = (
            f"analyze: {len(self.findings)} finding(s) in "
            f"{self.files_scanned} file(s)"
        )
        if counts:
            text += f"  [{counts}]"
        if silenced:
            text += f"  ({silenced} suppressed)"
        if self.stale_baseline:
            text += f"  ({len(self.stale_baseline)} stale baseline entr(y/ies))"
        return text
