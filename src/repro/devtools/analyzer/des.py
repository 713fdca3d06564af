"""Discrete-event-simulation correctness: simulation timestamps.

The rule reads taint events the extractor already records:

``D2``
    ``==`` / ``!=`` with an operand named like a float simulation
    timestamp, in ``repro.*`` modules.  Tests compare exact reproduced
    timestamps on purpose — that *is* the determinism property — so the
    rule does not apply to them.
"""

from __future__ import annotations

from typing import List

from repro.devtools.analyzer.findings import Finding
from repro.devtools.analyzer.graph import ProgramGraph

__all__ = ["des_findings"]


def des_findings(graph: ProgramGraph) -> List[Finding]:
    """D2 in ``repro.*`` modules."""
    findings: List[Finding] = []
    for mod, fn in graph.functions.values():
        for taint in fn.taints:
            if taint.kind == "timestamp_eq" and mod.module.startswith("repro."):
                findings.append(
                    Finding(
                        rule="D2",
                        path=mod.path,
                        line=taint.line,
                        col=taint.col,
                        message=(
                            f"==/!= on float sim timestamp {taint.detail}: use an "
                            f"ordering comparison, math.isclose or an epsilon"
                        ),
                        detail=f"{taint.kind}:{taint.detail}",
                    )
                )
    return findings
