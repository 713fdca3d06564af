"""Discrete-event-simulation correctness: process bodies and timestamps.

Both rules read taint events the extractor already records:

``D1``
    ``env.process(f(...))`` registers ``f``'s return value as a process
    body, so ``f`` must be a generator.  The callee is resolved through
    the whole-program call graph (same-class methods, inherited methods,
    from-imports across modules); an unresolvable callee or a
    constructor call is not judged.
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
    """D1 everywhere, D2 in ``repro.*`` modules."""
    findings: List[Finding] = []
    for mod, fn in graph.functions.values():
        for taint in fn.taints:
            if taint.kind == "process":
                callee = graph.resolve_call(mod, fn, taint.detail)
                if callee is None or callee.endswith(".__init__"):
                    continue
                if graph.functions[callee][1].is_generator:
                    continue
                findings.append(
                    Finding(
                        rule="D1",
                        path=mod.path,
                        line=taint.line,
                        col=taint.col,
                        message=(
                            f"{taint.detail}() is registered as an engine process "
                            f"but {callee} contains no yield"
                        ),
                        detail=f"process:{callee}",
                    )
                )
            elif taint.kind == "timestamp_eq" and mod.module.startswith("repro."):
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
