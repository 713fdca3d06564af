"""Whole-program determinism analyzer for the ODR reproduction.

The repository's one static-analysis layer.  Per-module facts feed a
call graph; a purity pass flags raw clocks and entropy in every file
and environment reads and global writes reachable from the sim-pure
boundary; a simulation-correctness rule checks timestamp comparisons; contract passes cross-check structures that must
stay in sync (CellSpec fields vs the run-id hash, FaultSpec subclasses
vs their registry and catalog, sweep-event kinds vs the schema and
docs); and a fork-safety pass vets everything handed to worker pools.
``odr-sim analyze`` is the CLI.
"""

from repro.devtools.analyzer.driver import DEFAULT_DOCS, analyze, collect_sources
from repro.devtools.analyzer.findings import AnalyzerReport, Finding
from repro.devtools.analyzer.rules import (
    PURITY_ROOTS,
    RULES,
    explain,
    normalize_select,
)
from repro.devtools.analyzer.sarif import to_sarif

__all__ = [
    "AnalyzerReport",
    "DEFAULT_DOCS",
    "Finding",
    "PURITY_ROOTS",
    "RULES",
    "analyze",
    "collect_sources",
    "explain",
    "normalize_select",
    "to_sarif",
]
