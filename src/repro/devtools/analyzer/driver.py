"""The analyze driver: walk, extract (cached), link, run every pass.

The pipeline is strictly phased:

1. **Walk** the requested paths for ``.py`` files (skipping caches and
   hidden directories; any other path is an error), read each source —
   an ``overlay`` mapping can replace or add sources without touching
   disk, which is how the negative-drift tests prove the rules fire.
2. **Extract** per-module facts, consulting the per-file-hash cache.
3. **Link** everything into one :class:`ProgramGraph`.
4. **Run passes**: purity (P1-P7), simulation correctness (D2),
   contracts (C1-C5), fork safety (F1-F2).
5. **Filter**: ``--select`` subset, line-scoped waivers (tracking which
   actually fired), suppression baseline, then W1 for waivers that
   suppressed nothing.

The driver is pure with respect to its inputs plus the filesystem reads
it performs — the analyzer holds itself to the standard it enforces.
"""

from __future__ import annotations

import os
import time
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.devtools.analyzer.baseline import (
    apply_baseline,
    apply_waivers,
    load_baseline,
    waiver_findings,
)
from repro.devtools.analyzer.cache import FactsCache
from repro.devtools.analyzer.contracts import contract_findings
from repro.devtools.analyzer.des import des_findings
from repro.devtools.analyzer.facts import (
    ModuleFacts,
    extract_module,
    module_name_for,
    source_sha,
)
from repro.devtools.analyzer.findings import AnalyzerReport, Finding
from repro.devtools.analyzer.forksafety import fork_safety_findings
from repro.devtools.analyzer.graph import ProgramGraph, build_graph
from repro.devtools.analyzer.purity import purity_findings
from repro.devtools.analyzer.rules import RULES, normalize_select

__all__ = ["analyze", "collect_sources", "DEFAULT_DOCS"]

DEFAULT_DOCS = ("docs/STATIC_ANALYSIS.md", "docs/OBSERVABILITY.md")

_SKIP_DIRS = {"__pycache__", ".git", ".venv", "node_modules", ".mypy_cache"}


def collect_sources(
    paths: Sequence[str], overlay: Optional[Mapping[str, str]] = None
) -> Dict[str, str]:
    """``path -> source`` for every ``.py`` under ``paths``.

    Overlay entries replace same-path disk content and add paths that
    do not exist on disk at all.  Any other path that is neither a
    directory nor a ``.py`` file raises ``FileNotFoundError``, so a
    mistyped path cannot pass as a clean run.
    """
    overlay = overlay or {}
    sources: Dict[str, str] = {}
    for root in paths:
        if root in overlay:
            continue
        if not os.path.isdir(root):
            if not (root.endswith(".py") and os.path.isfile(root)):
                raise FileNotFoundError(f"not a Python file or directory: {root}")
            sources[root] = _read(root)
            continue
        for dirpath, dirnames, filenames in os.walk(root):
            dirnames[:] = sorted(
                d for d in dirnames if d not in _SKIP_DIRS and not d.startswith(".")
            )
            for name in sorted(filenames):
                if name.endswith(".py"):
                    path = os.path.join(dirpath, name)
                    sources[path] = _read(path)
    sources.update(overlay)
    return sources


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as handle:
        return handle.read()


def _extract_all(
    sources: Mapping[str, str], cache: FactsCache
) -> List[ModuleFacts]:
    modules: List[ModuleFacts] = []
    shas: Dict[str, str] = {}
    for path, source in sorted(sources.items()):
        sha = source_sha(source)
        shas[path] = sha
        cached = cache.get(sha)
        if cached is not None:
            # Same content may live at a new path after a rename.
            if cached.path != path:
                cached.path = path
                cached.module = module_name_for(path)
            modules.append(cached)
            continue
        facts = extract_module(source, path, module_name_for(path))
        cache.put(facts)
        modules.append(facts)
    cache.prune(shas)
    return modules


def _parse_error_findings(modules: Sequence[ModuleFacts]) -> List[Finding]:
    return [
        Finding(
            rule="E0",
            path=mod.path,
            line=1,
            col=1,
            message=f"file does not parse: {mod.parse_error}",
            detail="parse-error",
        )
        for mod in modules
        if mod.parse_error
    ]


def analyze(
    paths: Sequence[str],
    *,
    select: Optional[Sequence[str]] = None,
    baseline_text: Optional[str] = None,
    cache_path: Optional[str] = None,
    overlay: Optional[Mapping[str, str]] = None,
    docs: Optional[Mapping[str, str]] = None,
    docs_paths: Optional[Sequence[str]] = None,
    roots: Optional[Tuple[str, ...]] = None,
) -> AnalyzerReport:
    """Run the whole-program analysis and return its report.

    ``baseline_text`` is the *content* of a baseline file (the CLI reads
    it; tests pass literals).  ``docs`` maps doc path -> text for the C5
    check; when absent, ``docs_paths`` (default :data:`DEFAULT_DOCS`)
    are read from disk where they exist.
    """
    started = time.monotonic()  # analyzer: allow=P1 -- timing the analyzer's own run, not sim state
    sources = collect_sources(paths, overlay)
    cache = FactsCache(cache_path)
    modules = _extract_all(sources, cache)
    cache.save()
    graph: ProgramGraph = build_graph(modules)

    if docs is None:
        doc_map: Dict[str, str] = {}
        for doc_path in docs_paths if docs_paths is not None else DEFAULT_DOCS:
            if os.path.exists(doc_path):
                doc_map[doc_path] = _read(doc_path)
        docs = doc_map

    findings: List[Finding] = []
    findings.extend(_parse_error_findings(modules))
    findings.extend(purity_findings(graph, roots))
    findings.extend(des_findings(graph))
    findings.extend(contract_findings(graph, docs, RULES))
    findings.extend(fork_safety_findings(graph))

    if select is not None:
        selected = normalize_select(select)
        findings = [f for f in findings if f.rule in selected]

    findings, waived, used_waivers = apply_waivers(findings, modules)
    # Waiver hygiene only makes sense on a full-rule run: under --select,
    # a waiver for an unselected rule would look spuriously stale.
    if select is None:
        findings.extend(waiver_findings(modules, used_waivers, set(RULES)))

    baselined: Dict[str, int] = {}
    stale: List[Dict[str, object]] = []
    if baseline_text is not None:
        entries = load_baseline(baseline_text)
        findings, baselined, stale = apply_baseline(findings, entries)

    findings.sort(key=lambda f: f.sort_key())
    return AnalyzerReport(
        findings=tuple(findings),
        files_scanned=len(sources),
        waived=waived,
        baselined=baselined,
        stale_baseline=list(stale),
        cache_hits=cache.hits,
        cache_misses=cache.misses,
        elapsed_s=time.monotonic() - started,  # analyzer: allow=P1 -- self-timing
    )
