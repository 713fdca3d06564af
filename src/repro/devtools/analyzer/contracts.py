"""Contract-drift checks: structures that must stay in sync, checked.

Each check cross-references two places in the tree that encode the same
fact and fails when they disagree:

``C1``
    :class:`~repro.experiments.plan.CellSpec`'s dataclass fields vs the
    dict keys its ``config_payload`` method assembles.  The payload is
    what ``run_id`` hashes — a field missing from it means two
    different experiments share a content address (PR 4's horizon bug).
    Presentation-only fields opt out explicitly with a line-scoped
    ``# analyzer: hash-exempt -- <why>`` marker.
``C2``
    Concrete ``FaultSpec`` subclasses anywhere in the tree vs the
    ``FAULT_TYPES`` registry: every subclass must declare a string
    ``kind`` and be registered under it, and kinds must be unique.
``C3``
    ``FAULT_TYPES`` vs :mod:`repro.faults.catalog`: every registered
    kind should be constructed by at least one chaos fault class.
``C4``
    Sweep-event emit sites vs ``_REQUIRED_BY_KIND`` in
    :mod:`repro.obs.sweep`: every emitted kind must be in the schema,
    and every schema kind must be emitted somewhere in ``src``.
``C5``
    Registries vs their documentation tables: every event kind in the
    docs/OBSERVABILITY.md schema table, every analyzer rule id in the
    docs/STATIC_ANALYSIS.md rule index.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Set, Tuple

from repro.devtools.analyzer.facts import ModuleFacts
from repro.devtools.analyzer.findings import Finding
from repro.devtools.analyzer.graph import ProgramGraph

__all__ = ["contract_findings"]

_PLAN_MODULE = "repro.experiments.plan"
_SPEC_MODULE = "repro.faults.spec"
_CATALOG_MODULE = "repro.faults.catalog"
_SWEEP_MODULE = "repro.obs.sweep"

#: CellSpec fields hashed outside config_payload (the seed pairs with
#: the payload in ``run_id_for(payload, seed)``).
_HASHED_SEPARATELY = frozenset({"seed"})


def _cellspec_findings(graph: ProgramGraph) -> List[Finding]:
    entry = graph.classes.get(f"{_PLAN_MODULE}:CellSpec")
    if entry is None:
        return []
    mod, cls = entry
    payload_fn = graph.functions.get(f"{_PLAN_MODULE}:CellSpec.config_payload")
    if payload_fn is None:
        return [
            Finding(
                rule="C1",
                path=mod.path,
                line=cls.line,
                col=1,
                message="CellSpec has no config_payload() method to hash",
                detail="config_payload:missing",
            )
        ]
    payload_keys = set(payload_fn[1].dict_keys)
    findings: List[Finding] = []
    for name, line, exempt in cls.fields:
        if name in _HASHED_SEPARATELY or exempt:
            continue
        if name not in payload_keys:
            findings.append(
                Finding(
                    rule="C1",
                    path=mod.path,
                    line=line,
                    col=1,
                    message=(
                        f"CellSpec.{name} is not part of the content-address "
                        f"payload: two cells differing only in {name!r} would "
                        f"collide in the cache (mark `# analyzer: hash-exempt "
                        f"-- <why>` if presentation-only)"
                    ),
                    detail=f"field:{name}",
                )
            )
    return findings


def _fault_registry(graph: ProgramGraph) -> Tuple[Optional[ModuleFacts], Set[str]]:
    """The FAULT_TYPES registration tuple: resolved class keys."""
    spec_mod = graph.modules.get(_SPEC_MODULE)
    if spec_mod is None:
        return None, set()
    registered: Set[str] = set()
    for name in spec_mod.registry_tuples.get("FAULT_TYPES", []):
        key = graph.resolve_class(spec_mod, name)
        registered.add(key if key is not None else name)
    return spec_mod, registered


def _fault_findings(graph: ProgramGraph) -> List[Finding]:
    spec_mod, registered = _fault_registry(graph)
    if spec_mod is None:
        return []
    base_key = f"{_SPEC_MODULE}:FaultSpec"
    if base_key not in graph.classes:
        return []
    findings: List[Finding] = []
    kinds: Dict[str, str] = {}
    for sub_key in graph.subclasses_of(base_key):
        mod, cls = graph.classes[sub_key]
        if not mod.module.startswith("repro."):
            continue  # test doubles in tests/ are not production specs
        if cls.kind_const is None:
            findings.append(
                Finding(
                    rule="C2",
                    path=mod.path,
                    line=cls.line,
                    col=1,
                    message=(
                        f"FaultSpec subclass {cls.name} declares no string "
                        f"`kind` ClassVar: it would serialize under its "
                        f"parent's kind and fail to round-trip"
                    ),
                    detail=f"class:{cls.name}:no-kind",
                )
            )
            continue
        other = kinds.get(cls.kind_const)
        if other is not None:
            findings.append(
                Finding(
                    rule="C2",
                    path=mod.path,
                    line=cls.kind_line or cls.line,
                    col=1,
                    message=(
                        f"FaultSpec kind {cls.kind_const!r} is declared by both "
                        f"{other} and {cls.name}: payload round-trips are "
                        f"ambiguous"
                    ),
                    detail=f"kind:{cls.kind_const}:duplicate",
                )
            )
        kinds[cls.kind_const] = cls.name
        if sub_key not in registered:
            findings.append(
                Finding(
                    rule="C2",
                    path=mod.path,
                    line=cls.line,
                    col=1,
                    message=(
                        f"FaultSpec subclass {cls.name} (kind "
                        f"{cls.kind_const!r}) is not registered in FAULT_TYPES: "
                        f"fault_from_dict cannot rebuild its payloads, so "
                        f"faulted cells stop round-tripping"
                    ),
                    detail=f"class:{cls.name}:unregistered",
                )
            )
    # C3: every registered kind is exercised by the chaos catalog.
    catalog_mod = graph.modules.get(_CATALOG_MODULE)
    if catalog_mod is not None:
        constructed: Set[str] = set()
        for fn in catalog_mod.functions.values():
            for call in fn.calls:
                leaf = call.rsplit(".", 1)[-1]
                key = graph.resolve_class(catalog_mod, leaf)
                if key is not None and key in graph.subclasses_of(base_key):
                    constructed.add(key)
        for sub_key in sorted(registered):
            if ":" not in sub_key:
                continue  # unresolved registry entry; C2 covers it
            if sub_key not in constructed:
                mod, cls = graph.classes.get(sub_key, (spec_mod, None))
                if cls is None:
                    continue
                findings.append(
                    Finding(
                        rule="C3",
                        path=mod.path,
                        line=cls.line,
                        col=1,
                        message=(
                            f"fault kind {cls.kind_const!r} ({cls.name}) is "
                            f"never constructed by any chaos fault class in "
                            f"{_CATALOG_MODULE}: no sweep coverage"
                        ),
                        detail=f"kind:{cls.kind_const}:uncataloged",
                    )
                )
    return findings


def _resolve_kind(
    graph: ProgramGraph, mod: ModuleFacts, kind_expr: str
) -> Optional[str]:
    """An emit site's first argument -> the event-kind string."""
    if kind_expr.startswith("str:"):
        return kind_expr[4:]
    leaf = kind_expr.rsplit(".", 1)[-1]
    # Resolve through the emitting module's imports to the constant.
    target = mod.from_imports.get(leaf, "")
    owner = target.rsplit(".", 1)[0] if "." in target else None
    for candidate in (owner, _SWEEP_MODULE, mod.module):
        owner_mod = graph.modules.get(candidate) if candidate else None
        if owner_mod is not None and leaf in owner_mod.str_constants:
            return owner_mod.str_constants[leaf]
    return None


def _sweep_findings(graph: ProgramGraph) -> List[Finding]:
    sweep_mod = graph.modules.get(_SWEEP_MODULE)
    if sweep_mod is None:
        return []
    schema_kinds: Set[str] = set()
    for key in sweep_mod.dict_constants.get("_REQUIRED_BY_KIND", []):
        if key.startswith("ref:"):
            const = sweep_mod.str_constants.get(key[4:])
            if const is not None:
                schema_kinds.add(const)
        else:
            schema_kinds.add(key)
    if not schema_kinds:
        return []
    findings: List[Finding] = []
    emitted: Set[str] = set()
    for mod in graph.modules.values():
        if not mod.module.startswith("repro."):
            continue  # emit sites in tests exercise, not define, the plane
        for site in mod.emits:
            kind = _resolve_kind(graph, mod, site.kind_expr)
            if kind is None:
                continue
            emitted.add(kind)
            if kind not in schema_kinds:
                findings.append(
                    Finding(
                        rule="C4",
                        path=mod.path,
                        line=site.line,
                        col=site.col,
                        message=(
                            f"sweep event kind {kind!r} is emitted here but "
                            f"absent from _REQUIRED_BY_KIND in {_SWEEP_MODULE}: "
                            f"validate_events_file would reject the log"
                        ),
                        detail=f"kind:{kind}:unschema'd",
                    )
                )
    # Schema kinds nothing in src emits are dead vocabulary.
    sweep_line = 1
    for kind in sorted(schema_kinds - emitted):
        findings.append(
            Finding(
                rule="C4",
                path=sweep_mod.path,
                line=sweep_line,
                col=1,
                message=(
                    f"schema event kind {kind!r} is never emitted by any "
                    f"executor or worker: dead vocabulary, or a missing "
                    f"emit site"
                ),
                detail=f"kind:{kind}:unemitted",
            )
        )
    return findings


def _docs_findings(
    graph: ProgramGraph,
    docs: Mapping[str, str],
    analyzer_rules: Mapping[str, str],
) -> List[Finding]:
    """C5: registry ids must appear in their documentation tables."""
    findings: List[Finding] = []
    # Event kinds -> docs/OBSERVABILITY.md
    sweep_mod = graph.modules.get(_SWEEP_MODULE)
    obs_doc = next((p for p in docs if p.endswith("OBSERVABILITY.md")), None)
    if sweep_mod is not None and obs_doc is not None:
        text = docs[obs_doc]
        kinds = {
            (sweep_mod.str_constants.get(k[4:]) if k.startswith("ref:") else k)
            for k in sweep_mod.dict_constants.get("_REQUIRED_BY_KIND", [])
        }
        for kind in sorted(k for k in kinds if k):
            if kind not in text:
                findings.append(
                    Finding(
                        rule="C5",
                        path=obs_doc,
                        line=1,
                        col=1,
                        message=(
                            f"sweep event kind {kind!r} is in the schema but "
                            f"missing from the {obs_doc} event table"
                        ),
                        detail=f"doc:event:{kind}",
                    )
                )
    # Rule ids -> docs/STATIC_ANALYSIS.md
    sa_doc = next((p for p in docs if p.endswith("STATIC_ANALYSIS.md")), None)
    if sa_doc is not None:
        text = docs[sa_doc]
        for rule_id in sorted(analyzer_rules):
            if f"| {rule_id} " not in text and f"`{rule_id}`" not in text:
                findings.append(
                    Finding(
                        rule="C5",
                        path=sa_doc,
                        line=1,
                        col=1,
                        message=(
                            f"rule {rule_id} is registered in code but missing "
                            f"from the {sa_doc} rule index"
                        ),
                        detail=f"doc:rule:{rule_id}",
                    )
                )
    return findings


def contract_findings(
    graph: ProgramGraph,
    docs: Optional[Mapping[str, str]] = None,
    analyzer_rules: Optional[Mapping[str, str]] = None,
) -> List[Finding]:
    """All C-family findings for the analyzed tree."""
    findings: List[Finding] = []
    findings.extend(_cellspec_findings(graph))
    findings.extend(_fault_findings(graph))
    findings.extend(_sweep_findings(graph))
    if docs:
        findings.extend(_docs_findings(graph, docs, analyzer_rules or {}))
    return findings
