"""Regrowth guard: no top-level definition in ``src/repro`` that only tests reach.

A static scan in the shape of the ``sys.setprofile`` census that pruned
the tree: every top-level function and class under ``src/repro`` must be
referenced by name from ``src/`` (outside its own body), ``perfbench/``,
``benchmarks/``, ``examples/`` or ``.github/workflows/ci.yml``.  Strings
do not count, and neither do ``__init__`` re-exports or ``__all__``
entries.  A reference made only from inside another unreferenced
definition does not count either, so a dead helper cannot keep its dead
caller alive.  A definition that must stay without such a reference is
named in :data:`KEEP` with its reason.
"""

import ast
import pathlib
import re
from typing import Dict, List, Optional, Set, Tuple

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "repro"
PRODUCTION_DIRS = ("perfbench", "benchmarks", "examples")
CI_FILE = ROOT / ".github" / "workflows" / "ci.yml"

#: ``module.name`` -> why it stays although nothing outside tests names it.
KEEP: Dict[str, str] = {
    "repro.workloads.validation.validate_profile": (
        "the analytic profile check that machine-checked calibration "
        "(ROADMAP item 2) either absorbs or deletes"
    ),
    "repro.faults.service.ChaosTransport": (
        "the hostile-wire fake the service-chaos tests and the CI "
        "service-chaos job run the client through"
    ),
    "repro.obs.sweep.validate_events_file": (
        "a CI step schema-checks the sweep event log with it"
    ),
}

_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)

#: (file, enclosing top-level definition or None) a name is used from.
Site = Tuple[str, Optional[str]]


def _names_used(tree: ast.Module) -> List[Tuple[str, Optional[str]]]:
    """Every identifier the module uses, with its enclosing top-level def."""
    used = []
    for top in tree.body:
        owner = top.name if isinstance(top, _DEFS) else None
        for node in ast.walk(top):
            if isinstance(node, ast.Name):
                used.append((node.id, owner))
            elif isinstance(node, ast.Attribute):
                used.append((node.attr, owner))
            elif isinstance(node, ast.alias):
                used.append((node.name.rsplit(".", 1)[-1], owner))
    return used


def _module_name(path: pathlib.Path) -> str:
    parts = list(path.relative_to(SRC.parent).with_suffix("").parts)
    if parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts)


def _scan() -> Tuple[Dict[str, Site], Dict[str, Set[Site]]]:
    """``module.name`` -> its own site, and name -> every site using it."""
    definitions: Dict[str, Site] = {}
    uses: Dict[str, Set[Site]] = {}
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        rel = path.relative_to(ROOT).as_posix()
        for top in tree.body:
            if isinstance(top, _DEFS) and not top.name.startswith("__"):
                definitions[f"{_module_name(path)}.{top.name}"] = (rel, top.name)
        if path.name == "__init__.py":
            # Re-exports and ``__all__`` are not uses.
            tree.body = [
                node for node in tree.body
                if not isinstance(node, (ast.Import, ast.ImportFrom, ast.Assign))
            ]
        for name, owner in _names_used(tree):
            uses.setdefault(name, set()).add((rel, owner))
    for directory in PRODUCTION_DIRS:
        for path in sorted((ROOT / directory).rglob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            for name, _ in _names_used(tree):
                uses.setdefault(name, set()).add((directory, None))
    ci_text = CI_FILE.read_text(encoding="utf-8")
    for token in sorted(set(re.findall(r"[A-Za-z_][A-Za-z0-9_]*", ci_text))):
        uses.setdefault(token, set()).add((CI_FILE.name, None))
    return definitions, uses


def unreached_definitions() -> List[str]:
    """Top-level ``src/repro`` definitions nothing outside tests reaches,
    besides those :data:`KEEP` names (which count as reached)."""
    definitions, uses = _scan()
    kept = {definitions[name] for name in KEEP if name in definitions}
    dead: Set[Site] = set()
    while True:
        newly_dead = {
            site
            for site in definitions.values()
            if site not in dead
            and site not in kept
            and not any(
                use != site and use not in dead
                for use in uses.get(site[1], ())
            )
        }
        if not newly_dead:
            break
        dead |= newly_dead
    return sorted(q for q, site in definitions.items() if site in dead)


def test_every_top_level_definition_is_reached_outside_tests():
    unreached = unreached_definitions()
    assert unreached == [], (
        "only tests reach these src/repro definitions; delete them, or "
        "name them in KEEP with the reason they stay: " + ", ".join(unreached)
    )


def test_keep_list_names_existing_definitions():
    definitions, _ = _scan()
    stale = sorted(name for name in KEEP if name not in definitions)
    assert stale == [], f"KEEP names definitions that no longer exist: {stale}"
    assert all(reason.strip() for reason in KEEP.values())
