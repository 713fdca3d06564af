"""Purity: raw nondeterminism sources, each judged in its own scope.

The lattice is deliberately small — a function is **pure** until a raw
taint event (clock read, entropy source, environment read, global
write, set iteration, ...) is observed in its body.  Each rule then
picks its scope:

``P1`` / ``P2`` (clock, entropy)
    Every scanned file.  The call graph cannot see every path the
    engine takes (regulator hooks, buffers and RNG draws run through
    callbacks it does not resolve), so these two never depend on
    reachability.  When the site *is* reachable from a declared
    sim-pure root (:data:`~repro.devtools.analyzer.rules.PURITY_ROOTS`)
    the finding also carries the call chain.
``P3`` / ``P4`` (environment reads, global writes)
    Only inside the reachable closure of the sim-pure boundary: tools
    around the simulation legitimately read their environment.
``P5`` (unsorted ``json.dumps``)
    Any function that also computes a content hash, reachable or not.
``P6`` (set iteration)
    Everywhere.
``P7`` (module-level mutable state)
    Module bodies in :data:`~repro.devtools.analyzer.rules.MODULE_STATE_PACKAGES`.

Sanctioned sources live in the sanctuary modules (the injectable-clock
home ``repro.obs.probes``, the seeded-RNG home ``repro.simcore.rng``,
and the out-of-band observability plane) — raw reads there are by
design and are *not* findings; calls into their wrappers are likewise
sanctioned, because the wrappers are injectable and observational.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.devtools.analyzer.facts import MODULE_BODY
from repro.devtools.analyzer.findings import Finding
from repro.devtools.analyzer.graph import ProgramGraph
from repro.devtools.analyzer.rules import (
    CLOCK_SANCTUARY_MODULES,
    ENTROPY_SANCTUARY_MODULES,
    MODULE_STATE_PACKAGES,
    OBS_PLANE_MODULES,
    PURITY_ROOTS,
)

__all__ = ["purity_findings"]

#: Taint kind -> (rule, human noun).
_TAINT_RULES: Dict[str, Tuple[str, str]] = {
    "clock": ("P1", "wall-clock read"),
    "entropy": ("P2", "entropy source"),
    "env": ("P3", "environment read"),
    "global_write": ("P4", "module-global write"),
}

#: Call names (leaf) that mark a function as computing a content hash,
#: in addition to direct hashlib/hexdigest use recorded at extraction.
_FINGERPRINT_HELPERS = ("config_fingerprint", "run_id_for", "metrics_digest")


def _sanctioned(module: str, kind: str) -> bool:
    if module in OBS_PLANE_MODULES:
        return kind in ("clock", "env")
    if kind == "clock":
        return module in CLOCK_SANCTUARY_MODULES
    if kind == "entropy":
        return module in ENTROPY_SANCTUARY_MODULES
    return False


def _in_packages(module: str, packages: Tuple[str, ...]) -> bool:
    return any(module == pkg or module.startswith(pkg + ".") for pkg in packages)


def _short_chain(chain: Tuple[str, ...], limit: int = 6) -> Tuple[str, ...]:
    if len(chain) <= limit:
        return chain
    return chain[:2] + ("...",) + chain[-(limit - 3):]


def purity_findings(
    graph: ProgramGraph, roots: Optional[Tuple[str, ...]] = None
) -> List[Finding]:
    """P1-P7, each over its own scope (see the module docstring)."""
    roots = roots if roots is not None else PURITY_ROOTS
    reachable, parents = graph.reachable_from(list(roots))
    findings: List[Finding] = []

    for fid, (mod, fn) in graph.functions.items():
        where = fn.qualname if fn.qualname != MODULE_BODY else "module body"
        in_boundary = fid in reachable
        hash_context = any(t.kind == "hash_digest" for t in fn.taints) or any(
            call.rsplit(".", 1)[-1] in _FINGERPRINT_HELPERS for call in fn.calls
        )
        for taint in fn.taints:
            rule_noun = _TAINT_RULES.get(taint.kind)
            if rule_noun is not None:
                rule, noun = rule_noun
                if _sanctioned(mod.module, taint.kind):
                    continue
                if rule in ("P3", "P4") and not in_boundary:
                    continue
                reach = " is reachable from the sim-pure boundary" if in_boundary else ""
                findings.append(
                    Finding(
                        rule=rule,
                        path=mod.path,
                        line=taint.line,
                        col=taint.col,
                        message=(
                            f"{noun} {taint.detail} in {where}(){reach}; a run "
                            f"must be a pure function of (config, seed)"
                        ),
                        chain=(
                            _short_chain(graph.chain(parents, fid)) if in_boundary else ()
                        ),
                        detail=f"{taint.kind}:{taint.detail}",
                    )
                )
            elif taint.kind == "dumps_unsorted" and hash_context:
                findings.append(
                    Finding(
                        rule="P5",
                        path=mod.path,
                        line=taint.line,
                        col=taint.col,
                        message=(
                            f"{taint.detail} in hash-computing {where}(): dict "
                            f"order is unstable, so the digest is not a function "
                            f"of the payload"
                        ),
                        detail=taint.kind,
                    )
                )
            elif taint.kind == "set_iter":
                findings.append(
                    Finding(
                        rule="P6",
                        path=mod.path,
                        line=taint.line,
                        col=taint.col,
                        message=(
                            f"{taint.detail} in {where}(): order depends on "
                            f"hashing; sort it (sorted(...)) before iterating"
                        ),
                        detail=taint.kind,
                    )
                )
            elif taint.kind == "module_state" and _in_packages(
                mod.module, MODULE_STATE_PACKAGES
            ):
                findings.append(
                    Finding(
                        rule="P7",
                        path=mod.path,
                        line=taint.line,
                        col=taint.col,
                        message=(
                            f"module-level mutable state ({taint.detail}): state "
                            f"shared across runs breaks run independence"
                        ),
                        detail=f"{taint.kind}:{taint.detail}",
                    )
                )
    return findings
