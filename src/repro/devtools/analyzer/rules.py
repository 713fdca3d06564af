"""The analyzer's rule catalogue: ids, summaries, and long explanations.

One table drives everything: the CLI's ``--list-rules`` and
``--explain`` output, SARIF rule metadata, and the rule-index table in
``docs/STATIC_ANALYSIS.md`` (whose completeness rule ``C5`` checks
against this module, so the docs cannot silently drift from the code).

Families
--------
``P*``
    Purity: raw nondeterminism sources.  Wall clocks and entropy are
    findings in every scanned file outside their sanctuary modules;
    environment reads and global writes only when reachable from the
    declared sim-pure boundary; set iteration, unsorted hash payloads
    and module-level mutable state wherever they occur.
``D*``
    Discrete-event-simulation correctness: float sim timestamps are
    never compared with ==.
``C*``
    Contract drift: structures that must stay in sync — cache-key
    fields, the fault catalog, the sweep event schema, the docs tables.
``F*``
    Fork safety: objects shipped into worker processes must be
    picklable by construction and must not smuggle live state.
``W*``
    Waiver hygiene: suppressions must stay justified and alive.
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional, Set

__all__ = [
    "CLOCK_SANCTUARY_MODULES",
    "ENTROPY_SANCTUARY_MODULES",
    "MODULE_STATE_PACKAGES",
    "OBS_PLANE_MODULES",
    "PURITY_ROOTS",
    "RULES",
    "explain",
    "normalize_select",
]

#: Rule id -> one-line summary (``--list-rules``, SARIF shortDescription).
RULES: Dict[str, str] = {
    "P1": "wall-clock read outside the injectable-clock home",
    "P2": "unseeded entropy source outside the seeded-RNG home",
    "P3": "environment read reachable from the sim-pure boundary",
    "P4": "module global written from sim-pure code",
    "P5": "unsorted json.dumps feeding a content hash",
    "P6": "iteration over an unordered set expression",
    "P7": "module-level mutable state in pipeline/regulators/core",
    "D2": "==/!= comparison of float simulation timestamps",
    "C1": "CellSpec field missing from the content-address payload",
    "C2": "FaultSpec subclass not registered in the FAULT_TYPES catalog",
    "C3": "cataloged fault kind never exercised by a chaos fault class",
    "C4": "sweep event kind drifted from the schema validator",
    "C5": "documentation table out of sync with the code registry",
    "F1": "callable submitted to a worker pool is not picklable by construction",
    "F2": "worker submission smuggles an open handle, lock, or RNG state",
    "W1": "stale or unjustified analyzer waiver",
}

#: Long-form explanations (``--explain``), one paragraph per rule.
_EXPLANATIONS: Dict[str, str] = {
    "P1": (
        "Every run must be a pure function of (config, seed); a wall-clock\n"
        "read (time.time/monotonic/perf_counter, datetime.now, ...) in sim\n"
        "code makes two identical runs diverge. Every scanned file is\n"
        "checked, not only the code the call graph proves reachable, so a\n"
        "clock in a regulator hook the graph cannot see is still found; when\n"
        "the site is reachable from the sim-pure boundary the finding also\n"
        "carries the call chain. The sanctioned escape hatch is\n"
        "repro.obs.probes (host_wallclock/host_epoch): injectable,\n"
        "observational clocks that never feed back into scheduling. Host-side\n"
        "timing (benchmarks, the analyzer's own run) takes a waiver."
    ),
    "P2": (
        "Unseeded entropy (importing or calling random, numpy.random or\n"
        "secrets; os.urandom; uuid.uuid1/uuid4) breaks replayability. Like\n"
        "P1 this holds in every scanned file, with the call chain attached\n"
        "when the site is reachable from the sim-pure boundary. All\n"
        "randomness must flow through SeededRng streams\n"
        "(repro.simcore.rng), which derive every draw from the experiment\n"
        "seed; an explicitly seeded random.Random(seed) or\n"
        "default_rng(seed) is not a finding."
    ),
    "P3": (
        "os.environ / os.getenv reads reachable from the sim-pure boundary\n"
        "tie results to ambient machine state that the content address\n"
        "cannot see: two hosts produce different outputs for the same\n"
        "run_id, silently corrupting the cache and the ledger. Plumb the\n"
        "value through ExperimentConfig (hashed) or waive the line with a\n"
        "rationale if it is genuinely out-of-band (test hooks)."
    ),
    "P4": (
        "Writing a module-level global from sim-reachable code (a `global`\n"
        "statement with assignment) shares state between runs in one\n"
        "process: run N's result depends on whether run N-1 happened.\n"
        "Keep all mutable state on per-run objects."
    ),
    "P5": (
        "A function that computes a content hash (hashlib, or the ledger's\n"
        "config_fingerprint) must not fold in json.dumps(...) without\n"
        "sort_keys=True: dict order is an accident of insertion history,\n"
        "so the 'same' payload can produce different digests — cache\n"
        "misses at best, cross-experiment collisions at worst. (Set\n"
        "iteration is P6, wherever it occurs.)"
    ),
    "P6": (
        "Iterating a set expression (a literal, set()/frozenset(), a set\n"
        "comprehension, or a union/intersection/difference of those) visits\n"
        "elements in an order governed by hash seeding and insertion\n"
        "history. An event scheduled or a digest folded from inside such a\n"
        "loop ties the result to that order. Wrap the set in sorted(...).\n"
        "Checked in every scanned file."
    ),
    "P7": (
        "A module-level list/dict/set (or list()/dict()/defaultdict()/...)\n"
        "in repro.pipeline, repro.regulators or repro.core is state shared\n"
        "by every run in one process: run N's result can depend on whether\n"
        "run N-1 happened. Keep mutable state on per-run objects; tuples,\n"
        "frozensets and __all__ are fine."
    ),
    "D2": (
        "Two code paths computing 'the same' simulation time can differ in\n"
        "the last ulp, so ==/!= on float timestamps (names like now, t_*,\n"
        "*_ms, *_time, *_at) is a latent scheduling bug. Use an ordering\n"
        "comparison, math.isclose or an explicit epsilon. Checked in repro.*\n"
        "modules; tests assert exact reproduced timestamps on purpose."
    ),
    "C1": (
        "CellSpec.config_payload() is the cache key: the run_id hashes it.\n"
        "Every CellSpec field must appear in the payload (or be explicitly\n"
        "marked `# analyzer: hash-exempt -- <why>` for presentation-only\n"
        "fields, or be the seed, which is hashed alongside). PR 4's\n"
        "changelog records exactly this bug: the old memoizer key dropped\n"
        "the simulation horizon, so two different experiments collided in\n"
        "the cache. This rule makes that class of drift a lint failure."
    ),
    "C2": (
        "Every concrete FaultSpec subclass must declare a unique `kind`\n"
        "ClassVar and be registered in FAULT_TYPES. An unregistered spec\n"
        "serializes into a payload that fault_from_dict cannot rebuild, so\n"
        "a faulted cell's content address stops round-tripping through the\n"
        "ledger."
    ),
    "C3": (
        "Every kind in FAULT_TYPES should be constructed by at least one\n"
        "builder in repro.faults.catalog: an un-exercised fault type has no\n"
        "chaos-sweep coverage and no recovery-metric story, so regressions\n"
        "in it ship silently."
    ),
    "C4": (
        "The sweep event vocabulary lives in repro.obs.sweep\n"
        "(_REQUIRED_BY_KIND). Emitting a kind the schema does not know, or\n"
        "keeping a schema kind nothing emits, means validate_events_file\n"
        "and the dashboards disagree with the executors about what a sweep\n"
        "log contains. Each emit site's kind is resolved statically\n"
        "through the emitting module's imports to its string constant."
    ),
    "C5": (
        "Tables that mirror a code registry (the rule index in\n"
        "docs/STATIC_ANALYSIS.md, the event-kind table in\n"
        "docs/OBSERVABILITY.md) must mention every registered id. The\n"
        "reproducibility literature's dominant failure mode is silent\n"
        "doc/model drift; this rule makes the docs part of the build."
    ),
    "F1": (
        "Callables handed to ProcessPoolExecutor.submit/map or\n"
        "multiprocessing.Process(target=...) must be module-level functions\n"
        "(or functools.partial over one): lambdas, nested functions, and\n"
        "bound methods of local objects either fail to pickle outright or\n"
        "drag their enclosing state into the worker."
    ),
    "F2": (
        "Arguments shipped to a worker must not smuggle live state: open\n"
        "file handles, threading locks/conditions/events, or random.Random\n"
        "instances. Handles and locks do not survive the pickle boundary;\n"
        "RNG state smuggled around the seeded registry makes the worker's\n"
        "draws depend on parent-process history."
    ),
    "W1": (
        "A waiver (`# analyzer: allow=P1 -- rationale`) is the only\n"
        "suppression syntax. It must carry a rationale and must still match\n"
        "a live finding on its line. A stale waiver is worse than none: it\n"
        "documents a hazard that no longer exists and will silently swallow\n"
        "the next, different finding on that line. Delete waivers when the\n"
        "code they excuse goes away."
    ),
}

#: The declared sim-pure boundary: everything statically reachable from
#: these functions must be free of environment reads and global writes
#: (P3/P4), and P1/P2 findings inside it carry their call chain.
#: ``module:*`` means every function and method in the module.
PURITY_ROOTS = (
    "repro.simcore.engine:*",
    "repro.experiments.executor:execute_cell",
)

#: The injectable-clock home: the one module allowed to read host
#: clocks directly.  Calls *to* its wrappers are sanctioned (they are
#: observational and injectable); raw reads anywhere else are not.
CLOCK_SANCTUARY_MODULES = frozenset({"repro.obs.probes"})

#: The seeded-randomness home: where seeds become streams.
ENTROPY_SANCTUARY_MODULES = frozenset({"repro.simcore.rng"})

#: The out-of-band observability plane: impure by design (resource
#: metering, epoch timestamps), verified out-of-band by the double-run
#: identity tests — raw sources inside these modules are sanctioned.
OBS_PLANE_MODULES = frozenset({"repro.obs.probes", "repro.obs.sweep"})

#: Packages in which module-level mutable state is a finding (P7).
MODULE_STATE_PACKAGES = ("repro.pipeline", "repro.regulators", "repro.core")


def explain(rule: str) -> Optional[str]:
    """Long-form explanation for ``rule`` (``--explain``), or ``None``."""
    rule = rule.strip().upper()
    if rule not in RULES:
        return None
    return f"{rule}: {RULES[rule]}\n\n{_EXPLANATIONS[rule]}"


def normalize_select(select: Optional[Iterable[str]]) -> Set[str]:
    """Validate a ``--select`` rule subset; default is every rule."""
    if select is None:
        return set(RULES)
    chosen = {s.strip().upper() for s in select if s.strip()}
    unknown = chosen - set(RULES)
    if unknown:
        raise ValueError(f"unknown analyzer rule(s): {', '.join(sorted(unknown))}")
    return chosen
