"""Per-module fact extraction: one AST walk, everything the passes need.

The analyzer never re-parses a file twice: :func:`extract_module` walks
a module's AST once and distills it into a plain-data
:class:`ModuleFacts` — functions with their taint events and outgoing
call references, classes with bases/methods/field lists, import tables,
string constants, sweep-event emit sites, pool submission sites, and
waiver comments.  Everything is JSON-serializable, which is what makes
the per-file-hash cache possible: a warm run loads facts for unchanged
files straight from disk and only the whole-program passes
(:mod:`.graph`, :mod:`.purity`, :mod:`.contracts`) run fresh.

Taint *events* recorded here are mechanical observations ("calls
``time.time``", "iterates a set expression", "writes a global",
"compares a timestamp with ``==``"); the passes decide
which of them are findings, for which rule, and in which scope.
"""

from __future__ import annotations

import ast
import hashlib
import io
import re
import tokenize
from dataclasses import asdict, dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Sequence, Set, Tuple

__all__ = [
    "ClassFacts",
    "EmitSite",
    "FunctionFacts",
    "ModuleFacts",
    "SubmitSite",
    "TaintEvent",
    "Waiver",
    "extract_module",
    "facts_from_payload",
    "module_name_for",
    "source_sha",
]

MODULE_BODY = "<module>"

#: ``time`` attributes that read a host clock.
CLOCK_ATTRS = frozenset(
    {
        "time",
        "time_ns",
        "perf_counter",
        "perf_counter_ns",
        "monotonic",
        "monotonic_ns",
        "process_time",
        "process_time_ns",
    }
)
DATETIME_ATTRS = frozenset({"now", "utcnow", "today"})

#: Entropy sources: importing one of these modules, or calling into it.
ENTROPY_MODULES = frozenset({"random", "numpy.random", "secrets"})
UUID_ENTROPY = frozenset({"uuid1", "uuid4"})
#: Generator constructors that are deterministic when given a seed.
SEEDED_CONSTRUCTORS = frozenset(
    {"random.Random", "numpy.random.default_rng", "numpy.random.RandomState"}
)

#: Collection constructors whose result is mutable (module-state taint).
MUTABLE_CALLS = frozenset(
    {"list", "dict", "set", "defaultdict", "deque", "Counter", "OrderedDict", "bytearray"}
)

#: Name/attribute patterns that denote a float simulation timestamp.
TIMESTAMP_RE = re.compile(r"(^now$|^t_|_ms$|_time$|_at$|timestamp)")

#: Callables whose return value is a live OS/threading object (F2).
SMUGGLED_FACTORIES = {
    "open": "an open file handle",
    "threading.Lock": "a threading lock",
    "threading.RLock": "a threading lock",
    "threading.Condition": "a threading condition",
    "threading.Event": "a threading event",
    "threading.Semaphore": "a threading semaphore",
    "random.Random": "a random.Random instance",
    "random.SystemRandom": "a random.SystemRandom instance",
}

_WAIVER_RE = re.compile(
    r"#\s*analyzer:\s*allow=([A-Za-z0-9,\s]+?)(?:\s*--\s*(.*?))?\s*(?:#|$)"
)
_HASH_EXEMPT_RE = re.compile(r"#\s*analyzer:\s*hash-exempt(?:\s*--\s*(.*?))?\s*(?:#|$)")


@dataclass
class TaintEvent:
    """One mechanical impurity observation inside a function body."""

    #: ``clock`` | ``entropy`` | ``env`` | ``global_write`` |
    #: ``set_iter`` | ``dumps_unsorted`` | ``hash_digest`` |
    #: ``module_state`` | ``timestamp_eq``
    kind: str
    line: int
    col: int
    detail: str


@dataclass
class EmitSite:
    """One ``bus.emit(KIND, ...)`` / ``emit_cell_event(KIND, ...)`` call."""

    #: The first argument as written (``sweepbus.CELL_STARTED``, a bare
    #: name, or a string literal prefixed ``str:``).
    kind_expr: str
    line: int
    col: int


@dataclass
class SubmitSite:
    """One callable handed to a worker pool / child process."""

    #: ``submit`` | ``map`` | ``Process`` | ``apply_async`` | ``initializer``
    via: str
    #: The callable expression as written (dotted name, or markers
    #: ``<lambda>`` / unresolvable ``?``).
    callee: str
    #: Argument expressions as dotted names (``?`` when complex).
    args: List[str]
    line: int
    col: int


@dataclass
class Waiver:
    """One line-scoped ``# analyzer: allow=...`` comment."""

    line: int
    rules: List[str]
    rationale: str


@dataclass
class FunctionFacts:
    """One function or method, flattened for the whole-program passes."""

    qualname: str
    line: int
    taints: List[TaintEvent] = field(default_factory=list)
    #: Outgoing call references, as written: ``foo``, ``self.run``,
    #: ``time.sleep``, ``pkg.mod.fn``.
    calls: List[str] = field(default_factory=list)
    #: Bare references to known-function names (callback registration).
    refs: List[str] = field(default_factory=list)
    #: Local variable -> class-name-as-written, from ``x = Cls(...)``
    #: assignments and parameter annotations.
    local_types: Dict[str, str] = field(default_factory=dict)
    #: String keys this function assembles into dict literals /
    #: subscript stores (contract passes read ``config_payload``'s).
    dict_keys: List[str] = field(default_factory=list)


@dataclass
class ClassFacts:
    """One class definition."""

    name: str
    line: int
    bases: List[str] = field(default_factory=list)
    methods: List[str] = field(default_factory=list)
    #: ``self.<attr> = Cls(...)`` assignments anywhere in the class.
    attr_types: Dict[str, str] = field(default_factory=dict)
    #: Value of a ``kind: ClassVar[str] = "..."`` class attribute.
    kind_const: Optional[str] = None
    kind_line: int = 0
    #: Annotated dataclass-style fields: (name, line, hash_exempt).
    fields: List[Tuple[str, int, bool]] = field(default_factory=list)


@dataclass
class ModuleFacts:
    """Everything the whole-program passes need from one module."""

    module: str
    path: str
    sha: str
    imports: Dict[str, str] = field(default_factory=dict)
    from_imports: Dict[str, str] = field(default_factory=dict)
    functions: Dict[str, FunctionFacts] = field(default_factory=dict)
    classes: Dict[str, ClassFacts] = field(default_factory=dict)
    #: Module-level ``NAME = "string"`` constants.
    str_constants: Dict[str, str] = field(default_factory=dict)
    #: Module-level dict literals: name -> resolved string keys.
    dict_constants: Dict[str, List[str]] = field(default_factory=dict)
    #: Names registered into FAULT_TYPES-style tuples keyed by variable.
    registry_tuples: Dict[str, List[str]] = field(default_factory=dict)
    emits: List[EmitSite] = field(default_factory=list)
    submits: List[SubmitSite] = field(default_factory=list)
    waivers: List[Waiver] = field(default_factory=list)
    parse_error: Optional[str] = None

    def to_payload(self) -> Dict[str, Any]:
        return asdict(self)


def facts_from_payload(payload: Mapping[str, Any]) -> ModuleFacts:
    """Rebuild :class:`ModuleFacts` from its cached JSON form."""
    facts = ModuleFacts(
        module=payload["module"], path=payload["path"], sha=payload["sha"]
    )
    facts.imports = dict(payload.get("imports", {}))
    facts.from_imports = dict(payload.get("from_imports", {}))
    facts.str_constants = dict(payload.get("str_constants", {}))
    facts.dict_constants = {
        k: list(v) for k, v in payload.get("dict_constants", {}).items()
    }
    facts.registry_tuples = {
        k: list(v) for k, v in payload.get("registry_tuples", {}).items()
    }
    facts.parse_error = payload.get("parse_error")
    for name, fn in payload.get("functions", {}).items():
        facts.functions[name] = FunctionFacts(
            qualname=fn["qualname"],
            line=fn["line"],
            taints=[TaintEvent(**t) for t in fn.get("taints", [])],
            calls=list(fn.get("calls", [])),
            refs=list(fn.get("refs", [])),
            local_types=dict(fn.get("local_types", {})),
            dict_keys=list(fn.get("dict_keys", [])),
        )
    for name, cls in payload.get("classes", {}).items():
        facts.classes[name] = ClassFacts(
            name=cls["name"],
            line=cls["line"],
            bases=list(cls.get("bases", [])),
            methods=list(cls.get("methods", [])),
            attr_types=dict(cls.get("attr_types", {})),
            kind_const=cls.get("kind_const"),
            kind_line=cls.get("kind_line", 0),
            fields=[tuple(f) for f in cls.get("fields", [])],  # type: ignore[misc]
        )
    facts.emits = [EmitSite(**e) for e in payload.get("emits", [])]
    facts.submits = [SubmitSite(**s) for s in payload.get("submits", [])]
    facts.waivers = [Waiver(**w) for w in payload.get("waivers", [])]
    return facts


def source_sha(source: str) -> str:
    return hashlib.sha256(source.encode("utf-8")).hexdigest()


def module_name_for(path: str) -> str:
    """Dotted module name for ``path``; tests map to ``tests.<stem>``."""
    parts = list(path.replace("\\", "/").split("/"))
    if parts and parts[-1].endswith(".py"):
        parts[-1] = parts[-1][: -len(".py")]
    for anchor in ("repro", "tests"):
        if anchor in parts:
            parts = parts[parts.index(anchor):]
            break
    else:
        parts = parts[-1:]
    if parts and parts[-1] == "__init__":
        parts = parts[:-1] or [parts[0]]
    return ".".join(parts)


def _dotted(node: ast.expr) -> Optional[str]:
    """Render a Name/Attribute chain as a dotted string, else ``None``."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def _is_set_expr(node: ast.expr) -> bool:
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        return node.func.id in ("set", "frozenset")
    if isinstance(node, ast.BinOp) and isinstance(node.op, (ast.BitOr, ast.BitAnd, ast.Sub)):
        # Union/intersection/difference of set expressions.
        return _is_set_expr(node.left) or _is_set_expr(node.right)
    return False


def _is_mutable_value(node: ast.expr) -> bool:
    if isinstance(node, (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp, ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        dotted = _dotted(node.func)
        return dotted is not None and dotted.rsplit(".", 1)[-1] in MUTABLE_CALLS
    return False


def _looks_like_timestamp(node: ast.expr) -> bool:
    if isinstance(node, ast.Name):
        return bool(TIMESTAMP_RE.search(node.id))
    if isinstance(node, ast.Attribute):
        return bool(TIMESTAMP_RE.search(node.attr))
    return False


def _parse_comments(source: str) -> Tuple[List[Waiver], Set[int]]:
    """Waiver comments and ``hash-exempt`` marker lines in ``source``.

    Real ``COMMENT`` tokens only — a waiver example quoted inside a
    docstring must not register as a live waiver.
    """
    waivers: List[Waiver] = []
    hash_exempt: Set[int] = set()
    try:
        tokens = list(tokenize.generate_tokens(io.StringIO(source).readline))
    except (tokenize.TokenError, SyntaxError, IndentationError):
        return waivers, hash_exempt
    for tok in tokens:
        if tok.type != tokenize.COMMENT:
            continue
        lineno = tok.start[0]
        match = _WAIVER_RE.search(tok.string)
        if match:
            rules = [r.strip().upper() for r in match.group(1).split(",") if r.strip()]
            waivers.append(
                Waiver(
                    line=lineno,
                    rules=rules,
                    rationale=(match.group(2) or "").strip(),
                )
            )
        if _HASH_EXEMPT_RE.search(tok.string):
            hash_exempt.add(lineno)
    return waivers, hash_exempt


class _Extractor(ast.NodeVisitor):
    def __init__(self, facts: ModuleFacts, hash_exempt: Set[int]):
        self.facts = facts
        self.hash_exempt = hash_exempt
        self._class_stack: List[ClassFacts] = []
        self._func_stack: List[FunctionFacts] = []
        self._ensure_function(MODULE_BODY, 1)

    # -- plumbing --------------------------------------------------------

    def _ensure_function(self, qualname: str, line: int) -> FunctionFacts:
        fn = self.facts.functions.get(qualname)
        if fn is None:
            fn = FunctionFacts(qualname=qualname, line=line)
            self.facts.functions[qualname] = fn
        return fn

    @property
    def _fn(self) -> FunctionFacts:
        return self._func_stack[-1] if self._func_stack else self.facts.functions[MODULE_BODY]

    def _taint(self, kind: str, node: ast.AST, detail: str) -> None:
        self._fn.taints.append(
            TaintEvent(
                kind=kind,
                line=getattr(node, "lineno", 1),
                col=getattr(node, "col_offset", 0) + 1,
                detail=detail,
            )
        )

    def _resolve_alias(self, dotted: str) -> str:
        """Map a written dotted name through the module's import tables."""
        head, _, rest = dotted.partition(".")
        if head in self.facts.from_imports:
            head = self.facts.from_imports[head]
        elif head in self.facts.imports:
            head = self.facts.imports[head]
        return head + ("." + rest if rest else "")

    # -- imports ---------------------------------------------------------

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            local = alias.asname or alias.name.split(".")[0]
            self.facts.imports[local] = (
                alias.name if alias.asname else alias.name.split(".")[0]
            )
            if alias.asname:
                self.facts.imports[alias.asname] = alias.name
            if alias.name in ENTROPY_MODULES:
                self._taint("entropy", node, f"import {alias.name}")
        self.generic_visit(node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        mod = node.module or ""
        if node.level:  # relative import: anchor at this module's package
            pkg_parts = self.facts.module.split(".")
            pkg_parts = pkg_parts[: len(pkg_parts) - node.level]
            mod = ".".join(pkg_parts + ([mod] if mod else []))
        for alias in node.names:
            local = alias.asname or alias.name
            self.facts.from_imports[local] = f"{mod}.{alias.name}" if mod else alias.name
            if mod in ENTROPY_MODULES or f"{mod}.{alias.name}" in ENTROPY_MODULES:
                self._taint("entropy", node, f"from {mod} import {alias.name}")
        self.generic_visit(node)

    # -- functions / classes ---------------------------------------------

    def _qualname(self, name: str) -> str:
        if self._class_stack:
            return f"{self._class_stack[-1].name}.{name}"
        return name

    def _visit_function(self, node: Any) -> None:
        qualname = self._qualname(node.name)
        fn = self._ensure_function(qualname, node.lineno)
        if self._class_stack:
            self._class_stack[-1].methods.append(node.name)
        # Parameter annotations seed local type inference.
        for arg in list(node.args.posonlyargs) + list(node.args.args) + list(
            node.args.kwonlyargs
        ):
            if arg.annotation is not None:
                ann = _dotted(arg.annotation)
                if ann is None and isinstance(arg.annotation, ast.Constant):
                    ann = str(arg.annotation.value)
                if ann:
                    fn.local_types.setdefault(arg.arg, ann.strip('"'))
        self._func_stack.append(fn)
        for stmt in node.body:
            self.visit(stmt)
        self._func_stack.pop()

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._visit_function(node)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._visit_function(node)

    def visit_Lambda(self, node: ast.Lambda) -> None:
        self.generic_visit(node)

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        cls = ClassFacts(name=node.name, line=node.lineno)
        for base in node.bases:
            dotted = _dotted(base)
            if dotted:
                cls.bases.append(self._resolve_alias(dotted))
        self.facts.classes[node.name] = cls
        self._class_stack.append(cls)
        for stmt in node.body:
            # Dataclass-style annotated fields + the `kind` ClassVar.
            if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
                ann_src = ast.dump(stmt.annotation)
                is_classvar = "ClassVar" in ann_src
                name = stmt.target.id
                if (
                    name == "kind"
                    and isinstance(stmt.value, ast.Constant)
                    and isinstance(stmt.value.value, str)
                ):
                    cls.kind_const = stmt.value.value
                    cls.kind_line = stmt.lineno
                elif not is_classvar and not name.startswith("_"):
                    cls.fields.append(
                        (name, stmt.lineno, stmt.lineno in self.hash_exempt)
                    )
            elif isinstance(stmt, ast.Assign):
                for target in stmt.targets:
                    if (
                        isinstance(target, ast.Name)
                        and target.id == "kind"
                        and isinstance(stmt.value, ast.Constant)
                        and isinstance(stmt.value.value, str)
                    ):
                        cls.kind_const = stmt.value.value
                        cls.kind_line = stmt.lineno
            self.visit(stmt)
        self._class_stack.pop()

    # -- assignments ------------------------------------------------------

    def _record_constructor_type(self, target: ast.expr, value: ast.expr) -> None:
        if not isinstance(value, ast.Call):
            return
        dotted = _dotted(value.func)
        if dotted is None:
            return
        resolved = self._resolve_alias(dotted)
        leaf = resolved.rsplit(".", 1)[-1]
        if not leaf or not leaf[0].isupper():
            return  # heuristics: constructors are CapWords
        if isinstance(target, ast.Name):
            self._fn.local_types[target.id] = resolved
        elif (
            isinstance(target, ast.Attribute)
            and isinstance(target.value, ast.Name)
            and target.value.id == "self"
            and self._class_stack
        ):
            self._class_stack[-1].attr_types[target.attr] = resolved

    def visit_Assign(self, node: ast.Assign) -> None:
        for target in node.targets:
            self._record_constructor_type(target, node.value)
            # Module-level string constants and dict/tuple registries.
            if not self._func_stack and isinstance(target, ast.Name):
                self._record_module_constant(target.id, node.value)
            # dict literal assigned to a local: remember its keys.
            if isinstance(node.value, ast.Dict):
                for key in node.value.keys:
                    if isinstance(key, ast.Constant) and isinstance(key.value, str):
                        self._fn.dict_keys.append(key.value)
            # payload["key"] = ... stores.
            if (
                isinstance(target, ast.Subscript)
                and isinstance(target.slice, ast.Constant)
                and isinstance(target.slice.value, str)
            ):
                self._fn.dict_keys.append(target.slice.value)
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        if node.value is not None:
            self._record_constructor_type(node.target, node.value)
            if not self._func_stack and isinstance(node.target, ast.Name):
                self._record_module_constant(node.target.id, node.value)
            if isinstance(node.value, ast.Dict):
                for key in node.value.keys:
                    if isinstance(key, ast.Constant) and isinstance(key.value, str):
                        self._fn.dict_keys.append(key.value)
        self.generic_visit(node)

    def _record_module_constant(self, name: str, value: ast.expr) -> None:
        if isinstance(value, ast.Constant) and isinstance(value.value, str):
            self.facts.str_constants[name] = value.value
        elif isinstance(value, ast.Dict):
            keys: List[str] = []
            for key in value.keys:
                if isinstance(key, ast.Constant) and isinstance(key.value, str):
                    keys.append(key.value)
                elif isinstance(key, ast.Name):
                    keys.append(f"ref:{key.id}")
            self.facts.dict_constants[name] = keys
            # Registry dicts built from comprehensions over a tuple of
            # classes: {cls.kind: cls for cls in (A, B, ...)}.
        elif isinstance(value, ast.DictComp):
            names = self._comp_tuple_names(value)
            if names:
                self.facts.registry_tuples[name] = names

    def _comp_tuple_names(self, comp: ast.DictComp) -> List[str]:
        names: List[str] = []
        for gen in comp.generators:
            if isinstance(gen.iter, (ast.Tuple, ast.List)):
                for elt in gen.iter.elts:
                    dotted = _dotted(elt)
                    if dotted:
                        names.append(self._resolve_alias(dotted))
        return names

    def visit_Module(self, node: ast.Module) -> None:
        self._module_state(node.body)
        self.generic_visit(node)

    def _module_state(self, body: Sequence[ast.stmt]) -> None:
        """Module-level assignments of mutable values (dunders exempt)."""
        for stmt in body:
            if isinstance(stmt, ast.If):  # e.g. version guards
                self._module_state(stmt.body)
                self._module_state(stmt.orelse)
                continue
            if isinstance(stmt, ast.Assign):
                targets, value = stmt.targets, stmt.value
            elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
                targets, value = [stmt.target], stmt.value
            else:
                continue
            if not _is_mutable_value(value):
                continue
            names = [t.id for t in targets if isinstance(t, ast.Name)]
            if names and all(n.startswith("__") and n.endswith("__") for n in names):
                continue  # __all__ and friends: module metadata
            self._taint("module_state", stmt, ", ".join(names) or "assignment")

    def visit_Compare(self, node: ast.Compare) -> None:
        operands = [node.left] + list(node.comparators)
        for op, left, right in zip(node.ops, operands, operands[1:]):
            if not isinstance(op, (ast.Eq, ast.NotEq)):
                continue
            if any(isinstance(side, ast.Constant) and side.value is None for side in (left, right)):
                continue  # `x == None` is an identity-style check, not float math
            stamp = next((side for side in (left, right) if _looks_like_timestamp(side)), None)
            if stamp is not None:
                self._taint("timestamp_eq", node, _dotted(stamp) or "timestamp")
                break
        self.generic_visit(node)

    def visit_Global(self, node: ast.Global) -> None:
        if self._func_stack:
            self._taint(
                "global_write", node, f"global {', '.join(node.names)}"
            )
        self.generic_visit(node)

    # -- calls / taints ---------------------------------------------------

    def visit_Call(self, node: ast.Call) -> None:
        dotted = _dotted(node.func)
        resolved = self._resolve_alias(dotted) if dotted else None
        if dotted:
            self._fn.calls.append(dotted)
        self._check_taint_call(node, resolved)
        self._check_emit(node, dotted, resolved)
        self._check_submit(node, dotted, resolved)
        self.generic_visit(node)

    def _check_taint_call(self, node: ast.Call, resolved: Optional[str]) -> None:
        if resolved is None:
            return
        head, _, attr = resolved.rpartition(".")
        if head == "time" and attr in CLOCK_ATTRS:
            self._taint("clock", node, f"time.{attr}()")
        elif attr in DATETIME_ATTRS and head in (
            "datetime",
            "datetime.datetime",
            "datetime.date",
        ):
            self._taint("clock", node, f"{head}.{attr}()")
        elif resolved in SEEDED_CONSTRUCTORS and (node.args or node.keywords):
            pass  # an explicitly seeded generator is a pure function of its seed
        elif head in ENTROPY_MODULES or resolved in (
            "os.urandom",
        ) or (head == "uuid" and attr in UUID_ENTROPY):
            self._taint("entropy", node, f"{resolved}()")
        elif resolved == "os.getenv" or resolved in ("os.environ.get",):
            self._taint("env", node, f"{resolved}()")
        elif resolved.startswith("hashlib.") or attr in ("hexdigest", "digest"):
            self._taint("hash_digest", node, resolved)
        elif resolved in ("json.dumps",):
            kwargs = {kw.arg for kw in node.keywords if kw.arg}
            if "sort_keys" not in kwargs:
                self._taint("dumps_unsorted", node, "json.dumps without sort_keys")

    def visit_Subscript(self, node: ast.Subscript) -> None:
        dotted = _dotted(node.value)
        if dotted and self._resolve_alias(dotted) == "os.environ":
            self._taint("env", node, "os.environ[...]")
        self.generic_visit(node)

    def visit_Attribute(self, node: ast.Attribute) -> None:
        # Bare method/function references (callback registration).
        if isinstance(node.ctx, ast.Load):
            dotted = _dotted(node)
            if dotted and (dotted.startswith("self.") or "." not in dotted):
                self._fn.refs.append(dotted)
            if dotted and self._resolve_alias(dotted) == "os.environ":
                pass  # handled at the Subscript/Call level
        self.generic_visit(node)

    def visit_Name(self, node: ast.Name) -> None:
        if isinstance(node.ctx, ast.Load):
            self._fn.refs.append(node.id)
        self.generic_visit(node)

    def visit_For(self, node: ast.For) -> None:
        if _is_set_expr(node.iter):
            self._taint("set_iter", node.iter, "iteration over a set expression")
        self.generic_visit(node)

    def visit_comprehension(self, node: ast.comprehension) -> None:
        if _is_set_expr(node.iter):
            self._taint("set_iter", node.iter, "comprehension over a set expression")
        self.generic_visit(node)

    # -- emit / submit sites ----------------------------------------------

    def _check_emit(
        self, node: ast.Call, dotted: Optional[str], resolved: Optional[str]
    ) -> None:
        if dotted is None or not node.args:
            return
        leaf = dotted.rsplit(".", 1)[-1]
        if leaf not in ("emit", "emit_cell_event"):
            return
        first = node.args[0]
        kind_expr: Optional[str] = None
        if isinstance(first, ast.Constant) and isinstance(first.value, str):
            kind_expr = f"str:{first.value}"
        else:
            kdot = _dotted(first)
            if kdot:
                kind_expr = kdot
        if kind_expr is None:
            return
        self.facts.emits.append(
            EmitSite(
                kind_expr=kind_expr,
                line=node.lineno,
                col=node.col_offset + 1,
            )
        )

    def _check_submit(
        self, node: ast.Call, dotted: Optional[str], resolved: Optional[str]
    ) -> None:
        if dotted is None:
            return
        leaf = dotted.rsplit(".", 1)[-1]
        callee_node: Optional[ast.expr] = None
        args: Sequence[ast.expr] = ()
        via = leaf
        if leaf in ("submit", "apply_async") and node.args:
            callee_node, args = node.args[0], node.args[1:]
        elif leaf == "map" and "." in dotted and node.args:
            # Only pool-ish receivers: ignore builtins map() (no attr).
            callee_node, args = node.args[0], node.args[1:]
        elif resolved in ("multiprocessing.Process", "threading.Thread") or leaf == "Process":
            for kw in node.keywords:
                if kw.arg == "target":
                    callee_node = kw.value
                    via = "Process"
        for kw in node.keywords:
            if kw.arg == "initializer":
                self.facts.submits.append(
                    SubmitSite(
                        via="initializer",
                        callee=self._callee_expr(kw.value),
                        args=[],
                        line=node.lineno,
                        col=node.col_offset + 1,
                    )
                )
        if callee_node is None:
            return
        self.facts.submits.append(
            SubmitSite(
                via=via,
                callee=self._callee_expr(callee_node),
                args=[self._callee_expr(a) for a in args],
                line=node.lineno,
                col=node.col_offset + 1,
            )
        )

    def _callee_expr(self, node: ast.expr) -> str:
        if isinstance(node, ast.Lambda):
            return "<lambda>"
        if isinstance(node, ast.Call):
            inner = _dotted(node.func)
            if inner is not None:
                resolved = self._resolve_alias(inner)
                if resolved in ("functools.partial", "partial"):
                    if node.args:
                        target = self._callee_expr(node.args[0])
                        return f"partial:{target}"
                    return "partial:?"
                return f"call:{resolved}"
            return "?"
        dotted = _dotted(node)
        return dotted if dotted is not None else "?"


def extract_module(source: str, path: str, module: Optional[str] = None) -> ModuleFacts:
    """Parse ``source`` and distill it into :class:`ModuleFacts`."""
    facts = ModuleFacts(
        module=module if module is not None else module_name_for(path),
        path=path,
        sha=source_sha(source),
    )
    waivers, hash_exempt = _parse_comments(source)
    facts.waivers = waivers
    try:
        tree = ast.parse(source)
    except SyntaxError as exc:
        facts.parse_error = f"syntax error: {exc.msg} (line {exc.lineno})"
        return facts
    extractor = _Extractor(facts, hash_exempt)
    extractor.visit(tree)
    # Deduplicate the (potentially huge) bare-name ref lists.
    for fn in facts.functions.values():
        fn.refs = sorted(set(fn.refs))
        fn.calls = sorted(set(fn.calls))
    return facts
