"""Whole-program symbol resolution, call graph, and reachability.

Built from every module's :class:`~repro.devtools.analyzer.facts.ModuleFacts`:

* a **symbol table** mapping ``module:qualname`` to functions and
  ``module:ClassName`` to classes, with from-import links so a name
  written in one module resolves to its definition in another;
* a **call graph** whose edges come from three sources, in decreasing
  confidence: direct calls (``foo()``, ``mod.foo()``, ``self.m()``,
  typed-receiver ``x.m()`` where ``x``'s class is known from a
  constructor assignment or annotation), constructor calls (edge to
  ``Class.__init__`` and every method the class registers as an engine
  process), and bare *references* to known functions (callback
  registration — ``event.callbacks.append(self._resume)`` makes
  ``_resume`` reachable from wherever the append happens);
* **reachability** — BFS from the declared sim-pure roots with parent
  pointers, so every finding can print its call chain.

The graph is an over-approximation (references count as edges) — the
right bias for a determinism analysis, where a missed path is a silent
cache-corruption hazard and a spurious path costs one waiver.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Set, Tuple

from repro.devtools.analyzer.facts import MODULE_BODY, ClassFacts, FunctionFacts, ModuleFacts

__all__ = ["FunctionId", "ProgramGraph", "build_graph"]

#: A function's global identity: ``"<module>:<qualname>"``.
FunctionId = str


class ProgramGraph:
    """The resolved whole-program view the analysis passes consume."""

    def __init__(self, modules: Mapping[str, ModuleFacts]):
        #: module name -> facts
        self.modules: Dict[str, ModuleFacts] = dict(modules)
        #: function id -> (module facts, function facts)
        self.functions: Dict[FunctionId, Tuple[ModuleFacts, FunctionFacts]] = {}
        #: "module:Class" -> class facts
        self.classes: Dict[str, Tuple[ModuleFacts, ClassFacts]] = {}
        #: method name -> ids of every class method with that name
        self._methods_by_name: Dict[str, List[FunctionId]] = {}
        #: function name -> ids of every module-level function so named
        self._functions_by_name: Dict[str, List[FunctionId]] = {}
        #: caller id -> callee ids
        self.edges: Dict[FunctionId, Set[FunctionId]] = {}
        self._index()
        self._link()

    # -- indexing ---------------------------------------------------------

    def _index(self) -> None:
        for mod in self.modules.values():
            for qualname, fn in mod.functions.items():
                fid = f"{mod.module}:{qualname}"
                self.functions[fid] = (mod, fn)
                if "." in qualname:
                    method = qualname.rsplit(".", 1)[1]
                    self._methods_by_name.setdefault(method, []).append(fid)
                elif qualname != MODULE_BODY:
                    self._functions_by_name.setdefault(qualname, []).append(fid)
            for cname, cls in mod.classes.items():
                self.classes[f"{mod.module}:{cname}"] = (mod, cls)

    def resolve_class(self, mod: ModuleFacts, written: str) -> Optional[str]:
        """Resolve a class name as written in ``mod`` to a class key."""
        dotted = written
        head, _, rest = dotted.partition(".")
        if head in mod.from_imports:
            dotted = mod.from_imports[head] + ("." + rest if rest else "")
        elif head in mod.imports:
            dotted = mod.imports[head] + ("." + rest if rest else "")
        # "pkg.mod.Class" -> class key; bare "Class" -> same module.
        if "." in dotted:
            owner, leaf = dotted.rsplit(".", 1)
            key = f"{owner}:{leaf}"
            if key in self.classes:
                return key
            # The import may point at a package __init__ re-export:
            # fall back to any class with this name in the tree.
            candidates = [k for k in self.classes if k.endswith(f":{leaf}")]
            if len(candidates) == 1:
                return candidates[0]
            return None
        key = f"{mod.module}:{dotted}"
        return key if key in self.classes else None

    def class_method(self, class_key: str, method: str) -> Optional[FunctionId]:
        """Look up ``method`` on the class or (recursively) its bases."""
        seen: Set[str] = set()
        stack = [class_key]
        while stack:
            key = stack.pop()
            if key in seen:
                continue
            seen.add(key)
            entry = self.classes.get(key)
            if entry is None:
                continue
            mod, cls = entry
            fid = f"{mod.module}:{cls.name}.{method}"
            if fid in self.functions:
                return fid
            for base in cls.bases:
                base_key = self.resolve_class(mod, base)
                if base_key is not None:
                    stack.append(base_key)
        return None

    def subclasses_of(self, class_key: str) -> List[str]:
        """Every class key whose (transitive) bases include ``class_key``."""
        leaf = class_key.rsplit(":", 1)[1]
        out: List[str] = []
        for key, (mod, cls) in self.classes.items():
            if key == class_key:
                continue
            stack = list(cls.bases)
            seen: Set[str] = set()
            found = False
            current_mod = mod
            while stack and not found:
                base = stack.pop()
                resolved = self.resolve_class(current_mod, base)
                if resolved is None or resolved in seen:
                    # Unresolvable bases still match by trailing name so
                    # test-tree subclasses of re-exported classes count.
                    if base.rsplit(".", 1)[-1] == leaf:
                        found = True
                    continue
                seen.add(resolved)
                if resolved == class_key:
                    found = True
                    break
                entry = self.classes.get(resolved)
                if entry is not None:
                    current_mod, base_cls = entry
                    stack.extend(base_cls.bases)
            if found:
                out.append(key)
        return sorted(out)

    # -- edge construction ------------------------------------------------

    def _add_edge(self, caller: FunctionId, callee: Optional[FunctionId]) -> None:
        if callee is None or callee == caller:
            return
        self.edges.setdefault(caller, set()).add(callee)

    def resolve_call(
        self, mod: ModuleFacts, fn: FunctionFacts, written: str
    ) -> Optional[FunctionId]:
        """The function a call written as ``written`` in ``fn`` invokes."""
        head, _, rest = written.partition(".")
        # self.method()
        if head == "self" and "." in fn.qualname and rest:
            class_name = fn.qualname.rsplit(".", 1)[0]
            method = rest.split(".")[0]
            resolved = self.class_method(f"{mod.module}:{class_name}", method)
            if resolved is not None:
                return resolved
            # self.<attr>.method(): typed instance attribute
            if "." in rest:
                attr, _, attr_method = rest.partition(".")
                cls_entry = self.classes.get(f"{mod.module}:{class_name}")
                if cls_entry is not None:
                    attr_type = cls_entry[1].attr_types.get(attr)
                    if attr_type:
                        attr_key = self.resolve_class(mod, attr_type)
                        if attr_key is not None:
                            return self.class_method(attr_key, attr_method.split(".")[0])
            return None
        if not rest:
            # Bare name: local function, from-imported function, or class.
            local = f"{mod.module}:{written}"
            if local in self.functions:
                return local
            target = mod.from_imports.get(written)
            if target is not None:
                owner, _, leaf = target.rpartition(".")
                fid = f"{owner}:{leaf}"
                if fid in self.functions:
                    return fid
                # Re-exported through a package __init__.
                matches = self._functions_by_name.get(leaf, [])
                if len(matches) == 1:
                    return matches[0]
            # Constructor call -> __init__.
            class_key = self.resolve_class(mod, written)
            if class_key is not None:
                return self.class_method(class_key, "__init__")
            return None
        # Dotted: module alias, typed local, or class constructor.
        if head in fn.local_types:
            class_key = self.resolve_class(mod, fn.local_types[head])
            if class_key is not None:
                return self.class_method(class_key, rest.split(".")[0])
            return None
        target_mod = mod.imports.get(head) or (
            mod.from_imports.get(head) if mod.from_imports.get(head, "") in self.modules else None
        )
        if target_mod and target_mod in self.modules:
            leaf = rest.split(".")[0]
            fid = f"{target_mod}:{leaf}"
            if fid in self.functions:
                return fid
            class_key = f"{target_mod}:{leaf}"
            if class_key in self.classes and "." in rest:
                return self.class_method(class_key, rest.split(".")[1])
            if class_key in self.classes:
                return self.class_method(class_key, "__init__")
        # ClassName.method(...) written directly.
        class_key = self.resolve_class(mod, head)
        if class_key is not None:
            return self.class_method(class_key, rest.split(".")[0])
        return None

    def _link(self) -> None:
        for fid, (mod, fn) in self.functions.items():
            for written in fn.calls:
                self._add_edge(fid, self.resolve_call(mod, fn, written))
                # A constructor call also implicitly reaches every method
                # the instance's own __init__ registers; that shows up
                # naturally through __init__'s refs/calls, so no extra
                # edges are needed here.
            for ref in fn.refs:
                self._add_edge(fid, self._resolve_ref(mod, fn, ref))

    def _resolve_ref(
        self, mod: ModuleFacts, fn: FunctionFacts, ref: str
    ) -> Optional[FunctionId]:
        """Resolve a bare function/method *reference* (no call)."""
        if ref.startswith("self."):
            if "." not in fn.qualname:
                return None
            class_name = fn.qualname.rsplit(".", 1)[0]
            return self.class_method(f"{mod.module}:{class_name}", ref[5:].split(".")[0])
        if "." in ref:
            return None  # dotted non-self references resolve via calls
        local = f"{mod.module}:{ref}"
        if local in self.functions:
            return local
        target = mod.from_imports.get(ref)
        if target is not None:
            owner, _, leaf = target.rpartition(".")
            fid = f"{owner}:{leaf}"
            if fid in self.functions:
                return fid
        return None

    # -- reachability -----------------------------------------------------

    def reachable_from(
        self, roots: Sequence[str]
    ) -> Tuple[Set[FunctionId], Dict[FunctionId, Optional[FunctionId]]]:
        """BFS closure over ``roots`` (``module:qualname`` or ``module:*``).

        Returns the reachable set and parent pointers for chain
        reconstruction (roots map to ``None``).
        """
        start: List[FunctionId] = []
        for root in roots:
            module, _, qual = root.partition(":")
            if qual == "*":
                start.extend(
                    fid for fid in self.functions if fid.startswith(module + ":")
                )
            elif f"{module}:{qual}" in self.functions:
                start.append(f"{module}:{qual}")
        parents: Dict[FunctionId, Optional[FunctionId]] = {}
        queue: "deque[FunctionId]" = deque()
        for fid in start:
            if fid not in parents:
                parents[fid] = None
                queue.append(fid)
        while queue:
            fid = queue.popleft()
            for callee in sorted(self.edges.get(fid, ())):
                if callee not in parents:
                    parents[callee] = fid
                    queue.append(callee)
        return set(parents), parents

    @staticmethod
    def chain(
        parents: Mapping[FunctionId, Optional[FunctionId]], fid: FunctionId
    ) -> Tuple[str, ...]:
        """Root-first call chain ending at ``fid``."""
        chain: List[str] = []
        cursor: Optional[FunctionId] = fid
        seen: Set[str] = set()
        while cursor is not None and cursor not in seen:
            seen.add(cursor)
            chain.append(cursor)
            cursor = parents.get(cursor)
        return tuple(reversed(chain))


def build_graph(modules: Iterable[ModuleFacts]) -> ProgramGraph:
    """Index + link every module's facts into a :class:`ProgramGraph`."""
    return ProgramGraph({mod.module: mod for mod in modules})
