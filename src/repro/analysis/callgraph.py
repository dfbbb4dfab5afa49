"""A project-wide call-graph model for interprocedural rules.

Nodes are functions and methods, named ``module.func`` or
``module.Class.method``.  Edges are resolved statically, best-effort,
in decreasing order of confidence:

1. **Direct names** — ``helper()`` resolves to a function defined in
   the same module, else through the module's import map to a function
   or class defined elsewhere in the project.
2. **Self/cls calls** — ``self.m()`` resolves to ``m`` on the lexically
   enclosing class or, walking project-resolved base classes, on an
   ancestor.
3. **Dotted names** — ``mod.func()`` / ``Class.method()`` resolve
   through the import map against the project's definition index.
4. **Unique-attribute heuristic** — ``obj.m()`` with an unresolvable
   receiver resolves iff exactly one project function is named ``m``
   and ``m`` is not a ubiquitous container-protocol name.  This is the
   one deliberately unsound step (a duck-typed ``obj.m()`` may hit a
   different ``m`` at runtime); DPR-A02's docs list it as a false-
   positive source, and suppressions at the call site are the remedy.

The graph is deliberately call-site-preserving: ``callers``/``callees``
give qualname adjacency for fixpoints, while :class:`CallSite` keeps
the AST node so rules can attach findings to the exact call expression.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Set, Tuple

from repro.analysis.framework import ModuleInfo, Project, dotted_name

#: Attribute names too generic for the unique-name fallback: container
#: and messaging verbs that appear on dicts, queues, files and sockets
#: alike.  Resolving ``anything.get()`` to the one project ``get`` would
#: manufacture edges out of thin air.
UBIQUITOUS_ATTRS = frozenset({
    "get", "put", "pop", "add", "append", "extend", "remove", "discard",
    "clear", "copy", "update", "items", "keys", "values", "setdefault",
    "send", "close", "read", "write", "open", "join", "split", "strip",
    "encode", "decode", "sort", "index", "count", "insert", "register",
    "succeed", "run", "process", "start", "stop",
})


class CallSite:
    """One call expression inside a function body."""

    __slots__ = ("node", "callee")

    def __init__(self, node: ast.Call, callee: str):
        self.node = node
        self.callee = callee


class FunctionInfo:
    """One function or method definition in the project."""

    __slots__ = ("qualname", "module", "class_name", "node", "calls")

    def __init__(self, qualname: str, module: ModuleInfo,
                 class_name: Optional[str], node: ast.AST):
        self.qualname = qualname
        self.module = module
        self.class_name = class_name
        self.node = node
        self.calls: List[CallSite] = []


class CallGraph:
    """Definition index + resolved call edges over a :class:`Project`."""

    def __init__(self, project: Project):
        self.project = project
        #: qualname -> FunctionInfo
        self.functions: Dict[str, FunctionInfo] = {}
        #: bare name -> sorted qualnames defining it (for the heuristic).
        self._by_name: Dict[str, List[str]] = {}
        #: module.Class -> resolved base qualnames (module.Class).
        self._bases: Dict[str, List[str]] = {}
        #: module.Class -> {method name -> qualname}
        self._methods: Dict[str, Dict[str, str]] = {}
        self._collect_definitions()
        self._resolve_calls()

    # -- construction ------------------------------------------------------

    def _collect_definitions(self) -> None:
        for module in self.project.modules:
            imports = module.import_map()
            for stmt in module.tree.body:
                if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    self._add_function(module, None, stmt)
                elif isinstance(stmt, ast.ClassDef):
                    class_qual = f"{module.module}.{stmt.name}"
                    bases: List[str] = []
                    for base in stmt.bases:
                        resolved = self._resolve_dotted(base, module, imports)
                        if resolved:
                            bases.append(resolved)
                    self._bases[class_qual] = bases
                    table = self._methods.setdefault(class_qual, {})
                    for item in stmt.body:
                        if isinstance(item, (ast.FunctionDef,
                                             ast.AsyncFunctionDef)):
                            info = self._add_function(module, stmt.name, item)
                            table[item.name] = info.qualname

    def _add_function(self, module: ModuleInfo, class_name: Optional[str],
                      node: ast.AST) -> FunctionInfo:
        name = node.name  # type: ignore[attr-defined]
        if class_name:
            qualname = f"{module.module}.{class_name}.{name}"
        else:
            qualname = f"{module.module}.{name}"
        info = FunctionInfo(qualname, module, class_name, node)
        self.functions[qualname] = info
        self._by_name.setdefault(name, []).append(qualname)
        return info

    def _resolve_dotted(self, node: ast.AST, module: ModuleInfo,
                        imports: Dict[str, str]) -> Optional[str]:
        """Resolve a Name/Attribute chain to a project class qualname."""
        chain = dotted_name(node)
        if chain is None:
            return None
        head, _, rest = chain.partition(".")
        origin = imports.get(head)
        if origin is None:
            # A class defined in this module.
            candidate = f"{module.module}.{chain}"
            return candidate
        resolved = f"{origin}.{rest}" if rest else origin
        return resolved

    def _resolve_calls(self) -> None:
        for qualname in sorted(self.functions):
            info = self.functions[qualname]
            imports = info.module.import_map()
            own_defs = {
                f.split(".")[-1]
                for f in self.functions
                if self.functions[f].module is info.module
                and self.functions[f].class_name is None
            }
            for node in ast.walk(info.node):
                if not isinstance(node, ast.Call):
                    continue
                callee = self._resolve_call(node, info, imports, own_defs)
                if callee is not None and callee in self.functions:
                    info.calls.append(CallSite(node, callee))

    def _resolve_call(self, node: ast.Call, info: FunctionInfo,
                      imports: Dict[str, str],
                      own_defs: Set[str]) -> Optional[str]:
        func = node.func
        module = info.module
        if isinstance(func, ast.Name):
            if func.id in own_defs:
                return f"{module.module}.{func.id}"
            origin = imports.get(func.id)
            if origin is not None:
                return self._match_qualname(origin)
            return None
        if isinstance(func, ast.Attribute):
            receiver = func.value
            method = func.attr
            if isinstance(receiver, ast.Name) and receiver.id in ("self",
                                                                  "cls"):
                if info.class_name is not None:
                    class_qual = f"{module.module}.{info.class_name}"
                    found = self._lookup_method(class_qual, method)
                    if found is not None:
                        return found
                return self._unique_by_name(method)
            resolved = self._resolve_attr_chain(func, module, imports)
            if resolved is not None:
                return resolved
            return self._unique_by_name(method)
        return None

    def _resolve_attr_chain(self, func: ast.Attribute, module: ModuleInfo,
                            imports: Dict[str, str]) -> Optional[str]:
        chain = dotted_name(func)
        if chain is None:
            return None
        head, _, rest = chain.partition(".")
        if not rest:
            return None
        origin = imports.get(head)
        if origin is None:
            # ``LocalClass.method(...)`` on a class in this module.
            origin = f"{module.module}.{head}"
            candidate = f"{origin}.{rest}"
            return self._match_qualname(candidate)
        return self._match_qualname(f"{origin}.{rest}")

    def _match_qualname(self, dotted: str) -> Optional[str]:
        """A dotted path to a known function, walking method tables.

        Tries the literal qualname first, then ``Class.method`` lookups
        through resolved base classes.
        """
        if dotted in self.functions:
            return dotted
        head, _, method = dotted.rpartition(".")
        if head in self._methods:
            return self._lookup_method(head, method)
        return None

    def _lookup_method(self, class_qual: str, method: str,
                       _seen: Optional[Set[str]] = None) -> Optional[str]:
        seen = _seen if _seen is not None else set()
        if class_qual in seen:
            return None
        seen.add(class_qual)
        table = self._methods.get(class_qual)
        if table is not None and method in table:
            return table[method]
        for base in self._bases.get(class_qual, ()):
            found = self._lookup_method(base, method, seen)
            if found is not None:
                return found
        return None

    def _unique_by_name(self, name: str) -> Optional[str]:
        if name in UBIQUITOUS_ATTRS or name.startswith("__"):
            return None
        candidates = self._by_name.get(name, ())
        if len(candidates) == 1:
            return candidates[0]
        return None

    # -- queries -----------------------------------------------------------

    def callees(self, qualname: str) -> Iterator[str]:
        info = self.functions.get(qualname)
        if info is not None:
            for site in info.calls:
                yield site.callee

    def reverse_edges(self) -> Dict[str, List[str]]:
        """callee qualname -> sorted caller qualnames."""
        reverse: Dict[str, Set[str]] = {}
        for qualname in sorted(self.functions):
            for callee in self.callees(qualname):
                reverse.setdefault(callee, set()).add(qualname)
        return {k: sorted(v) for k, v in reverse.items()}

