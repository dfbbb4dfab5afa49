"""The dprlint rule framework.

dprlint is a self-contained static analyzer (stdlib :mod:`ast` only)
that enforces, at review time, the two properties the reproduction's
correctness rests on but Python does not check:

- the **DPR protocol invariants** (monotonicity, cut closure, world-line
  agreement — §4.3), whose runtime counterpart lives in
  :mod:`repro.core.audit`;
- the **exact reproducibility** of the discrete-event kernel
  (:mod:`repro.sim.kernel` promises bit-identical runs for a fixed seed,
  which a single ``time.time()`` or unsorted-``set`` iteration on a
  protocol path silently breaks).

This module provides the machinery: :class:`Finding`, :class:`ModuleInfo`
(one parsed file with its suppression comments), :class:`Project` (the
whole parsed tree plus shared cross-module analyses), the rule base
classes and registry, and the :func:`run_lint` driver.  The rules
themselves live in :mod:`repro.analysis.rules_determinism`,
:mod:`repro.analysis.rules_protocol` and
:mod:`repro.analysis.rules_hygiene`.

Suppressions
------------

Append ``# dprlint: disable=DPR-D01`` (comma-separate several ids, or
``disable=all``) to the offending line.  A ``# dprlint:
disable-file=DPR-H03`` comment anywhere in a file suppresses the rule
for the whole file.  A baseline file (``--baseline``) suppresses a
recorded set of pre-existing findings; see :func:`load_baseline`.
"""

from __future__ import annotations

import ast
import json
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

#: Module prefixes whose code runs inside (or feeds) the deterministic
#: simulation and the DPR protocol: determinism rules apply here.
PROTOCOL_SCOPE: Tuple[str, ...] = (
    "repro.sim",
    "repro.core",
    "repro.cluster",
    "repro.faster",
    "repro.obs",
)

#: Module prefixes that legitimately measure host wall-clock time (the
#: bench harness reports how long figure generation took).  Monotonic
#: timers are allowed here; calendar time and entropy still are not.
WALL_CLOCK_ALLOWLIST: Tuple[str, ...] = ("repro.bench",)

_SUPPRESS_RE = re.compile(
    r"#\s*dprlint:\s*(disable|disable-file)\s*=\s*([A-Za-z0-9_\-, ]+)"
)


@dataclass(frozen=True)
class Finding:
    """One rule violation at one source location."""

    rule: str
    path: str
    line: int
    col: int
    message: str
    #: Stripped source line, used for baseline fingerprints (stable
    #: across unrelated edits that shift line numbers).
    snippet: str = ""
    #: Interprocedural call chain (DPR-A02): caller -> ... -> source.
    trace: Tuple[str, ...] = ()
    #: Supporting locations as (path, line, label) — e.g. DPR-A01's
    #: snapshot line and preemption point.  Not part of the fingerprint.
    related: Tuple[Tuple[str, int, str], ...] = ()

    def fingerprint(self) -> str:
        return f"{self.rule}::{self.path}::{self.snippet}"

    def to_dict(self) -> Dict[str, object]:
        data: Dict[str, object] = {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
        }
        if self.trace:
            data["trace"] = list(self.trace)
        if self.related:
            data["related"] = [
                {"path": path, "line": line, "label": label}
                for path, line, label in self.related
            ]
        return data

    def render(self) -> str:
        head = (f"{self.path}:{self.line}:{self.col}: "
                f"{self.rule} {self.message}")
        notes = [f"    note: {path}:{line}: {label}"
                 for path, line, label in self.related]
        return "\n".join([head] + notes)


class ModuleInfo:
    """One parsed source file plus its dprlint suppression comments."""

    def __init__(self, path: str, module: str, tree: ast.Module, source: str):
        self.path = path
        self.module = module
        self.tree = tree
        self.lines = source.splitlines()
        self._imports: Optional[Dict[str, str]] = None
        self.line_suppressions: Dict[int, Set[str]] = {}
        self.file_suppressions: Set[str] = set()
        for lineno, text in enumerate(self.lines, start=1):
            match = _SUPPRESS_RE.search(text)
            if match is None:
                continue
            rules = {part.strip() for part in match.group(2).split(",")
                     if part.strip()}
            if match.group(1) == "disable-file":
                self.file_suppressions |= rules
            else:
                self.line_suppressions.setdefault(lineno, set()).update(rules)

    def suppresses(self, finding: Finding) -> bool:
        on_line = self.line_suppressions.get(finding.line, set())
        for spec in (on_line, self.file_suppressions):
            if "all" in spec or finding.rule in spec:
                return True
        return False

    def snippet_at(self, line: int) -> str:
        if 0 < line <= len(self.lines):
            return self.lines[line - 1].strip()
        return ""

    def finding(self, rule: "Rule", node: ast.AST, message: str) -> Finding:
        line = getattr(node, "lineno", 0)
        col = getattr(node, "col_offset", 0)
        return Finding(rule=rule.id, path=self.path, line=line, col=col,
                       message=message, snippet=self.snippet_at(line))

    # -- import resolution -------------------------------------------------

    def import_map(self) -> Dict[str, str]:
        """Local name -> dotted origin, for resolving call targets.

        ``import time`` maps ``time -> time``; ``from time import
        perf_counter`` maps ``perf_counter -> time.perf_counter``;
        ``import numpy as np`` maps ``np -> numpy``.  Relative imports
        resolve against this module's package.  Built once per module;
        callers share the result and must not mutate it.
        """
        if self._imports is not None:
            return self._imports
        mapping: Dict[str, str] = {}
        package_parts = self.module.split(".")[:-1]
        for node in ast.walk(self.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.asname:
                        mapping[alias.asname] = alias.name
                    else:
                        root = alias.name.split(".")[0]
                        mapping[root] = root
            elif isinstance(node, ast.ImportFrom):
                if node.level:
                    base_parts = package_parts[: len(package_parts)
                                               - (node.level - 1)]
                    base = ".".join(base_parts)
                    origin = f"{base}.{node.module}" if node.module else base
                else:
                    origin = node.module or ""
                for alias in node.names:
                    local = alias.asname or alias.name
                    mapping[local] = (f"{origin}.{alias.name}"
                                      if origin else alias.name)
        self._imports = mapping
        return mapping


def dotted_name(node: ast.AST) -> Optional[str]:
    """``a.b.c`` for an Attribute/Name chain, else None."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def resolve_name(node: ast.AST, imports: Dict[str, str]) -> Optional[str]:
    """Resolve a Name/Attribute chain through the module's imports.

    ``datetime.now()`` after ``from datetime import datetime`` resolves
    to ``datetime.datetime.now``.
    """
    chain = dotted_name(node)
    if chain is None:
        return None
    head, _, rest = chain.partition(".")
    origin = imports.get(head, head)
    return f"{origin}.{rest}" if rest else origin


class Project:
    """Every parsed module, indexed by dotted name."""

    def __init__(self, modules: Sequence[ModuleInfo]):
        self.modules = list(modules)
        self.by_name: Dict[str, ModuleInfo] = {m.module: m for m in modules}
        self.by_path: Dict[str, ModuleInfo] = {m.path: m for m in modules}

    def get(self, module: str) -> Optional[ModuleInfo]:
        return self.by_name.get(module)

    def in_scope(self, prefixes: Tuple[str, ...]) -> Iterator[ModuleInfo]:
        for info in self.modules:
            if module_in_scope(info.module, prefixes):
                yield info


def module_in_scope(module: str, prefixes: Tuple[str, ...]) -> bool:
    if not prefixes:
        return True
    return any(module == p or module.startswith(p + ".") for p in prefixes)


# -- rule base classes and registry ------------------------------------------


class Rule:
    """Base class: an id, a one-line title, and a module scope."""

    id: str = ""
    title: str = ""
    #: Module-name prefixes the rule applies to; empty = everywhere.
    scope: Tuple[str, ...] = ()
    #: Severity tier: "error" (protocol/determinism correctness) or
    #: "warning" (hygiene).  Maps onto the SARIF level of the same name
    #: and is shown by ``--list-rules``; any finding still fails the
    #: run regardless of tier.
    severity: str = "error"

    def applies_to(self, module: str) -> bool:
        return module_in_scope(module, self.scope)


class ModuleRule(Rule):
    """A rule checked one file at a time."""

    def check_module(self, module: ModuleInfo,
                     project: Project) -> Iterator[Finding]:
        raise NotImplementedError


class ProjectRule(Rule):
    """A rule needing a cross-module view (exhaustiveness, layering)."""

    def check_project(self, project: Project) -> Iterator[Finding]:
        raise NotImplementedError


_REGISTRY: Dict[str, Rule] = {}


def register(rule_cls):
    """Class decorator adding a rule to the global registry."""
    instance = rule_cls()
    if not instance.id:
        raise ValueError(f"rule {rule_cls.__name__} has no id")
    if instance.id in _REGISTRY:
        raise ValueError(f"duplicate rule id {instance.id}")
    _REGISTRY[instance.id] = instance
    return rule_cls


def all_rules() -> List[Rule]:
    """The registered rules, importing the rule modules on first use."""
    # Imported here (not at module top) so framework <-> rules stay
    # cycle-free; registration happens as a side effect of the import.
    from repro.analysis import (  # noqa: F401
        rules_concurrency,
        rules_determinism,
        rules_hygiene,
        rules_observability,
        rules_protocol,
    )

    return sorted(_REGISTRY.values(), key=lambda rule: rule.id)


# -- file collection and parsing ---------------------------------------------


def iter_python_files(paths: Sequence[str]) -> Iterator[Path]:
    seen: Set[Path] = set()
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            candidates: Iterable[Path] = sorted(path.rglob("*.py"))
        else:
            candidates = [path]
        for candidate in candidates:
            resolved = candidate.resolve()
            if resolved not in seen:
                seen.add(resolved)
                yield candidate


def module_name_for(path: Path) -> str:
    """Dotted module name, found by climbing the ``__init__.py`` chain."""
    parts = [path.stem] if path.stem != "__init__" else []
    parent = path.resolve().parent
    while (parent / "__init__.py").exists():
        parts.append(parent.name)
        parent = parent.parent
    if not parts:
        parts = [path.stem]
    return ".".join(reversed(parts))


def load_project(paths: Sequence[str]) -> Tuple[Project, List[Finding]]:
    """Parse every file under ``paths``; syntax errors become findings."""
    modules: List[ModuleInfo] = []
    errors: List[Finding] = []
    for path in iter_python_files(paths):
        try:
            source = path.read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as exc:
            errors.append(Finding(rule="DPR-E01", path=str(path), line=0,
                                  col=0, message=f"unreadable file: {exc}"))
            continue
        try:
            tree = ast.parse(source, filename=str(path))
        except SyntaxError as exc:
            errors.append(Finding(
                rule="DPR-E01", path=str(path), line=exc.lineno or 0,
                col=exc.offset or 0, message=f"syntax error: {exc.msg}",
            ))
            continue
        modules.append(ModuleInfo(str(path), module_name_for(path),
                                  tree, source))
    return Project(modules), errors


# -- baseline ----------------------------------------------------------------


def load_baseline(path: str) -> Set[str]:
    """A baseline is a JSON list of finding fingerprints to ignore."""
    data = json.loads(Path(path).read_text(encoding="utf-8"))
    if not isinstance(data, list):
        raise ValueError("baseline must be a JSON list of fingerprints")
    return {str(entry) for entry in data}


def write_baseline(path: str, findings: Sequence[Finding]) -> None:
    fingerprints = sorted({f.fingerprint() for f in findings})
    Path(path).write_text(json.dumps(fingerprints, indent=2) + "\n",
                          encoding="utf-8")


# -- driver ------------------------------------------------------------------


def run_lint(
    paths: Sequence[str],
    select: Optional[Iterable[str]] = None,
    ignore: Optional[Iterable[str]] = None,
    baseline: Optional[Set[str]] = None,
) -> List[Finding]:
    """Lint ``paths`` and return the surviving findings, sorted."""
    selected = set(select) if select else None
    ignored = set(ignore) if ignore else set()
    rules = [
        rule for rule in all_rules()
        if (selected is None or rule.id in selected)
        and rule.id not in ignored
    ]
    project, findings = load_project(paths)
    for rule in rules:
        if isinstance(rule, ProjectRule):
            findings.extend(rule.check_project(project))
        elif isinstance(rule, ModuleRule):
            for module in project.modules:
                if rule.applies_to(module.module):
                    findings.extend(rule.check_module(module, project))
    kept: List[Finding] = []
    for finding in findings:
        info = project.by_path.get(finding.path)
        if info is not None and info.suppresses(finding):
            continue
        if baseline and finding.fingerprint() in baseline:
            continue
        kept.append(finding)
    kept.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
    return kept
