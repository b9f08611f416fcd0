"""Whole-program model for the cross-module flow rules.

The single-file rules (G2G001–G2G007) see one AST at a time; the flow
rules (G2G008–G2G013, :mod:`repro.analysis.flow_rules`) reason about
the program: a seeded-RNG leak *through* a call chain, a counter
declared in one module and incremented in another, an import edge that
violates layering.  This module gives them a shared
:class:`ProjectModel`:

* **Module facts.** :func:`module_facts` distills one parsed module
  into a plain-dict summary — resolved imports (relative imports
  included, unlike the single-file ``imported_origins`` helper),
  per-function call and nondeterminism-sink lists, class field/method
  tables, ``COUNTERS`` increments, event-time expression sites.
* **Project indexes.** :class:`ProjectModel` wires the facts together:
  module lookup by dotted name, a conservative intra-project call
  graph (resolved imports + same-module calls + ``self.`` methods;
  anything unresolvable is simply absent, never guessed), and pragma
  suppression lookup so ``# g2g: allow(G2G008: ...)`` works for flow
  rules exactly as it does for single-file rules.
* **Rule registry.** :class:`ProjectRule` subclasses register into
  :data:`PROJECT_RULE_REGISTRY` via :func:`register_project_rule`;
  :func:`check_project` is the project-mode counterpart of
  ``check_module``.
"""

from __future__ import annotations

import ast
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple, Type

from .framework import (
    LintModule,
    Rule,
    Violation,
    _RULE_ID,
    dotted_name,
)
from .rules import GLOBAL_RNG_FUNCS, WALL_CLOCK_CALLS

#: Registered whole-program rules, keyed by rule id (``G2G008`` …).
PROJECT_RULE_REGISTRY: Dict[str, Type["ProjectRule"]] = {}

#: Call targets treated as nondeterminism *sinks* for taint analysis:
#: a function whose body reaches one of these (directly or through the
#: call graph) cannot replay bit-identically.  Besides this prefix, the
#: sinks are the G2G001 / G2G002 target sets (``GLOBAL_RNG_FUNCS``,
#: ``WALL_CLOCK_CALLS``), but applied everywhere — exempt packages like
#: ``perf/`` still *source* taint even though the single-file rules
#: stay quiet there.
SINK_PREFIXES = ("secrets.",)

#: Names whose ``.time`` attribute marks an event/timer object in the
#: scheduler-discipline rule (a syntactic tripwire, like G2G003).
_EVENT_LIKE_NAMES = ("event", "timer", "handle", "transition")

#: Event/timer classes whose direct construction outside the scheduler
#: and its sanctioned consumers bypasses ``Scheduler.schedule``.
_EVENT_CLASS_SUFFIXES = ("events.Event", "events.TimerHandle")


def module_dotted_name(rel: str) -> str:
    """Dotted module path for a package-relative file path.

    ``"sim/node.py"`` -> ``"repro.sim.node"``; ``"sim/__init__.py"``
    -> ``"repro.sim"``; ``"api.py"`` -> ``"repro.api"``.
    """
    parts = rel.split("/")
    if parts[-1] == "__init__.py":
        parts = parts[:-1]
    else:
        parts[-1] = parts[-1][:-3] if parts[-1].endswith(".py") else parts[-1]
    return ".".join(["repro"] + [p for p in parts if p])


def _package_parts(rel: str, dotted: str) -> List[str]:
    """The package a relative import resolves against, as parts."""
    if rel.endswith("__init__.py"):
        return dotted.split(".")
    return dotted.split(".")[:-1]


def resolve_imports(
    tree: ast.Module, rel: str
) -> Tuple[List[Tuple[str, int]], Dict[str, str]]:
    """Resolved import edges and name bindings for one module.

    Returns ``(edges, names)`` where ``edges`` is a list of
    ``(dotted_target, lineno)`` pairs (module-level targets; for
    ``from X import y`` both ``X`` and the candidate submodule ``X.y``
    are recorded, since the AST cannot tell a submodule from a name)
    and ``names`` maps local names to their dotted origins — the
    project-aware, relative-import-capable counterpart of the
    single-file ``imported_origins`` helper.
    """
    dotted = module_dotted_name(rel)
    edges: List[Tuple[str, int]] = []
    names: Dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                edges.append((alias.name, node.lineno))
                local = alias.asname or alias.name.split(".", 1)[0]
                names[local] = alias.name if alias.asname else local
        elif isinstance(node, ast.ImportFrom):
            if node.level:
                base = _package_parts(rel, dotted)
                cut = len(base) - (node.level - 1)
                if cut < 0:
                    continue  # beyond the project root; unresolvable
                base = base[:cut]
                target_parts = base + (
                    node.module.split(".") if node.module else []
                )
                target = ".".join(target_parts)
            else:
                if node.module is None:
                    continue
                target = node.module
            edges.append((target, node.lineno))
            for alias in node.names:
                if alias.name == "*":
                    continue
                edges.append((f"{target}.{alias.name}", node.lineno))
                names[alias.asname or alias.name] = f"{target}.{alias.name}"
    return edges, names


def _resolve(node: ast.AST, names: Dict[str, str]) -> Optional[str]:
    """Fully qualified dotted name of a reference, via ``names``."""
    name = dotted_name(node)
    if name is None:
        return None
    head, _, tail = name.partition(".")
    origin = names.get(head)
    if origin is None:
        return None
    return f"{origin}.{tail}" if tail else origin


def _sink_target(call: ast.Call, names: Dict[str, str]) -> Optional[str]:
    """Nondeterminism-sink description for a call, or None."""
    target = _resolve(call.func, names)
    if target is None:
        return None
    if target in WALL_CLOCK_CALLS:
        return target
    if any(target.startswith(prefix) for prefix in SINK_PREFIXES):
        return target
    if target.startswith("random."):
        func = target[len("random."):]
        if func in GLOBAL_RNG_FUNCS or func == "SystemRandom":
            return target
        if func == "Random" and not call.args and not call.keywords:
            return "random.Random() [unseeded]"
    return None


def _param_names(node: ast.AST) -> List[str]:
    args = node.args  # type: ignore[attr-defined]
    params = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]
    if args.vararg is not None:
        params.append(args.vararg.arg)
    if args.kwarg is not None:
        params.append(args.kwarg.arg)
    return params


def _literal_str_tuple(node: ast.AST) -> Optional[List[str]]:
    """The value of a tuple/list-of-strings literal, or None."""
    if not isinstance(node, (ast.Tuple, ast.List)):
        return None
    values = []
    for elt in node.elts:
        if not (isinstance(elt, ast.Constant) and isinstance(elt.value, str)):
            return None
        values.append(elt.value)
    return values


def _counter_decls(tree: ast.Module) -> Optional[Dict[str, Any]]:
    """FIELDS / HOT_MODULE_COUNTERS literals, if this module declares them."""
    decls: Dict[str, Any] = {}
    for node in tree.body:
        targets: List[ast.expr] = []
        value: Optional[ast.expr] = None
        if isinstance(node, ast.Assign):
            targets, value = node.targets, node.value
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            targets, value = [node.target], node.value
        for target in targets:
            if not isinstance(target, ast.Name):
                continue
            if target.id == "FIELDS":
                fields = _literal_str_tuple(value)
                if fields is not None:
                    decls["fields"] = fields
                    decls["fields_line"] = node.lineno
            elif target.id == "HOT_MODULE_COUNTERS":
                if not isinstance(value, ast.Dict):
                    continue
                hot: Dict[str, List[str]] = {}
                ok = True
                for key, val in zip(value.keys, value.values):
                    if not (
                        isinstance(key, ast.Constant)
                        and isinstance(key.value, str)
                    ):
                        ok = False
                        break
                    names = _literal_str_tuple(val)
                    if names is None:
                        ok = False
                        break
                    hot[key.value] = names
                if ok:
                    decls["hot_map"] = hot
                    decls["hot_line"] = node.lineno
    return decls or None


def _is_event_like(node: ast.AST) -> bool:
    if isinstance(node, ast.Attribute) and node.attr == "time":
        base = node.value
        if isinstance(base, ast.Name):
            lowered = base.id.lower()
            return any(mark in lowered for mark in _EVENT_LIKE_NAMES)
    return False


class _FactsVisitor(ast.NodeVisitor):
    """One-pass extraction of the function/class tables for facts."""

    def __init__(self, names: Dict[str, str], module_dotted: str) -> None:
        self.names = names
        self.module = module_dotted
        self.functions: Dict[str, Dict[str, Any]] = {}
        self.classes: Dict[str, Dict[str, Any]] = {}
        self.top_level_functions: List[str] = []
        self._func_stack: List[str] = []
        self._class_stack: List[str] = []

    # -- structure ------------------------------------------------------

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        if not self._class_stack and not self._func_stack:
            entry: Dict[str, Any] = {
                "line": node.lineno,
                "fields": [],
                "methods": {},
            }
            for child in node.body:
                if isinstance(child, ast.AnnAssign) and isinstance(
                    child.target, ast.Name
                ):
                    entry["fields"].append(
                        [child.target.id, child.lineno]
                    )
            self.classes[node.name] = entry
        self._class_stack.append(node.name)
        self.generic_visit(node)
        self._class_stack.pop()

    def _visit_function(self, node: Any) -> None:
        qual = ".".join(
            self._class_stack + self._func_stack + [node.name]
        )
        entry = {
            "line": node.lineno,
            "params": _param_names(node),
            "calls": [],
            "self_refs": [],
            "sinks": [],
        }
        self.functions[qual] = entry
        if not self._class_stack and not self._func_stack:
            self.top_level_functions.append(node.name)
        if len(self._class_stack) == 1 and not self._func_stack:
            self.classes[self._class_stack[0]]["methods"][node.name] = {
                "line": node.lineno,
            }
        self._func_stack.append(node.name)
        self.generic_visit(node)
        self._func_stack.pop()

    visit_FunctionDef = _visit_function
    visit_AsyncFunctionDef = _visit_function

    # -- references -----------------------------------------------------

    def _current(self) -> Optional[Dict[str, Any]]:
        if not self._func_stack:
            return None
        qual = ".".join(self._class_stack + self._func_stack)
        return self.functions.get(qual)

    def visit_Call(self, node: ast.Call) -> None:
        entry = self._current()
        if entry is not None:
            sink = _sink_target(node, self.names)
            if sink is not None:
                entry["sinks"].append([sink, node.lineno])
            resolved = _resolve(node.func, self.names)
            if resolved is not None:
                entry["calls"].append(resolved)
            elif isinstance(node.func, ast.Name):
                # A bare local name: a same-module function, or a
                # builtin (harmless — it resolves to nothing later).
                entry["calls"].append(f"{self.module}.{node.func.id}")
            elif (
                isinstance(node.func, ast.Attribute)
                and isinstance(node.func.value, ast.Name)
                and node.func.value.id == "self"
            ):
                entry["calls"].append(f"self.{node.func.attr}")
        self.generic_visit(node)

    def visit_Attribute(self, node: ast.Attribute) -> None:
        entry = self._current()
        if (
            entry is not None
            and isinstance(node.value, ast.Name)
            and node.value.id == "self"
        ):
            entry["self_refs"].append(node.attr)
        self.generic_visit(node)


def module_facts(module: LintModule) -> Optional[Dict[str, Any]]:
    """Distill one parsed module into its JSON-serializable facts.

    Returns None for files outside a ``repro`` package root — the flow
    rules scope on package-relative paths, so such files contribute
    nothing to the project model.
    """
    if module.rel is None:
        return None
    dotted = module_dotted_name(module.rel)
    edges, names = resolve_imports(module.tree, module.rel)
    visitor = _FactsVisitor(names, dotted)
    visitor.visit(module.tree)

    counters: Dict[str, int] = {}
    event_time_ops: List[List[Any]] = []
    event_constructions: List[List[Any]] = []
    contacts_reads: List[List[int]] = []
    for node in ast.walk(module.tree):
        if isinstance(node, ast.Attribute) and node.attr == "contacts":
            contacts_reads.append([node.lineno, node.col_offset])
        if isinstance(node, ast.AugAssign):
            target = node.target
            if (
                isinstance(target, ast.Attribute)
                and isinstance(target.value, ast.Name)
                and target.value.id == "COUNTERS"
            ):
                counters.setdefault(target.attr, target.lineno)
        elif isinstance(node, (ast.BinOp, ast.Compare)):
            operands: List[ast.AST] = []
            if isinstance(node, ast.BinOp):
                operands = [node.left, node.right]
            else:
                operands = [node.left, *node.comparators]
            for operand in operands:
                if _is_event_like(operand):
                    event_time_ops.append(
                        [node.lineno, node.col_offset, ast.unparse(operand)]
                    )
                    break
        elif isinstance(node, ast.Call):
            resolved = _resolve(node.func, names)
            if resolved is not None and any(
                resolved.endswith(suffix)
                for suffix in _EVENT_CLASS_SUFFIXES
            ):
                event_constructions.append(
                    [node.lineno, node.col_offset, resolved.rsplit(".", 1)[-1]]
                )

    public_defs: List[List[Any]] = []
    dunder_all: Optional[List[str]] = None
    for node in module.tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            if not node.name.startswith("_"):
                public_defs.append([node.name, node.lineno])
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = (
                node.targets if isinstance(node, ast.Assign) else [node.target]
            )
            for target in targets:
                if not isinstance(target, ast.Name):
                    continue
                if target.id == "__all__":
                    value = node.value
                    if value is not None:
                        dunder_all = _literal_str_tuple(value)
                elif not target.id.startswith("_"):
                    public_defs.append([target.id, node.lineno])

    return {
        "rel": module.rel,
        "path": module.path,
        "module": dotted,
        "package": module.package,
        "suppressions": {
            str(line): sorted(rules)
            for line, rules in module.suppressions.items()
        },
        "imports": edges,
        "import_names": names,
        "dunder_all": dunder_all,
        "public_defs": public_defs,
        "functions": visitor.functions,
        "top_level_functions": visitor.top_level_functions,
        "classes": visitor.classes,
        "counters": counters,
        "counter_decls": _counter_decls(module.tree),
        "event_time_ops": event_time_ops,
        "event_constructions": event_constructions,
        "contacts_reads": contacts_reads,
    }


class ProjectModel:
    """Facts for every module of one lint invocation, indexed.

    Args:
        facts: per-module facts dicts (see :func:`module_facts`).  The
            first module seen for a given package-relative path wins;
            later duplicates (two source trees linted at once) are
            ignored for indexing but still checked by single-file
            rules upstream.
    """

    def __init__(self, facts: Sequence[Dict[str, Any]]) -> None:
        self.modules: List[Dict[str, Any]] = list(facts)
        self.by_rel: Dict[str, Dict[str, Any]] = {}
        self.by_module: Dict[str, Dict[str, Any]] = {}
        self.by_path: Dict[str, Dict[str, Any]] = {}
        for entry in self.modules:
            self.by_rel.setdefault(entry["rel"], entry)
            self.by_module.setdefault(entry["module"], entry)
            self.by_path[entry["path"]] = entry

    @classmethod
    def from_sources(
        cls, sources: Sequence[Tuple[str, str]]
    ) -> "ProjectModel":
        """Build a model from ``(path, source)`` pairs (test helper)."""
        facts = []
        for path, source in sources:
            fact = module_facts(LintModule.from_source(source, path))
            if fact is not None:
                facts.append(fact)
        return cls(facts)

    # -- call graph -----------------------------------------------------

    def resolve_callee(
        self, caller_entry: Dict[str, Any], caller_qual: str, target: str
    ) -> Optional[Tuple[str, str]]:
        """Map one recorded call target onto a project function node.

        Resolution is conservative: ``self.m`` resolves within the
        caller's own class, dotted targets resolve through the module
        index (both ``pkg.mod.func`` and ``pkg.mod.Class.method``
        shapes); anything else is None.
        """
        if target.startswith("self."):
            method = target[len("self."):]
            if "." in caller_qual:
                cls_name = caller_qual.split(".", 1)[0]
                qual = f"{cls_name}.{method}"
                if qual in caller_entry["functions"]:
                    return (caller_entry["rel"], qual)
            return None
        module_part, _, func = target.rpartition(".")
        if not module_part:
            return None
        entry = self.by_module.get(module_part)
        if entry is not None and func in entry["functions"]:
            return (entry["rel"], func)
        # pkg.mod.Class.method
        mod_part, _, cls_name = module_part.rpartition(".")
        if mod_part:
            entry = self.by_module.get(mod_part)
            if entry is not None:
                qual = f"{cls_name}.{func}"
                if qual in entry["functions"]:
                    return (entry["rel"], qual)
        return None

    def suppressed(self, violation: Violation) -> bool:
        """Pragma lookup for project-rule violations."""
        entry = self.by_path.get(violation.path)
        if entry is None:
            return False
        table = entry["suppressions"]
        for lineno in (violation.line, violation.line - 1):
            if violation.rule_id in table.get(str(lineno), ()):
                return True
        return False


class ProjectRule(Rule):
    """Base class for whole-program rules.

    Like :class:`~repro.analysis.framework.Rule`, but ``check``
    receives the :class:`ProjectModel` instead of a single module.
    """

    def check(self, project: ProjectModel) -> Iterator[Violation]:  # type: ignore[override]
        raise NotImplementedError

    def flag(
        self,
        entry: Dict[str, Any],
        line: int,
        message: str,
        column: int = 1,
    ) -> Violation:
        """A :class:`Violation` at an explicit location in ``entry``."""
        return Violation(
            rule_id=self.rule_id,
            path=entry["path"],
            line=line,
            column=column,
            message=message,
        )


def register_project_rule(cls: Type[ProjectRule]) -> Type[ProjectRule]:
    """Class decorator adding a rule to :data:`PROJECT_RULE_REGISTRY`."""
    if not cls.rule_id or not _RULE_ID.fullmatch(cls.rule_id):
        raise ValueError(f"rule id must match G2GNNN, got {cls.rule_id!r}")
    if cls.rule_id in PROJECT_RULE_REGISTRY:
        raise ValueError(f"duplicate project rule id {cls.rule_id}")
    PROJECT_RULE_REGISTRY[cls.rule_id] = cls
    return cls


def check_project(
    project: ProjectModel,
    rule_ids: Optional[Sequence[str]] = None,
) -> List[Violation]:
    """Run (selected) project rules over one model.

    Pragma-suppressed violations are dropped; the rest come back
    sorted by file, location, then rule id.
    """
    if rule_ids is None:
        selected = sorted(PROJECT_RULE_REGISTRY)
    else:
        selected = sorted(
            r for r in rule_ids if r in PROJECT_RULE_REGISTRY
        )
    found: List[Violation] = []
    for rule_id in selected:
        for violation in PROJECT_RULE_REGISTRY[rule_id]().check(project):
            if not project.suppressed(violation):
                found.append(violation)
    found.sort(key=lambda v: (v.path, v.line, v.column, v.rule_id))
    return found
