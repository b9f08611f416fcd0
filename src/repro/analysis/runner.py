"""Lint runner: discovery, per-file rules, project analysis.

:func:`lint_tree` is what ``repro lint`` calls:

* **Robust diagnostics.**  A file that does not parse is reported as a
  normal ``E999`` diagnostic (``path:line:col: E999 ...``) instead of
  crashing the batch — a syntax error in one file must not hide
  findings in the rest, and must itself fail the lint.
* **Project mode.**  ``project=True`` assembles the per-file facts
  into a :class:`~repro.analysis.project.ProjectModel` and runs the
  whole-program rules G2G008–G2G013 on it.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple, Union

from .framework import (
    RULE_REGISTRY,
    LintModule,
    Violation,
    check_module,
)
from .project import (
    PROJECT_RULE_REGISTRY,
    ProjectModel,
    check_project,
    module_facts,
)

PathLike = Union[str, Path]

#: Directory names never descended into during discovery.
SKIP_DIRS = frozenset({"__pycache__", ".git", ".hypothesis", ".pytest_cache"})

#: Diagnostic id for unparseable files (pycodestyle's historical id for
#: syntax errors, which editors and CI annotators already understand).
SYNTAX_ERROR_ID = "E999"


def iter_python_files(paths: Iterable[PathLike]) -> List[Path]:
    """Expand files/directories to a sorted, de-duplicated file list."""
    found = set()
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            for candidate in path.rglob("*.py"):
                if not SKIP_DIRS.intersection(candidate.parts):
                    found.add(candidate)
        elif path.suffix == ".py":
            found.add(path)
        elif not path.exists():
            raise FileNotFoundError(f"no such file or directory: {raw}")
    return sorted(found)


def _syntax_violation(path: str, exc: Exception) -> Violation:
    if isinstance(exc, SyntaxError):
        line = exc.lineno or 1
        column = (exc.offset or 0) or 1
        msg = exc.msg or "invalid syntax"
    else:
        # Undecodable or unreadable content (null bytes raise
        # SyntaxError on modern Pythons but ValueError on older ones).
        line, column, msg = 1, 1, str(exc)
    return Violation(
        rule_id=SYNTAX_ERROR_ID,
        path=path,
        line=line,
        column=column,
        message=f"file does not parse: {msg}",
    )


def lint_source(
    source: str,
    path: str = "<string>",
    rel: Optional[str] = None,
    select: Optional[Sequence[str]] = None,
) -> List[Violation]:
    """Lint one source string (``rel`` positions it inside ``repro``)."""
    return check_module(
        LintModule.from_source(source, path, rel=rel), rule_ids=select
    )


def split_select(
    select: Optional[Sequence[str]],
) -> Tuple[Optional[List[str]], Optional[List[str]]]:
    """Partition a ``--select`` list into (single-file, project) ids.

    Raises ValueError for ids in neither registry.  ``None`` stays
    ``None`` (= everything).
    """
    if select is None:
        return None, None
    single: List[str] = []
    project: List[str] = []
    for rule_id in select:
        known = False
        if rule_id in RULE_REGISTRY:
            single.append(rule_id)
            known = True
        if rule_id in PROJECT_RULE_REGISTRY:
            project.append(rule_id)
            known = True
        if not known:
            all_ids = sorted(RULE_REGISTRY) + sorted(PROJECT_RULE_REGISTRY)
            raise ValueError(
                f"unknown rule {rule_id!r}; known: {', '.join(all_ids)}"
            )
    return single, project


def lint_tree(
    paths: Iterable[PathLike],
    select: Optional[Sequence[str]] = None,
    project: bool = False,
) -> List[Violation]:
    """Lint every Python file under ``paths``.

    Args:
        paths: files/directories to lint.
        select: rule ids to run (single-file and/or project); None
            means every registered rule (project ones only when
            ``project=True``).
        project: also run the whole-program rules G2G008–G2G013.

    Returns violations sorted by file then location.  A file that does
    not parse contributes a single ``E999`` diagnostic carrying the
    syntax error, whichever rules were selected.
    """
    single_select, project_select = split_select(select)
    violations: List[Violation] = []
    facts_list: List[Dict[str, Any]] = []
    for path in iter_python_files(paths):
        try:
            module = LintModule.from_path(path)
        except (SyntaxError, ValueError, UnicodeDecodeError) as exc:
            violations.append(_syntax_violation(str(path), exc))
            continue
        violations.extend(check_module(module, rule_ids=single_select))
        if project:
            facts = module_facts(module)
            if facts is not None:
                facts_list.append(facts)
    if project:
        model = ProjectModel(facts_list)
        violations.extend(check_project(model, rule_ids=project_select))
    violations.sort(key=lambda v: (v.path, v.line, v.column, v.rule_id))
    return violations


def render_report(violations: Sequence[Violation]) -> str:
    """Human-readable multi-line report with a trailing summary."""
    if not violations:
        return "no G2G violations"
    lines = [v.render() for v in violations]
    by_rule: dict = {}
    for v in violations:
        by_rule[v.rule_id] = by_rule.get(v.rule_id, 0) + 1
    summary = ", ".join(
        f"{count} x {rule_id}" for rule_id, count in sorted(by_rule.items())
    )
    lines.append(f"{len(violations)} violations ({summary})")
    return "\n".join(lines)
