"""Static analysis for the reproduction's determinism invariants.

The simulator's headline claims — bit-identical trace-driven runs per
seed, immutable signed wire artifacts, honest op-count budgets — are
*invariants*, and the test suite can only spot-check them dynamically.
This package enforces them statically with a small AST lint framework
(:mod:`repro.analysis.framework`), seven single-file rules
(:mod:`repro.analysis.rules`, ids ``G2G001``–``G2G007``), a
whole-program model with six cross-module flow rules
(:mod:`repro.analysis.project` / :mod:`repro.analysis.flow_rules`,
ids ``G2G008``–``G2G013``, behind ``repro lint --project``), and a
runner (:mod:`repro.analysis.runner`) with text/JSON/SARIF output —
all behind the ``repro lint`` CLI command.

Rules are suppressed per line with pragma comments::

    value = time.time()  # g2g: allow(G2G002: wall clock feeds a log line)
    except Exception:  # g2g: allow-broad-except(plugin code may raise anything)

See ``docs/development.md`` for the full rule catalogue.
"""

from .framework import (
    RULE_REGISTRY,
    LintModule,
    Rule,
    Violation,
    register_rule,
)
from .project import (
    PROJECT_RULE_REGISTRY,
    ProjectModel,
    ProjectRule,
    check_project,
    module_facts,
    register_project_rule,
)
from .runner import lint_source, lint_tree, render_report

# Importing the rule modules populates the registries.
from . import rules as _rules  # noqa: F401  (import for side effect)
from . import flow_rules as _flow_rules  # noqa: F401  (same)

__all__ = [
    "LintModule",
    "ProjectModel",
    "ProjectRule",
    "PROJECT_RULE_REGISTRY",
    "Rule",
    "RULE_REGISTRY",
    "Violation",
    "check_project",
    "lint_source",
    "lint_tree",
    "module_facts",
    "register_project_rule",
    "render_report",
]
