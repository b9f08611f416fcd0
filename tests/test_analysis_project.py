"""Tests for the whole-program analysis layer (G2G008–G2G013).

Each project rule has one violating and one clean fixture mini-tree
under ``tests/fixtures/project/<case>/repro/``; the shipped source
tree itself must pass ``lint --project`` with zero findings (pragmas
carry the justified exceptions) — that self-check is this PR's
standing acceptance gate, mirroring the single-file one.
"""

from pathlib import Path

import pytest

from repro.analysis import (
    PROJECT_RULE_REGISTRY,
    ProjectModel,
    lint_tree,
    module_facts,
    render_report,
)
from repro.analysis.framework import LintModule
from repro.analysis.project import (
    module_dotted_name,
    resolve_imports,
)

REPO_ROOT = Path(__file__).resolve().parents[1]
FIXTURES = REPO_ROOT / "tests" / "fixtures" / "project"

#: rule id -> expected (rel fixture file, line) findings in its bad tree.
EXPECTED_BAD = {
    "G2G008": [("repro/sim/engine.py", 6)],
    "G2G009": [
        ("repro/perf/counters.py", 10),
        ("repro/sim/node.py", 5),
    ],
    "G2G010": [
        ("repro/api.py", 10),
        ("repro/core/wire.py", 3),
    ],
    "G2G011": [("repro/experiments/parallel.py", 10)],
    "G2G012": [
        ("repro/sim/engine.py", 10),
        ("repro/sim/engine.py", 13),
    ],
    "G2G013": [("repro/sim/engine.py", 6)],
}


def project_lint(case, rule_id):
    return lint_tree([FIXTURES / case], select=[rule_id], project=True)


class TestRuleFixtures:
    def test_registry_has_all_project_rules(self):
        assert sorted(PROJECT_RULE_REGISTRY) == sorted(EXPECTED_BAD)

    @pytest.mark.parametrize("rule_id", sorted(EXPECTED_BAD))
    def test_bad_tree_fires_exactly_where_expected(self, rule_id):
        case = f"{rule_id.lower()}_bad"
        violations = project_lint(case, rule_id)
        got = [
            (str(Path(v.path).relative_to(FIXTURES / case)), v.line)
            for v in violations
        ]
        assert got == EXPECTED_BAD[rule_id], render_report(violations)
        assert {v.rule_id for v in violations} == {rule_id}

    @pytest.mark.parametrize("rule_id", sorted(EXPECTED_BAD))
    def test_clean_tree_is_clean(self, rule_id):
        case = f"{rule_id.lower()}_clean"
        violations = project_lint(case, rule_id)
        assert violations == [], render_report(violations)

    def test_pragma_suppresses_project_rule(self, tmp_path):
        tree = tmp_path / "repro" / "sim"
        tree.mkdir(parents=True)
        (tmp_path / "repro" / "perf").mkdir()
        (tmp_path / "repro" / "perf" / "util.py").write_text(
            "import time\n\ndef stamp():\n    return time.time()\n"
        )
        (tree / "engine.py").write_text(
            "from ..perf.util import stamp\n\n"
            "# g2g: allow(G2G008: fixture (intentional) exception)\n"
            "def step():\n"
            "    return stamp()\n"
        )
        violations = lint_tree([tmp_path], select=["G2G008"], project=True)
        assert violations == [], render_report(violations)


class TestSelfCheck:
    def test_shipped_tree_passes_project_lint(self):
        violations = lint_tree([REPO_ROOT / "src"], project=True)
        assert violations == [], render_report(violations)

    def test_real_counter_schema_is_parsed(self):
        # Guard against the G2G009 no-op failure mode: if the schema
        # module's literals ever stop parsing, the rule silently checks
        # nothing.  Assert the facts actually carry the declarations.
        counters = REPO_ROOT / "src" / "repro" / "perf" / "counters.py"
        facts = module_facts(LintModule.from_path(counters))
        assert facts is not None
        decls = facts["counter_decls"]
        assert decls is not None
        assert "signatures" in decls["fields"]
        assert "sim/events.py" in decls["hot_map"]

    def test_real_facade_surface_is_modeled(self):
        api = REPO_ROOT / "src" / "repro" / "api.py"
        facts = module_facts(LintModule.from_path(api))
        assert facts is not None
        assert facts["dunder_all"] == ["TelemetrySink", "run", "sweep"]


class TestProjectModel:
    def test_module_dotted_name(self):
        assert module_dotted_name("sim/node.py") == "repro.sim.node"
        assert module_dotted_name("sim/__init__.py") == "repro.sim"
        assert module_dotted_name("api.py") == "repro.api"

    def test_resolve_imports_relative_levels(self):
        import ast

        tree = ast.parse(
            "from . import events\n"
            "from .events import Scheduler\n"
            "from ..perf.counters import COUNTERS\n"
            "import json\n"
        )
        edges, names = resolve_imports(tree, "sim/engine.py")
        targets = {t for t, _ in edges}
        assert "repro.sim.events" in targets
        assert "repro.sim.events.Scheduler" in targets
        assert "repro.perf.counters.COUNTERS" in targets
        assert "json" in targets
        assert names["events"] == "repro.sim.events"
        assert names["Scheduler"] == "repro.sim.events.Scheduler"
        assert names["COUNTERS"] == "repro.perf.counters.COUNTERS"

    def test_resolve_imports_beyond_root_is_skipped(self):
        import ast

        tree = ast.parse("from ....nowhere import thing\n")
        edges, names = resolve_imports(tree, "sim/engine.py")
        assert edges == []
        assert names == {}

    def test_call_graph_resolution(self):
        model = ProjectModel.from_sources([
            (
                "t/repro/sim/a.py",
                "from .b import helper\n\n"
                "def caller():\n"
                "    return helper()\n",
            ),
            (
                "t/repro/sim/b.py",
                "def helper():\n    return 1\n",
            ),
        ])
        entry = model.by_rel["sim/a.py"]
        [target] = entry["functions"]["caller"]["calls"]
        assert model.resolve_callee(entry, "caller", target) == (
            "sim/b.py",
            "helper",
        )

    def test_self_method_resolution(self):
        model = ProjectModel.from_sources([
            (
                "t/repro/sim/a.py",
                "class C:\n"
                "    def outer(self):\n"
                "        return self.inner()\n"
                "    def inner(self):\n"
                "        return 1\n",
            ),
        ])
        entry = model.by_rel["sim/a.py"]
        [target] = entry["functions"]["C.outer"]["calls"]
        assert model.resolve_callee(entry, "C.outer", target) == (
            "sim/a.py",
            "C.inner",
        )

    def test_exempt_parameter_stops_taint(self):
        model = ProjectModel.from_sources([
            (
                "t/repro/perf/u.py",
                "import time\n\n"
                "def stamp(now):\n"
                "    return now or time.time()\n",
            ),
            (
                "t/repro/sim/e.py",
                "from ..perf.u import stamp\n\n"
                "def step():\n"
                "    return stamp(0.0)\n",
            ),
        ])
        from repro.analysis.project import check_project

        assert check_project(model, ["G2G008"]) == []


class TestRuleDetails:
    def _check(self, sources, rule_id):
        from repro.analysis.project import check_project

        return check_project(ProjectModel.from_sources(sources), [rule_id])

    def test_g2g008_reports_the_call_chain(self):
        violations = self._check(
            [
                (
                    "t/repro/perf/u.py",
                    "import time\n\ndef stamp():\n    return time.time()\n",
                ),
                (
                    "t/repro/sim/e.py",
                    "from ..perf.u import stamp\n\n"
                    "def step():\n    return stamp()\n",
                ),
            ],
            "G2G008",
        )
        assert len(violations) == 1
        assert "time.time" in violations[0].message
        assert "stamp" in violations[0].message

    def test_g2g008_direct_sink_left_to_single_file_rules(self):
        # A core function calling time.time() directly is G2G002's
        # finding; the taint rule only owns the transitive hops.
        violations = self._check(
            [
                (
                    "t/repro/sim/e.py",
                    "import time\n\ndef step():\n    return time.time()\n",
                ),
            ],
            "G2G008",
        )
        assert violations == []

    def test_g2g009_missing_module_flagged(self):
        violations = self._check(
            [
                (
                    "t/repro/perf/counters.py",
                    'FIELDS = ("signatures",)\n'
                    'HOT_MODULE_COUNTERS = {"sim/gone.py": ("signatures",)}\n',
                ),
            ],
            "G2G009",
        )
        assert len(violations) == 1
        assert "no such module" in violations[0].message

    def test_g2g010_import_dedup_per_line(self):
        violations = self._check(
            [
                (
                    "t/repro/core/wire.py",
                    "from repro.experiments.cache import run_key, CACHE\n",
                ),
            ],
            "G2G010",
        )
        assert len(violations) == 1

    def test_g2g010_all_exports_missing_name(self):
        violations = self._check(
            [
                (
                    "t/repro/api.py",
                    '__all__ = ["ghost"]\n',
                ),
            ],
            "G2G010",
        )
        assert len(violations) == 1
        assert "ghost" in violations[0].message

    def test_g2g011_label_fields_exempt(self):
        violations = self._check(
            [
                (
                    "t/repro/scenarios/spec.py",
                    "from dataclasses import dataclass\n\n"
                    "@dataclass(frozen=True)\n"
                    "class ScenarioSpec:\n"
                    "    name: str\n"
                    "    trace: str\n\n"
                    "    def requests(self):\n"
                    "        return [self.trace]\n",
                ),
            ],
            "G2G011",
        )
        assert violations == []

    def test_g2g012_scheduler_module_itself_exempt(self):
        violations = self._check(
            [
                (
                    "t/repro/sim/events.py",
                    "def pop(queue, horizon):\n"
                    "    event = queue[0]\n"
                    "    return event.time <= horizon\n",
                ),
            ],
            "G2G012",
        )
        assert violations == []
