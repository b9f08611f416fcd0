"""Tests for the G2G lint framework, rules, and CLI integration.

The fixture tree under ``tests/fixtures/lint/repro/`` mirrors the
package layout (the framework classifies files by their path below a
``repro`` directory) and contains exactly one deliberate violation per
rule plus a clean file; the shipped source tree itself must lint
clean — that self-check is the PR's standing acceptance gate.
"""

from pathlib import Path

import pytest

from repro.analysis import RULE_REGISTRY, lint_source, lint_tree, render_report
from repro.analysis.framework import (
    LintModule,
    package_relative,
    parse_suppressions,
)
from repro.cli import main
from repro.perf.counters import FIELDS, HOT_MODULE_COUNTERS

REPO_ROOT = Path(__file__).resolve().parents[1]
FIXTURES = REPO_ROOT / "tests" / "fixtures" / "lint"

#: rule id -> (fixture relative to FIXTURES, expected line).
EXPECTED = {
    "G2G001": ("repro/sim/g2g001_global_rng.py", 7),
    "G2G002": ("repro/traces/g2g002_wall_clock.py", 7),
    "G2G003": ("repro/core/g2g003_set_iteration.py", 6),
    "G2G004": ("repro/protocols/g2g004_frozen_mutation.py", 16),
    "G2G005": ("repro/sim/node.py", 1),
    "G2G006": ("repro/metrics/g2g006_broad_except.py", 8),
    "G2G007": ("repro/core/g2g007_private_heap.py", 8),
}


class TestFixtures:
    def test_registry_has_all_rules(self):
        assert sorted(RULE_REGISTRY) == sorted(EXPECTED)

    @pytest.mark.parametrize("rule_id", sorted(EXPECTED))
    def test_each_rule_fires_exactly_where_expected(self, rule_id):
        rel, line = EXPECTED[rule_id]
        violations = lint_tree([FIXTURES / rel])
        assert [
            (v.rule_id, v.line) for v in violations
        ] == [(rule_id, line)], render_report(violations)

    def test_whole_fixture_tree_one_violation_per_rule(self):
        violations = lint_tree([FIXTURES])
        assert sorted(v.rule_id for v in violations) == sorted(EXPECTED)

    def test_clean_fixture_is_clean(self):
        clean = FIXTURES / "repro" / "experiments" / "clean.py"
        assert lint_tree([clean]) == []


class TestSelfCheck:
    def test_shipped_tree_lints_clean(self):
        violations = lint_tree([REPO_ROOT / "src"])
        assert violations == [], render_report(violations)

    def test_hot_module_map_matches_fields(self):
        # Every counter field is owned by at least one hot module, and
        # the map never names a field that does not exist.
        declared = {f for fields in HOT_MODULE_COUNTERS.values() for f in fields}
        assert declared == set(FIELDS)


class TestFramework:
    def test_package_relative(self):
        assert package_relative(Path("src/repro/sim/node.py")) == "sim/node.py"
        assert (
            package_relative(Path("tests/fixtures/lint/repro/core/x.py"))
            == "core/x.py"
        )
        assert package_relative(Path("examples/quickstart.py")) is None

    def test_pragma_parsing(self):
        table = parse_suppressions(
            "x = 1  # g2g: allow(G2G001: seeded elsewhere)\n"
            "y = 2  # g2g: allow(G2G002, G2G003)\n"
            "z = 3  # g2g: allow-broad-except(worker boundary)\n"
            "w = 4  # g2g: allow()\n"
        )
        assert table == {
            1: {"G2G001"},
            2: {"G2G002", "G2G003"},
            3: {"G2G006"},
        }

    def test_pragma_suppresses_same_line_and_next_line(self):
        flagged = "import random\ndef f():\n    return random.random()\n"
        assert [v.rule_id for v in lint_source(flagged, rel="sim/f.py")] == [
            "G2G001"
        ]
        same_line = flagged.replace(
            "random.random()", "random.random()  # g2g: allow(G2G001: test)"
        )
        assert lint_source(same_line, rel="sim/f.py") == []
        line_above = flagged.replace(
            "    return",
            "    # g2g: allow(G2G001: test)\n    return",
        )
        assert lint_source(line_above, rel="sim/f.py") == []

    def test_pragma_reason_may_contain_parens(self):
        # The body parses to the end of the comment, so a justification
        # with its own parens does not truncate the pragma.
        table = parse_suppressions(
            "x = 1  # g2g: allow(G2G002: fallback (rare) path)\n"
        )
        assert table == {1: {"G2G002"}}
        source = (
            "import random\n"
            "def f():\n"
            "    # g2g: allow(G2G001: seeded (per-run) upstream)\n"
            "    return random.random()\n"
        )
        assert lint_source(source, rel="sim/f.py") == []

    def test_wrong_rule_pragma_does_not_suppress(self):
        source = (
            "import random\n"
            "def f():\n"
            "    return random.random()  # g2g: allow(G2G002: wrong id)\n"
        )
        assert [v.rule_id for v in lint_source(source, rel="sim/f.py")] == [
            "G2G001"
        ]

    def test_out_of_scope_package_not_checked(self):
        # metrics/ is outside the seeded-RNG scope: G2G001 stays quiet.
        source = "import random\nx = random.random()\n"
        assert lint_source(source, rel="metrics/plot.py", select=["G2G001"]) == []

    def test_syntax_error_reported_not_raised(self, tmp_path):
        bad = tmp_path / "repro" / "sim"
        bad.mkdir(parents=True)
        (bad / "broken.py").write_text("def f(:\n")
        violations = lint_tree([tmp_path])
        assert [v.rule_id for v in violations] == ["E999"]
        rendered = violations[0].render()
        # path:line:col: E999 message — a normal diagnostic line.
        assert ": E999 file does not parse:" in rendered
        assert rendered.startswith(str(bad / "broken.py") + ":1:")

    def test_syntax_error_fixture(self):
        fixture = REPO_ROOT / "tests" / "fixtures" / "syntax"
        violations = lint_tree([fixture])
        assert [v.rule_id for v in violations] == ["E999"]
        assert violations[0].line == 3

    def test_null_byte_file_reported_not_raised(self, tmp_path):
        bad = tmp_path / "nulls.py"
        bad.write_bytes(b"x = 1\x00\n")
        violations = lint_tree([bad])
        assert [v.rule_id for v in violations] == ["E999"]

    def test_unknown_rule_rejected(self):
        with pytest.raises(ValueError, match="unknown rule"):
            lint_source("x = 1\n", select=["G2G999"])


class TestFrameworkHelpers:
    """Direct unit tests for the shared AST helpers."""

    def _tree(self, source):
        import ast

        return ast.parse(source)

    def test_imported_origins_aliases(self):
        from repro.analysis.framework import imported_origins

        tree = self._tree(
            "import random\n"
            "import numpy as np\n"
            "import os.path\n"
            "from random import Random\n"
            "from random import shuffle as mix\n"
        )
        origins = imported_origins(tree)
        assert origins["random"] == "random"
        assert origins["np"] == "numpy"
        # `import os.path` binds the *root* name, mapping it to itself.
        assert origins["os"] == "os"
        assert origins["Random"] == "random.Random"
        assert origins["mix"] == "random.shuffle"

    def test_imported_origins_skips_relative_imports(self):
        from repro.analysis.framework import imported_origins

        tree = self._tree(
            "from . import events\n"
            "from ..perf import counters\n"
            "from .events import Scheduler\n"
        )
        assert imported_origins(tree) == {}

    def test_resolve_call_non_import_root(self):
        import ast

        from repro.analysis.framework import imported_origins, resolve_call

        tree = self._tree(
            "import random\n"
            "rng = random.Random(7)\n"
            "a = rng.randint(0, 5)\n"
            "b = self.rng.random()\n"
            "c = random.randint(0, 5)\n"
            "d = (lambda: 0)()\n"
        )
        origins = imported_origins(tree)
        calls = [n.func for n in ast.walk(tree) if isinstance(n, ast.Call)]
        resolved = [resolve_call(c, origins) for c in calls]
        # Only the chains rooted at an import resolve; local/attribute
        # roots and non-name callables come back None.
        assert "random.Random" in resolved
        assert "random.randint" in resolved
        assert resolved.count(None) == 3

    def test_package_relative_path_ending_at_repro(self):
        # A path whose last component IS the package root has no
        # relative remainder — that is None, not "".
        assert package_relative(Path("src/repro")) is None
        assert package_relative(Path("repro")) is None
        # Nested repro segments classify by the innermost one.
        assert (
            package_relative(Path("repro/outer/repro/sim/x.py"))
            == "sim/x.py"
        )

    def test_function_stack_nesting(self):
        import ast

        from repro.analysis.framework import function_stack

        tree = self._tree(
            "def outer():\n"
            "    def inner():\n"
            "        x = 1\n"
            "    y = 2\n"
            "z = 3\n"
        )
        stacks = {}
        for node, stack in function_stack(tree):
            if isinstance(node, ast.Assign):
                stacks[node.targets[0].id] = stack
        assert stacks == {
            "x": ("outer", "inner"),
            "y": ("outer",),
            "z": (),
        }


class TestRuleDetails:
    def test_seeded_random_and_aliased_import_handled(self):
        ok = "import random\nrng = random.Random(7)\nv = rng.random()\n"
        assert lint_source(ok, rel="core/x.py", select=["G2G001"]) == []
        aliased = "import random as rnd\nv = rnd.randint(0, 5)\n"
        assert [
            v.rule_id
            for v in lint_source(aliased, rel="core/x.py", select=["G2G001"])
        ] == ["G2G001"]
        from_import = "from random import shuffle\nshuffle([])\n"
        assert [
            v.rule_id
            for v in lint_source(from_import, rel="core/x.py", select=["G2G001"])
        ] == ["G2G001"]

    def test_unseeded_random_instance_flagged(self):
        source = "import random\nrng = random.Random()\n"
        violations = lint_source(source, rel="crypto/x.py", select=["G2G001"])
        assert [v.rule_id for v in violations] == ["G2G001"]
        assert "unseeded" in violations[0].message

    def test_secrets_import_flagged_anywhere_in_repro(self):
        source = "import secrets\n"
        assert [
            v.rule_id
            for v in lint_source(source, rel="metrics/x.py", select=["G2G002"])
        ] == ["G2G002"]

    def test_perf_package_exempt_from_wall_clock(self):
        source = "import time\nt = time.perf_counter()\n"
        assert lint_source(source, rel="perf/memory.py", select=["G2G002"]) == []

    def test_sorted_set_iteration_allowed(self):
        source = "for x in sorted(set(items)):\n    pass\n"
        assert lint_source(source, rel="sim/x.py", select=["G2G003"]) == []

    def test_set_comprehension_iteration_flagged(self):
        source = "out = [x for x in {a for a in items}]\n"
        assert [
            v.rule_id
            for v in lint_source(source, rel="sim/x.py", select=["G2G003"])
        ] == ["G2G003"]

    def test_sanctioned_setattr_sites_exempt(self):
        source = "object.__setattr__(artifact, 'signature', sig)\n"
        assert lint_source(source, rel="core/wire.py", select=["G2G004"]) == []
        assert lint_source(source, rel="core/proofs.py", select=["G2G004"]) == []
        assert [
            v.rule_id
            for v in lint_source(source, rel="core/other.py", select=["G2G004"])
        ] == ["G2G004"]

    def test_unknown_counter_flagged(self):
        source = "from repro.perf.counters import COUNTERS\nCOUNTERS.typo_field += 1\n"
        violations = lint_source(source, rel="metrics/x.py", select=["G2G005"])
        assert [v.rule_id for v in violations] == ["G2G005"]
        assert "typo_field" in violations[0].message

    def test_reraising_broad_except_allowed(self):
        source = (
            "try:\n    work()\nexcept BaseException:\n    cleanup()\n    raise\n"
        )
        assert lint_source(source, select=["G2G006"]) == []

    def test_bare_except_flagged(self):
        source = "try:\n    work()\nexcept:\n    pass\n"
        assert [
            v.rule_id for v in lint_source(source, select=["G2G006"])
        ] == ["G2G006"]


class TestCli:
    def test_lint_fixtures_exits_nonzero(self, capsys):
        assert main(["lint", str(FIXTURES)]) == 1
        out = capsys.readouterr().out
        assert "7 violations" in out

    def test_lint_shipped_tree_exits_zero(self, capsys):
        assert main(["lint", str(REPO_ROOT / "src")]) == 0
        assert "no G2G violations" in capsys.readouterr().out

    def test_select_restricts_rules(self, capsys):
        assert main(["lint", str(FIXTURES), "--select", "G2G003"]) == 1
        out = capsys.readouterr().out
        assert "1 violations (1 x G2G003)" in out

    def test_list_rules(self, capsys):
        assert main(["lint", "--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule_id in sorted(RULE_REGISTRY):
            assert rule_id in out

    def test_missing_path_is_an_error(self):
        with pytest.raises(SystemExit, match="no such file"):
            main(["lint", "does/not/exist"])
