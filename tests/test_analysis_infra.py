"""Tests for the lint production infrastructure.

Covers the report renderers (text/JSON/SARIF 2.1.0) and the
``repro lint`` CLI wiring for them.
"""

import json
from pathlib import Path

import pytest

from repro.analysis.framework import Violation
from repro.analysis.output import render, render_json, render_sarif
from repro.cli import main

REPO_ROOT = Path(__file__).resolve().parents[1]
SRC = REPO_ROOT / "src"

V1 = Violation("G2G001", "src/repro/sim/x.py", 3, 5, "global RNG call")
V2 = Violation("G2G012", "src/repro/sim/y.py", 9, 1, "raw event-time math")


def make_tree(tmp_path):
    """A small lintable repro/ tree with one violating file."""
    pkg = tmp_path / "repro" / "sim"
    pkg.mkdir(parents=True)
    for i in range(6):
        (pkg / f"mod{i}.py").write_text(f"def f{i}():\n    return {i}\n")
    (pkg / "bad.py").write_text(
        "import random\n\ndef f():\n    return random.random()\n"
    )
    return tmp_path


class TestOutput:
    def test_json_document_shape(self):
        doc = json.loads(render_json([V1, V2]))
        assert doc["total"] == 2
        assert doc["counts"] == {"G2G001": 1, "G2G012": 1}
        assert doc["violations"][0]["path"] == "src/repro/sim/x.py"
        assert doc["violations"][0]["line"] == 3

    def test_sarif_is_valid_2_1_0(self):
        log = json.loads(render_sarif([V1, V2]))
        assert log["version"] == "2.1.0"
        assert "sarif-schema-2.1.0" in log["$schema"]
        [run] = log["runs"]
        assert run["tool"]["driver"]["name"] == "repro-lint"
        rules = {r["id"] for r in run["tool"]["driver"]["rules"]}
        assert rules == {"G2G001", "G2G012"}
        assert len(run["results"]) == 2
        result = run["results"][0]
        assert result["ruleId"] == "G2G001"
        assert result["level"] == "error"
        loc = result["locations"][0]["physicalLocation"]
        assert loc["artifactLocation"]["uri"] == "src/repro/sim/x.py"
        assert loc["region"] == {"startLine": 3, "startColumn": 5}
        # ruleIndex must point at the matching driver rule entry.
        idx = result["ruleIndex"]
        assert run["tool"]["driver"]["rules"][idx]["id"] == "G2G001"

    def test_sarif_empty_run(self):
        log = json.loads(render_sarif([]))
        assert log["runs"][0]["results"] == []
        assert log["runs"][0]["tool"]["driver"]["rules"] == []

    def test_render_dispatch_rejects_unknown_format(self):
        with pytest.raises(ValueError, match="unknown format"):
            render([], "yaml")


class TestCli:
    def test_project_flag_shipped_tree(self, capsys):
        assert main(["lint", str(SRC), "--project"]) == 0
        assert "no G2G violations" in capsys.readouterr().out

    def test_json_format(self, tmp_path, capsys):
        tree = make_tree(tmp_path / "t")
        assert main(["lint", str(tree), "--format", "json"]) == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["counts"] == {"G2G001": 1}

    def test_sarif_format_to_file(self, tmp_path, capsys):
        tree = make_tree(tmp_path / "t")
        out = tmp_path / "lint.sarif"
        assert (
            main([
                "lint", str(tree), "--format", "sarif",
                "--output", str(out),
            ])
            == 1
        )
        assert f"wrote {out}" in capsys.readouterr().out
        log = json.loads(out.read_text())
        assert log["version"] == "2.1.0"
        assert log["runs"][0]["results"][0]["ruleId"] == "G2G001"

    def test_select_project_rule(self, capsys):
        bad = (
            REPO_ROOT / "tests" / "fixtures" / "project" / "g2g012_bad"
        )
        assert (
            main([
                "lint", str(bad), "--project", "--select", "G2G012",
            ])
            == 1
        )
        assert "2 x G2G012" in capsys.readouterr().out

    def test_list_rules_includes_project_rules(self, capsys):
        assert main(["lint", "--list-rules"]) == 0
        out = capsys.readouterr().out
        assert "G2G008" in out and "[--project]" in out
