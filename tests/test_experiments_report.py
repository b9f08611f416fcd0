"""Tests for the reproduction-report assembler."""

from pathlib import Path

import pytest

from repro.experiments.report import (
    build_report,
    collect_outputs,
    write_report,
)

ROOT = Path(__file__).resolve().parent.parent
RESULTS = ROOT / "benchmarks" / "results"


@pytest.fixture
def results_dir(tmp_path):
    (tmp_path / "fig3-infocom05.txt").write_text("fig3 table\n")
    (tmp_path / "fig8-cambridge06.txt").write_text("fig8 table\n")
    (tmp_path / "table1.txt").write_text("table one\n")
    (tmp_path / "nash-g2g-epidemic.txt").write_text("nash holds\n")
    (tmp_path / "mystery.txt").write_text("unexpected\n")
    return tmp_path


class TestCollect:
    def test_grouping(self, results_dir):
        grouped = collect_outputs(results_dir)
        assert [p.name for p in grouped["fig3"]] == ["fig3-infocom05.txt"]
        assert [p.name for p in grouped["table1"]] == ["table1.txt"]
        assert [p.name for p in grouped["other"]] == ["mystery.txt"]


class TestBuild:
    def test_sections_in_order(self, results_dir):
        report = build_report(results_dir)
        fig3_at = report.index("Figure 3")
        fig8_at = report.index("Figure 8")
        nash_at = report.index("Nash equilibrium")
        assert fig3_at < fig8_at < nash_at
        assert "fig3 table" in report
        assert "unexpected" in report

    def test_empty_sections_omitted(self, results_dir):
        report = build_report(results_dir)
        assert "Figure 5" not in report

    def test_missing_dir_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            build_report(tmp_path / "nope")

    def test_write(self, results_dir, tmp_path):
        out = write_report(results_dir, tmp_path / "REPORT.md")
        assert out.exists()
        assert out.read_text().startswith("# Give2Get reproduction report")


class TestCheckedInReport:
    def test_report_is_the_assembled_results(self):
        # A stale results file, an orphaned section or a hand edit to
        # REPORT.md makes the two differ.
        assert not collect_outputs(RESULTS).get("other")
        assert build_report(RESULTS) == (ROOT / "REPORT.md").read_text()
