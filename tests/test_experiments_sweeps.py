"""Tests for resumable sweeps.

A sweep is a (count x seed) grid run through :func:`run_series`; every
run is stored in the run cache under its request's key, so a sweep
interrupted or re-run on the same cache directory resumes from what
is already stored.  ``repro sweep`` is that path plus a CSV export.
"""

import pytest

from repro.cli import main
from repro.experiments import (
    ExecutionOptions,
    ReplicationPlan,
    RunCache,
    RunReport,
    RunRequest,
    run_series,
)

#: Lighten the runs: 30x fewer messages than the paper rate.
LIGHT = {"mean_interarrival": 120.0}


def request(seed):
    return RunRequest(
        trace_name="infocom05", family="epidemic", protocol_name="epidemic",
        seed=seed, overrides=tuple(sorted(LIGHT.items())),
    )


def sweep(cache, seeds, report=None):
    """One honest epidemic grid point over ``seeds``; its runs."""
    [(_, point)] = run_series(
        "infocom05", "epidemic", [0], None,
        plan=ReplicationPlan(seeds=tuple(seeds)), config_overrides=LIGHT,
        options=ExecutionOptions(cache=cache, report=report),
    )
    return point.runs


class TestSweepRunner:
    @pytest.fixture
    def cache(self, tmp_path):
        return RunCache(tmp_path / "cache")

    def test_run_and_archive(self, cache):
        report = RunReport()
        [results] = sweep(cache, (1,), report)
        assert cache.path_for(request(1).cache_key()).exists()
        assert cache.stats.writes == 1
        assert results.generated > 0
        assert (report.executed, report.cached) == (1, 0)

    def test_resume_uses_archive(self, cache):
        [first] = sweep(cache, (1,))
        report = RunReport()
        [again] = sweep(cache, (1,), report)
        assert (report.executed, report.cached) == (0, 1)
        assert again.summary().keys() == first.summary().keys()
        assert again.generated == first.generated

    def test_run_all(self, cache):
        out = sweep(cache, (1, 2))
        assert len(out) == 2
        assert all(
            cache.path_for(request(seed).cache_key()).exists()
            for seed in (1, 2)
        )


class TestCsvExport:
    def test_summary_csv(self, capsys, tmp_path):
        out = tmp_path / "summary.csv"
        code = main([
            "sweep", "--trace", "infocom05", "--protocol", "epidemic",
            "--counts", "0", "--seeds", "1",
            "--cache-dir", str(tmp_path / "cache"), "--csv", str(out),
        ])
        assert code == 0
        assert "wrote 1 summary rows" in capsys.readouterr().out
        lines = out.read_text().splitlines()
        assert lines[0].startswith("trace,protocol,adversary,count,seed,")
        assert "success_rate" in lines[0].split(",")
        assert len(lines) == 2
        assert lines[1].startswith("infocom05,epidemic,dropper,0,1,")
