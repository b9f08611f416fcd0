"""Tests for the resumable sweep runner.

Set ``REPRO_TEST_WORKERS`` to choose the pool size of the pooled-sweep
test (default 2).
"""

import os

import pytest

from repro.experiments.parallel import ExecutionOptions
from repro.experiments.sweeps import RunSpec, SweepRunner, dropper_grid
from repro.sim.serialize import results_digest

_env_workers = os.environ.get("REPRO_TEST_WORKERS")
POOL_WORKERS = int(_env_workers) if _env_workers else 2

#: Short G2G runs: a quarter of the evaluation window, sparse traffic
#: and cheap storage challenges, with TTLs that expire in-run so the
#: droppers get tested.
TINY = (
    ("heavy_hmac_iterations", 4),
    ("mean_interarrival", 60.0),
    ("run_length", 1800.0),
    ("silent_tail", 600.0),
    ("ttl", 600.0),
)


class TestRunSpec:
    def test_spec_id_stable(self):
        spec = RunSpec(
            trace="infocom05", protocol="epidemic", seed=2,
            deviation="dropper", count=10,
        )
        assert spec.spec_id == "infocom05_epidemic_s2_dropper10"

    def test_spec_id_with_overrides(self):
        spec = RunSpec(
            trace="infocom05", protocol="epidemic",
            overrides=(("relay_fanout", 3),),
        )
        assert "relay_fanout=3" in spec.spec_id

    def test_hashable(self):
        assert len({RunSpec(trace="t", protocol="p"),
                    RunSpec(trace="t", protocol="p")}) == 1

    def test_grid_builder(self):
        grid = dropper_grid(
            "infocom05", "epidemic", counts=(0, 10), seeds=(1, 2)
        )
        assert len(grid) == 4
        zero = [s for s in grid if s.count == 0]
        assert all(s.deviation is None for s in zero)


class TestSweepRunner:
    @pytest.fixture
    def runner(self, tmp_path):
        events = []
        runner = SweepRunner(
            archive_dir=tmp_path, sweep="unit",
            on_result=lambda spec, results, cached: events.append(
                (spec.spec_id, cached)
            ),
        )
        runner._events = events  # test-side handle
        return runner

    @pytest.fixture
    def spec(self):
        return RunSpec(
            trace="infocom05", protocol="epidemic", seed=1,
            # lighten the run: 30x fewer messages than the paper rate
            overrides=(("mean_interarrival", 120.0),),
        )

    def test_run_and_archive(self, runner, spec):
        results = runner.run_one(spec)
        assert runner.is_done(spec)
        assert runner.path_for(spec).exists()
        assert results.generated > 0
        assert runner._events == [(spec.spec_id, False)]

    def test_resume_uses_archive(self, runner, spec):
        first = runner.run_one(spec)
        again = runner.run_one(spec)
        assert runner._events[-1] == (spec.spec_id, True)
        assert again.summary().keys() == first.summary().keys()
        assert again.generated == first.generated

    def test_force_reruns(self, runner, spec):
        runner.run_one(spec)
        runner.run_one(spec, force=True)
        assert runner._events == [(spec.spec_id, False)] * 2

    def test_collect_and_summary(self, runner, spec):
        runner.run_one(spec)
        collected = runner.collect()
        assert spec.spec_id in collected
        rows = runner.summary_rows()
        assert len(rows) == 1
        assert rows[0]["protocol"] == "epidemic"
        assert "success_rate" in rows[0]

    def test_run_all(self, runner):
        specs = [
            RunSpec(
                trace="infocom05", protocol="epidemic", seed=seed,
                overrides=(("mean_interarrival", 120.0),),
            )
            for seed in (1, 2)
        ]
        out = runner.run_all(specs)
        assert len(out) == 2
        assert all(runner.is_done(s) for s in specs)


class TestPooledSweep:
    def test_pooled_archive_matches_sequential(self, tmp_path):
        specs = [
            RunSpec(
                trace="infocom05", protocol="g2g_epidemic", seed=seed,
                deviation="dropper", count=count, overrides=TINY,
            )
            for seed, count in ((1, 5), (2, 5), (3, 0))
        ]
        sequential = SweepRunner(archive_dir=tmp_path, sweep="sequential")
        sequential.run_all(specs)

        events = []
        pooled = SweepRunner(
            archive_dir=tmp_path, sweep="pooled",
            on_result=lambda spec, results, cached: events.append(
                (spec.spec_id, cached)
            ),
        )
        pooled.run_one(specs[0])
        events.clear()
        out = pooled.run_all(
            specs, options=ExecutionOptions(workers=POOL_WORKERS)
        )

        assert list(out) == specs
        assert events == [(specs[0].spec_id, True)] + [
            (spec.spec_id, False) for spec in specs[1:]
        ]

        def digests(runner):
            return {
                spec_id: results_digest(results)
                for spec_id, results in runner.collect().items()
            }

        assert digests(pooled) == digests(sequential)
        assert len(digests(pooled)) == len(specs)


class TestCsvExport:
    def test_summary_csv(self, tmp_path):
        runner = SweepRunner(archive_dir=tmp_path, sweep="csv")
        spec = RunSpec(
            trace="infocom05", protocol="epidemic", seed=1,
            overrides=(("mean_interarrival", 120.0),),
        )
        runner.run_one(spec)
        out = tmp_path / "summary.csv"
        written = runner.summary_csv(out)
        assert written == 1
        lines = out.read_text().splitlines()
        assert lines[0].startswith("spec_id,protocol,trace,seed")
        assert spec.spec_id in lines[1]

    def test_empty_sweep_csv(self, tmp_path):
        runner = SweepRunner(archive_dir=tmp_path, sweep="empty")
        out = tmp_path / "summary.csv"
        assert runner.summary_csv(out) == 0
        assert out.read_text() == ""
