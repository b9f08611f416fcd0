"""Determinism tests for the parallel experiment runner.

The parallel layer's correctness contract is *equivalence*: for fixed
seeds, ``workers=1``, ``workers=N``, and a warm cache must produce
bit-identical results (the merge happens in request order, so even
float summaries match exactly).  These tests pin that contract on
small, fast configurations, plus the crash-robustness guarantees
(worker errors surface without hanging the pool or corrupting the
cache).

Set ``REPRO_TEST_WORKERS`` to restrict the pool sizes exercised (CI
sets 2 to keep runners light).
"""

import os
from pathlib import Path

import pytest

from repro.experiments import (
    ExecutionOptions,
    ReplicationPlan,
    RunCache,
    RunReport,
    RunRequest,
    execute_request,
    run_key,
    run_point,
    run_requests,
    run_series,
)
from repro.experiments.parallel import expand_population
from repro.sim.serialize import results_digest, results_to_dict

#: Short, light runs: a quarter of the evaluation window, sparse
#: traffic, cheap storage challenges, and a TTL that expires in-run so
#: detection paths execute too.
TINY = {
    "run_length": 1800.0,
    "silent_tail": 600.0,
    "mean_interarrival": 60.0,
    "ttl": 600.0,
    "heavy_hmac_iterations": 4,
}

PLAN = ReplicationPlan(seeds=(1, 2, 3, 4))

_env_workers = os.environ.get("REPRO_TEST_WORKERS")
WORKER_COUNTS = [int(_env_workers)] if _env_workers else [2, 4]


def assert_points_identical(a, b):
    """Exact (bitwise) equality of two PointResults, runs included."""
    assert a.success_rate == b.success_rate
    assert a.mean_delay == b.mean_delay
    assert a.cost == b.cost
    assert a.memory_byte_seconds == b.memory_byte_seconds
    assert a.detection_rate == b.detection_rate
    assert a.detection_delay == b.detection_delay
    assert a.detection_delay_after_ttl == b.detection_delay_after_ttl
    assert a.false_positives == b.false_positives
    assert len(a.runs) == len(b.runs)
    for run_a, run_b in zip(a.runs, b.runs):
        assert results_to_dict(run_a) == results_to_dict(run_b)


def g2g_point(options=None, plan=PLAN):
    return run_point(
        "infocom05",
        "g2g_epidemic",
        deviation="dropper",
        deviation_count=5,
        plan=plan,
        config_overrides=TINY,
        options=options,
    )


class TestParallelEqualsSequential:
    @pytest.fixture(scope="class")
    def sequential(self):
        return g2g_point(ExecutionOptions(workers=1))

    def test_default_options_are_sequential(self, sequential):
        assert_points_identical(sequential, g2g_point())

    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    def test_pool_matches_sequential(self, sequential, workers):
        parallel = g2g_point(ExecutionOptions(workers=workers))
        assert_points_identical(sequential, parallel)

    def test_seed_order_preserved(self, sequential):
        assert [run.seed for run in sequential.runs] == list(PLAN.seeds)


class TestRunSeries:
    def test_series_matches_per_point_runs(self):
        counts = [0, 3, 6]
        series = run_series(
            "infocom05",
            "g2g_epidemic",
            counts,
            deviation="dropper",
            plan=ReplicationPlan(seeds=(1, 2)),
            config_overrides=TINY,
        )
        assert [count for count, _ in series] == counts
        for count, point in series:
            loose = run_point(
                "infocom05",
                "g2g_epidemic",
                deviation="dropper" if count else None,
                deviation_count=count,
                plan=ReplicationPlan(seeds=(1, 2)),
                config_overrides=TINY,
            )
            assert_points_identical(point, loose)

    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    def test_series_parallel_matches_sequential(self, workers):
        kwargs = dict(
            counts=[0, 4],
            deviation="dropper",
            plan=ReplicationPlan(seeds=(1, 2)),
            config_overrides=TINY,
        )
        sequential = run_series(
            "infocom05", "g2g_epidemic", **kwargs
        )
        parallel = run_series(
            "infocom05",
            "g2g_epidemic",
            options=ExecutionOptions(workers=workers),
            **kwargs,
        )
        for (count_a, point_a), (count_b, point_b) in zip(
            sequential, parallel
        ):
            assert count_a == count_b
            assert_points_identical(point_a, point_b)


class TestWarmCache:
    def test_cached_rerun_is_identical(self, tmp_path):
        cache = RunCache(tmp_path / "cache")
        cold = g2g_point(ExecutionOptions(workers=1, cache=cache))
        assert cache.stats.writes == len(PLAN.seeds)
        warm = g2g_point(ExecutionOptions(workers=1, cache=cache))
        assert cache.stats.hits == len(PLAN.seeds)
        assert_points_identical(cold, warm)

    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    def test_warm_cache_matches_pool_output(self, tmp_path, workers):
        cache = RunCache(tmp_path / "cache")
        pooled = g2g_point(ExecutionOptions(workers=workers, cache=cache))
        warm = g2g_point(ExecutionOptions(workers=1, cache=cache))
        assert_points_identical(pooled, warm)

    def test_report_accounts_for_hits(self, tmp_path):
        cache = RunCache(tmp_path / "cache")
        report = RunReport()
        g2g_point(ExecutionOptions(workers=1, cache=cache, report=report))
        assert report.executed == len(PLAN.seeds)
        assert report.cached == 0
        g2g_point(ExecutionOptions(workers=1, cache=cache, report=report))
        assert report.cached == len(PLAN.seeds)
        assert report.total == 2 * len(PLAN.seeds)
        assert "cache hits" in report.summary()

    def test_pooled_point_reuses_a_warm_seed(self, tmp_path):
        sequential = RunCache(tmp_path / "sequential")
        g2g_point(ExecutionOptions(cache=sequential))
        pooled = RunCache(tmp_path / "pooled")
        g2g_point(
            ExecutionOptions(cache=pooled),
            plan=ReplicationPlan(seeds=PLAN.seeds[:1]),
        )
        report = RunReport()
        g2g_point(
            ExecutionOptions(
                workers=WORKER_COUNTS[0], cache=pooled, report=report
            )
        )
        assert report.cached == 1
        assert report.executed == len(PLAN.seeds) - 1

        def stored_digests(cache):
            return {
                path.stem: results_digest(cache.get(path.stem))
                for path in Path(cache.cache_dir).glob("*.json")
            }

        assert stored_digests(pooled) == stored_digests(sequential)
        assert len(stored_digests(pooled)) == len(PLAN.seeds)


def bad_request(seed=1):
    """A request whose worker will raise (unknown protocol name)."""
    return RunRequest(
        trace_name="infocom05",
        family="epidemic",
        protocol_name="no_such_protocol",
        seed=seed,
        overrides=tuple(sorted(TINY.items())),
    )


def good_request(seed=1):
    return RunRequest(
        trace_name="infocom05",
        family="epidemic",
        protocol_name="epidemic",
        seed=seed,
        overrides=tuple(sorted(TINY.items())),
    )


class TestCrashRobustness:
    @pytest.mark.parametrize("workers", [1] + WORKER_COUNTS)
    def test_worker_error_surfaces(self, workers):
        requests = [good_request(1), bad_request(), good_request(2)]
        with pytest.raises(KeyError, match="no_such_protocol"):
            run_requests(requests, ExecutionOptions(workers=workers))

    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    def test_failed_batch_leaves_cache_clean(self, tmp_path, workers):
        cache = RunCache(tmp_path / "cache")
        requests = [good_request(1), bad_request(), good_request(2)]
        with pytest.raises(KeyError):
            run_requests(
                requests, ExecutionOptions(workers=workers, cache=cache)
            )
        # the successful runs were archived, the failed one was not,
        # and no temp files linger
        assert cache.stats.writes == 2
        leftovers = list((tmp_path / "cache").glob("*.tmp"))
        assert leftovers == []
        # the cached survivors are readable and complete
        for request in (good_request(1), good_request(2)):
            assert cache.get(request.cache_key()) is not None

    def test_error_is_first_in_request_order(self):
        requests = [bad_request(1), good_request(1)]
        with pytest.raises(KeyError, match="no_such_protocol"):
            run_requests(requests, ExecutionOptions(workers=2))


class TestTestersOverride:
    def test_testers_mode_is_pooled_and_cached(self, tmp_path):
        """The who-audits ablation's runs take the pooled, cached path."""
        cache = RunCache(tmp_path / "cache")

        def point():
            # Two seeds: a batch with one pending run executes in-process.
            return run_point(
                "infocom05",
                "g2g_epidemic",
                deviation="dropper",
                deviation_count=5,
                plan=ReplicationPlan(seeds=(1, 2)),
                config_overrides={**TINY, "testers": "any_giver"},
                options=ExecutionOptions(workers=2, cache=cache),
            )

        first = point()
        assert (cache.stats.writes, cache.stats.hits) == (2, 0)
        second = point()
        assert (cache.stats.writes, cache.stats.hits) == (2, 2)
        # Hits return the stored entries; compared by digest against the
        # files, not the fresh runs, because a hit re-sums total_energy
        # in file key order (the known energy-order defect).
        stored = sorted(
            results_digest(cache.get(path.stem))
            for path in Path(cache.cache_dir).glob("*.json")
        )
        assert sorted(results_digest(r) for r in second.runs) == stored
        assert second.detection_rate == first.detection_rate
        assert second.success_rate == first.success_rate


class TestPlacement:
    """Explicit ``(node, kind)`` adversaries on a ``RunRequest``."""

    @staticmethod
    def request(**fields):
        return RunRequest(
            "infocom05", "epidemic", "g2g_epidemic", 1,
            overrides=tuple(sorted(TINY.items())), **fields,
        )

    def test_deviation_with_placement_rejected(self):
        bad = self.request(
            deviation="dropper", deviation_count=1,
            placement=((0, "liar"),),
        )
        with pytest.raises(ValueError, match="deviation and placement"):
            execute_request(bad)

    def test_mix_with_placement_rejected(self):
        bad = self.request(mix=(("liar", 0.1),), placement=((0, "liar"),))
        with pytest.raises(ValueError, match="mix and placement"):
            execute_request(bad)

    def test_node_outside_the_universe_rejected(self):
        bad = self.request(placement=((99999, "dropper"),))
        with pytest.raises(ValueError, match="99999"):
            execute_request(bad)

    def test_unknown_kind_rejected(self):
        bad = self.request(placement=((0, "gossip"),))
        with pytest.raises(KeyError, match="unknown deviation 'gossip'"):
            execute_request(bad)

    def test_roles_group_the_placement_by_kind(self):
        placed = self.request(
            placement=((0, "dropper"), (1, "liar"), (2, "dropper"))
        )
        assert placed.roles() == {"dropper": (0, 2), "liar": (1,)}
        assert placed.misbehaving() == (0, 1, 2)

    def test_placements_key_differently(self):
        keys = {
            self.request(placement=placement).cache_key()
            for placement in ((), ((0, "dropper"),), ((1, "dropper"),))
        }
        assert len(keys) == 3

    def test_plain_key_has_no_placement(self):
        plain = self.request()
        assert plain.cache_key() == run_key(
            trace_name=plain.trace_name,
            family=plain.family,
            protocol_name=plain.protocol_name,
            deviation=None,
            deviation_count=0,
            seed=plain.seed,
            config=plain.config(),
        )


class TestNegativeAdversaryCount:
    """A negative count fails loudly instead of running an honest
    population, on every path into :func:`expand_population`."""

    def test_api_run_rejects(self):
        from repro import api

        with pytest.raises(ValueError, match="got -3"):
            api.run(
                "infocom05", "g2g_epidemic", TINY, seed=1,
                adversary="dropper", adversary_count=-3,
            )

    def test_request_rejects(self):
        bad = RunRequest(
            "infocom05", "epidemic", "g2g_epidemic", 1,
            deviation="dropper", deviation_count=-1,
            overrides=tuple(sorted(TINY.items())),
        )
        with pytest.raises(ValueError, match="got -1"):
            execute_request(bad)
        with pytest.raises(ValueError, match="got -1"):
            bad.misbehaving()

    def test_series_caches_nothing(self, tmp_path):
        options = ExecutionOptions(cache=RunCache(tmp_path / "cache"))
        with pytest.raises(ValueError, match="got -1"):
            run_series(
                "infocom05", "g2g_epidemic", [-1], "dropper",
                plan=ReplicationPlan(seeds=(1,)),
                config_overrides=TINY, options=options,
            )
        assert not list((tmp_path / "cache").glob("*.json"))


class TestAdversaryCountWithoutKind:
    """A count with no kind, mix or placement fails instead of running
    the honest population."""

    def test_api_run_rejects(self):
        from repro import api

        with pytest.raises(ValueError, match="without an adversary kind"):
            api.run("infocom05", "g2g_epidemic", TINY, seed=1,
                    adversary_count=5)

    def test_expansion_rejects(self):
        with pytest.raises(ValueError, match="count 2 given without"):
            expand_population(range(10), 1, None, deviation_count=2)
