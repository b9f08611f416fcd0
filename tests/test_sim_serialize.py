"""Tests for the results JSON form and its run-cache file round trip."""

import json

import pytest

from repro.adversaries import Dropper
from repro.core import G2GEpidemicForwarding
from repro.experiments import RunCache
from repro.sim import Simulation, SimulationConfig
from repro.sim.serialize import (
    FORMAT_VERSION,
    results_from_dict,
    results_to_dict,
)


@pytest.fixture(scope="module")
def run_results(mini_synthetic_module):
    config = SimulationConfig(
        run_length=2 * 3600.0, silent_tail=1800.0, mean_interarrival=30.0,
        ttl=1200.0, seed=4, heavy_hmac_iterations=2,
    )
    return Simulation(
        mini_synthetic_module.trace,
        G2GEpidemicForwarding(),
        config,
        strategies={3: Dropper()},
    ).run()


@pytest.fixture(scope="module")
def mini_synthetic_module():
    from repro.traces.synthetic import CommunityModelConfig, generate

    config = CommunityModelConfig(
        name="mini",
        community_sizes=(5, 5),
        duration=2 * 3600.0,
        base_rate=1.0 / 600.0,
        inter_factor=0.08,
        traveler_fraction=0.2,
        sociability_sigma=0.2,
        mean_contact_duration=60.0,
        min_contact_duration=10.0,
    )
    return generate(config, seed=7)


class TestRoundTrip:
    def test_metrics_preserved(self, run_results):
        again = results_from_dict(results_to_dict(run_results))
        assert again.summary() == run_results.summary()

    def test_detections_preserved(self, run_results):
        again = results_from_dict(results_to_dict(run_results))
        assert again.detections == run_results.detections
        assert again.detection_rate([3]) == run_results.detection_rate([3])

    def test_offender_delays_preserved(self, run_results):
        again = results_from_dict(results_to_dict(run_results))
        assert (
            again.offender_detection_delays()
            == run_results.offender_detection_delays()
        )

    def test_counters_preserved(self, run_results):
        again = results_from_dict(results_to_dict(run_results))
        assert again.test_phases == run_results.test_phases
        assert again.heavy_hmac_runs == run_results.heavy_hmac_runs

    def test_file_round_trip(self, run_results, tmp_path):
        cache = RunCache(tmp_path)
        cache.put("run", run_results)
        again = cache.get("run")
        for key, value in run_results.summary().items():
            # JSON round-trips each float exactly, but aggregate sums
            # re-accumulate in sorted-key order; allow ulp-level slack.
            assert again.summary()[key] == pytest.approx(value), key
        assert again.protocol == run_results.protocol

    def test_json_is_valid_and_versioned(self, run_results, tmp_path):
        cache = RunCache(tmp_path)
        cache.put("run", run_results)
        data = json.loads(cache.path_for("run").read_text())
        assert data["format_version"] == FORMAT_VERSION
        assert data.keys() == results_to_dict(run_results).keys()

    def test_unknown_version_rejected(self, run_results):
        data = results_to_dict(run_results)
        data["format_version"] = 99
        with pytest.raises(ValueError):
            results_from_dict(data)
