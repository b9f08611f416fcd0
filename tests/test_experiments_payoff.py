"""Tests for the utility model and empirical best-response check."""

import pytest

from repro.experiments import (
    ExecutionOptions,
    ReplicationPlan,
    RunCache,
    RunReport,
)
from repro.experiments.payoff import (
    BestResponseReport,
    DeviationOutcome,
    UtilityModel,
    best_response_check,
)
from repro.sim.messages import Message
from repro.sim.results import SimulationResults

from tests.test_experiments_golden import TINY

#: The goldens' tiny setting over a 90-minute window.  In TINY's own
#: 30-minute window no dropper is convicted before the run ends, so
#: dropping pays there; the longer window lets the sender tests bite.
WINDOW = {
    **TINY,
    "run_length": 5400.0,
    "silent_tail": 1800.0,
    "mean_interarrival": 16.0,
}


def make_results(delivered_for=(), evicted=(), energy=None):
    results = SimulationResults()
    for i, (src, dst) in enumerate([(0, 1), (1, 0), (2, 0)]):
        m = Message(
            msg_id=i, source=src, destination=dst, created_at=0.0, ttl=60.0
        )
        results.record_generated(m)
        if i in delivered_for:
            results.record_delivery(m, 10.0)
    for node in evicted:
        results.record_eviction(node, 100.0)
    for node, joules in (energy or {}).items():
        results.add_energy(node, joules)
    return results


class TestUtilityModel:
    def test_service_counts_sent_and_received(self):
        model = UtilityModel(service_value=10.0)
        # node 0 sources msg 0 (delivered) and receives msgs 1, 2
        results = make_results(delivered_for=(0, 1))
        assert model.utility(0, results) == pytest.approx(20.0)

    def test_energy_subtracts(self):
        model = UtilityModel(service_value=10.0, energy_weight=2.0)
        results = make_results(delivered_for=(0,), energy={0: 3.0})
        assert model.utility(0, results) == pytest.approx(10.0 - 6.0)

    def test_eviction_zeroes_service_keeps_costs(self):
        model = UtilityModel(service_value=10.0)
        results = make_results(
            delivered_for=(0, 1), evicted=(0,), energy={0: 1.0}
        )
        assert model.utility(0, results) == pytest.approx(-1.0)

    def test_uninvolved_node(self):
        model = UtilityModel()
        results = make_results()
        assert model.utility(7, results) == 0.0


class TestOutcome:
    def test_profitable(self):
        o = DeviationOutcome(
            deviation="dropper", node=1, honest_utility=5.0,
            deviant_utility=6.0, detected=False,
        )
        assert o.profitable
        o2 = DeviationOutcome(
            deviation="dropper", node=1, honest_utility=5.0,
            deviant_utility=5.0, detected=True,
        )
        assert not o2.profitable

    def test_report_render(self):
        report = BestResponseReport(protocol="p")
        report.outcomes.append(
            DeviationOutcome(
                deviation="dropper", node=1, honest_utility=5.0,
                deviant_utility=-1.0, detected=True,
            )
        )
        assert report.nash_holds
        assert "True" in report.render()


class TestBestResponseCheck:
    """The check is one ``run_requests`` batch: pooled and cached."""

    @staticmethod
    def check(options=None):
        return best_response_check(
            "infocom05",
            "g2g_epidemic",
            deviations=("dropper",),
            probe_nodes=[0, 1],
            plan=ReplicationPlan(seeds=(1, 2)),
            config_overrides=WINDOW,
            options=options,
        )

    @pytest.fixture(scope="class")
    def cache(self, tmp_path_factory):
        return RunCache(tmp_path_factory.mktemp("payoff-cache"))

    @pytest.fixture(scope="class")
    def sequential(self, cache):
        return self.check(ExecutionOptions(cache=cache))

    def test_dropping_unprofitable(self, sequential):
        assert [(o.deviation, o.node) for o in sequential.outcomes] == [
            ("dropper", 0),
            ("dropper", 1),
        ]
        assert all(o.detected for o in sequential.outcomes)
        assert sequential.nash_holds

    def test_pool_matches_sequential(self, sequential):
        pooled = self.check(ExecutionOptions(workers=2))
        assert pooled.render() == sequential.render()

    def test_repeat_is_all_cache_hits(self, sequential, cache):
        report = RunReport()
        repeat = self.check(ExecutionOptions(cache=cache, report=report))
        assert report.total == 6
        assert report.cached == report.total
        assert repeat.render() == sequential.render()
