"""Integration tests: the paper's headline claims at evaluation scale.

These run real 3-hour evaluation windows (one seed each) and assert
the qualitative results the paper reports.  They are the slowest tests
in the suite (~1-4 s per simulation).
"""

import pytest

from repro.adversaries import strategy_population
from repro.core import G2GDelegationForwarding, G2GEpidemicForwarding
from repro.experiments import (
    evaluation_community,
    evaluation_trace,
    standard_config,
)
from repro.protocols import DelegationForwarding, EpidemicForwarding
from repro.sim import Simulation


@pytest.fixture(scope="module")
def infocom():
    return evaluation_trace("infocom05")


@pytest.fixture(scope="module")
def infocom_community():
    return evaluation_community("infocom05")


def run(trace, protocol, family="epidemic", strategies=None,
        trace_name="infocom05", seed=1):
    config = standard_config(trace_name, family, seed)
    return Simulation(trace, protocol, config, strategies=strategies).run()


class TestSelfishnessCrashesVanillaProtocols:
    """Sec. V: droppers make Epidemic collapse."""

    def test_all_droppers_halve_epidemic_delivery(self, infocom):
        honest = run(infocom, EpidemicForwarding())
        strategies, _ = strategy_population(
            infocom.nodes, "dropper", len(infocom.nodes), seed=1
        )
        selfish = run(infocom, EpidemicForwarding(), strategies=strategies)
        assert selfish.success_rate < honest.success_rate * 0.75

    def test_droppers_crash_delegation(self, infocom):
        honest = run(
            infocom, DelegationForwarding("last_contact"), family="delegation"
        )
        strategies, _ = strategy_population(
            infocom.nodes, "dropper", len(infocom.nodes) - 1, seed=1
        )
        selfish = run(
            infocom,
            DelegationForwarding("last_contact"),
            family="delegation",
            strategies=strategies,
        )
        assert selfish.success_rate < honest.success_rate

    def test_liars_hurt_delegation(self, infocom):
        honest = run(
            infocom, DelegationForwarding("last_contact"), family="delegation"
        )
        strategies, _ = strategy_population(
            infocom.nodes, "liar", len(infocom.nodes) - 1, seed=1
        )
        lying = run(
            infocom,
            DelegationForwarding("last_contact"),
            family="delegation",
            strategies=strategies,
        )
        assert lying.success_rate < honest.success_rate


class TestG2GDetection:
    """Secs. V and VII: deviations are detected quickly and reliably."""

    def test_g2g_epidemic_detects_droppers(self, infocom):
        strategies, bad = strategy_population(
            infocom.nodes, "dropper", 10, seed=1
        )
        results = run(
            infocom, G2GEpidemicForwarding(), strategies=strategies
        )
        assert results.detection_rate(bad) >= 0.8
        assert results.false_positives(bad) == set()

    def test_detection_time_minutes_scale(self, infocom):
        strategies, bad = strategy_population(
            infocom.nodes, "dropper", 10, seed=1
        )
        results = run(
            infocom, G2GEpidemicForwarding(), strategies=strategies
        )
        # paper: ~12 minutes after Δ1 on Infocom; allow a wide band.
        assert 0 < results.mean_detection_delay() < 45 * 60.0

    def test_g2g_delegation_detects_all_three_kinds(self, infocom):
        for kind in ("dropper", "liar", "cheater"):
            strategies, bad = strategy_population(
                infocom.nodes, kind, 10, seed=1
            )
            results = run(
                infocom,
                G2GDelegationForwarding("last_contact"),
                family="delegation",
                strategies=strategies,
            )
            assert results.detection_rate(bad) >= 0.4, kind
            assert results.false_positives(bad) == set(), kind

    def test_outsider_variants_detected(self, infocom, infocom_community):
        strategies, bad = strategy_population(
            infocom.nodes,
            "dropper_with_outsiders",
            10,
            seed=1,
            community=infocom_community,
        )
        results = run(infocom, G2GEpidemicForwarding(), strategies=strategies)
        assert results.detection_rate(bad) >= 0.5
        assert results.false_positives(bad) == set()


class TestG2GPerformance:
    """Sec. VIII: G2G costs less, with similar delay and success."""

    def test_g2g_epidemic_cheaper(self, infocom):
        vanilla = run(infocom, EpidemicForwarding())
        g2g = run(infocom, G2GEpidemicForwarding())
        assert g2g.cost < vanilla.cost
        assert g2g.mean_delay < vanilla.mean_delay * 1.5
        assert g2g.success_rate > vanilla.success_rate * 0.75

    def test_g2g_delegation_cheaper(self, infocom):
        vanilla = run(
            infocom, DelegationForwarding("last_contact"), family="delegation"
        )
        g2g = run(
            infocom,
            G2GDelegationForwarding("last_contact"),
            family="delegation",
        )
        assert g2g.cost < vanilla.cost

    def test_epidemic_costs_most(self, infocom):
        epidemic = run(infocom, EpidemicForwarding())
        delegation = run(
            infocom, DelegationForwarding("last_contact"), family="delegation"
        )
        assert epidemic.cost > 2 * delegation.cost

    def test_memory_overhead_within_constant_factor(self, infocom):
        """Sec. VIII: G2G memory is within a constant factor of vanilla."""
        vanilla = run(infocom, EpidemicForwarding())
        g2g = run(infocom, G2GEpidemicForwarding())
        assert (
            g2g.total_memory_byte_seconds
            < 4 * vanilla.total_memory_byte_seconds
        )
