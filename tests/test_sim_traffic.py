"""Tests for the Poisson traffic generator."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.config import SimulationConfig
from repro.sim.traffic import PoissonTraffic


def config(**overrides):
    base = dict(run_length=7200.0, silent_tail=1800.0, mean_interarrival=10.0)
    base.update(overrides)
    return SimulationConfig(**base)


class TestPoissonTraffic:
    def test_deterministic(self):
        a = PoissonTraffic((0, 1, 2), config(seed=3)).plan()
        b = PoissonTraffic((0, 1, 2), config(seed=3)).plan()
        assert a == b

    def test_seed_changes_plan(self):
        a = PoissonTraffic((0, 1, 2), config(seed=3)).plan()
        b = PoissonTraffic((0, 1, 2), config(seed=4)).plan()
        assert a != b

    def test_respects_deadline(self):
        plan = PoissonTraffic((0, 1, 2), config()).plan()
        assert all(d.time < 5400.0 for d in plan)

    def test_sorted_times(self):
        plan = PoissonTraffic((0, 1, 2), config()).plan()
        times = [d.time for d in plan]
        assert times == sorted(times)

    def test_distinct_endpoints(self):
        plan = PoissonTraffic((0, 1), config()).plan()
        assert all(d.source != d.destination for d in plan)

    def test_rate_roughly_matches(self):
        plan = PoissonTraffic(
            tuple(range(10)), config(mean_interarrival=5.0)
        ).plan()
        expected = 5400.0 / 5.0
        assert expected * 0.7 < len(plan) < expected * 1.3

    def test_uniform_endpoints(self):
        plan = PoissonTraffic(
            tuple(range(5)), config(mean_interarrival=2.0, seed=1)
        ).plan()
        from collections import Counter

        sources = Counter(d.source for d in plan)
        assert len(sources) == 5
        counts = sorted(sources.values())
        assert counts[0] > counts[-1] * 0.5  # no wild skew

    def test_single_node_rejected(self):
        with pytest.raises(ValueError):
            PoissonTraffic((0,), config())

    @settings(max_examples=20)
    @given(seed=st.integers(0, 10**6))
    def test_endpoints_always_in_universe(self, seed):
        nodes = (3, 7, 11)
        plan = PoissonTraffic(nodes, config(seed=seed)).plan()
        for d in plan:
            assert d.source in nodes and d.destination in nodes
