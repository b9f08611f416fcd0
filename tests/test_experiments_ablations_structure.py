"""Structural tests of the ablation sweeps with a stubbed runner."""

import pytest

from repro.experiments import ablations
from repro.experiments.runner import PointResult, ReplicationPlan


def fake_point(**overrides):
    base = dict(
        success_rate=0.6,
        mean_delay=600.0,
        cost=12.0,
        memory_byte_seconds=1e6,
        detection_rate=0.85,
        detection_delay=800.0,
        detection_delay_after_ttl=400.0,
        false_positives=0,
        runs=[],
    )
    base.update(overrides)
    return PointResult(**base)


@pytest.fixture
def calls(monkeypatch):
    recorded = []

    def stub(trace_name, protocol_name, deviation=None,
             deviation_count=0, plan=None, config_overrides=None,
             options=None):
        recorded.append(
            dict(
                protocol=protocol_name,
                deviation=deviation,
                count=deviation_count,
                overrides=config_overrides or {},
            )
        )
        return fake_point()

    monkeypatch.setattr(ablations, "run_point", stub)
    return recorded


PLAN = ReplicationPlan(seeds=(1,))


class TestFanoutSweep:
    def test_visits_each_cap(self, calls):
        figure = ablations.fanout_sweep(caps=(1, 2, 3), plan=PLAN)
        assert [c["overrides"]["relay_fanout"] for c in calls] == [1, 2, 3]
        assert figure.series_by_label("Delivery %").xs == [1, 2, 3]
        assert figure.series_by_label("Cost (replicas)").xs == [1, 2, 3]


class TestDelta2Sweep:
    def test_overrides_and_droppers(self, calls):
        ablations.delta2_sweep(factors=(1.5, 2.0), droppers=7, plan=PLAN)
        assert [c["overrides"]["delta2_factor"] for c in calls] == [1.5, 2.0]
        assert all(c["deviation"] == "dropper" for c in calls)
        assert all(c["count"] == 7 for c in calls)

    def test_rates_in_percent(self, calls):
        figure = ablations.delta2_sweep(factors=(2.0,), plan=PLAN)
        assert figure.series_by_label("Detection rate %").ys == [
            pytest.approx(85.0)
        ]


class TestTimeframeSweep:
    def test_liars_and_minutes_axis(self, calls):
        figure = ablations.timeframe_sweep(
            timeframes=(600.0, 2040.0), plan=PLAN
        )
        assert all(c["deviation"] == "liar" for c in calls)
        assert figure.series_by_label("Detection rate %").xs == [10.0, 34.0]


class TestBufferSweep:
    def test_zero_encodes_unbounded(self, calls):
        figure = ablations.buffer_capacity_sweep(
            capacities=(5, None), plan=PLAN
        )
        assert figure.series_by_label("Delivery %").xs == [5.0, 0.0]
        assert calls[0]["overrides"]["buffer_capacity"] == 5
        assert calls[1]["overrides"]["buffer_capacity"] is None


class TestComparisons:
    def test_blacklist_keys(self, calls):
        out = ablations.blacklist_comparison(plan=PLAN)
        assert set(out) == {
            "instant_detection_rate",
            "instant_detection_minutes",
            "instant_success_percent",
            "gossip_detection_rate",
            "gossip_detection_minutes",
            "gossip_success_percent",
        }
        assert calls[0]["overrides"]["instant_blacklist"] is True
        assert calls[1]["overrides"]["instant_blacklist"] is False

    def test_testers_keys(self, calls):
        out = ablations.testers_comparison(plan=PLAN)
        assert "source_test_phases" in out
        assert "any_giver_detection_rate" in out
        assert [c["overrides"]["testers"] for c in calls] == [
            "source",
            "any_giver",
        ]
        assert all(c["protocol"] == "g2g_epidemic" for c in calls)
