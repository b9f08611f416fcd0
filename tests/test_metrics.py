"""Tests for the metrics aggregation / shape predicate / report toolkit."""

import pytest

from repro.metrics import (
    Estimate,
    minutes,
    monotone_decreasing,
    percent,
    roughly_flat,
    text_table,
)
from repro.metrics.aggregate import aggregate
from repro.sim.messages import Message
from repro.sim.results import SimulationResults


def run_with_success(rate):
    results = SimulationResults()
    n = 10
    for i in range(n):
        m = Message(
            msg_id=i, source=0, destination=1, created_at=0.0, ttl=60.0
        )
        results.record_generated(m)
        if i < rate * n:
            results.record_delivery(m, 10.0)
    return results


class TestEstimate:
    def test_empty(self):
        e = Estimate.of([])
        assert (e.mean, e.std, e.n) == (0.0, 0.0, 0)

    def test_single(self):
        e = Estimate.of([4.0])
        assert e.mean == 4.0
        assert e.std == 0.0
        assert e.ci95() == 0.0

    def test_mean_std(self):
        e = Estimate.of([1.0, 2.0, 3.0])
        assert e.mean == 2.0
        assert e.std == pytest.approx(1.0)
        assert e.stderr == pytest.approx(1.0 / 3**0.5)

    def test_str(self):
        assert "n=3" in str(Estimate.of([1.0, 2.0, 3.0]))


class TestAggregate:
    def test_custom_metric(self):
        runs = [run_with_success(0.4), run_with_success(0.6)]
        e = aggregate(runs, lambda r: float(r.generated))
        assert e.mean == 10.0

    def test_detection_rates_estimate(self):
        from repro.metrics import detection_rates
        from repro.sim.results import DetectionRecord

        run = run_with_success(0.5)
        run.record_detection(
            DetectionRecord(
                offender=7, detector=0, time=10.0, msg_id=0,
                deviation="dropper", delay_after_ttl=1.0,
            )
        )
        estimate = detection_rates([run], misbehaving=[7, 8])
        assert estimate.mean == pytest.approx(0.5)


class TestPredicates:
    def test_monotone_decreasing(self):
        assert monotone_decreasing([5.0, 4.0, 4.0, 1.0])
        assert not monotone_decreasing([5.0, 6.0, 4.0])
        assert monotone_decreasing([5.0, 5.5, 4.0], slack=0.6)

    def test_roughly_flat(self):
        assert roughly_flat([10.0, 12.0, 9.0])
        assert not roughly_flat([1.0, 10.0])
        assert roughly_flat([0.0, 0.0])  # vacuous


class TestRendering:
    def test_text_table_aligned(self):
        table = text_table(["name", "value"], [["a", 1.5], ["bb", 2.0]])
        lines = table.splitlines()
        assert len(lines) == 4
        assert lines[0].index("value") == lines[2].index("1.50")

    def test_formatters(self):
        assert minutes(90.0) == "1.5m"
        assert percent(0.125) == "12.5%"
