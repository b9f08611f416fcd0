"""Tests for the experiment harness (setting, runner, catalog)."""

import pytest

from repro.experiments import (
    LABELS,
    PROTOCOLS,
    ReplicationPlan,
    Series,
    adversary_counts,
    evaluation_community,
    evaluation_trace,
    protocol,
    run_point,
    standard_config,
)
from repro.experiments.runner import FigureData


class TestSetting:
    def test_traces_cached(self):
        a = evaluation_trace("infocom05")
        b = evaluation_trace("infocom05")
        assert a is b

    def test_trace_is_three_hours(self):
        trace = evaluation_trace("infocom05")
        assert trace.end_time <= 3 * 3600.0

    def test_community_cached_and_usable(self):
        cmap = evaluation_community("infocom05")
        nodes = evaluation_trace("infocom05").nodes
        assert cmap.same_community(nodes[0], nodes[0]) in (True, False)

    def test_adversary_counts_cover_range(self):
        counts = adversary_counts("infocom05")
        assert counts[0] == 0
        assert counts[-1] == 40  # 41 nodes
        assert counts == tuple(sorted(counts))

    def test_quick_counts_sparser(self):
        assert len(adversary_counts("infocom05", quick=True)) < len(
            adversary_counts("infocom05")
        )

    def test_standard_config_ttls(self):
        assert standard_config("infocom05", "epidemic", 1).ttl == 1800.0
        assert standard_config("cambridge06", "delegation", 1).ttl == 4500.0

    def test_replication_plan(self):
        assert len(ReplicationPlan.make(quick=True).seeds) == 2
        assert len(ReplicationPlan.make(quick=False).seeds) == 3


class TestCatalog:
    def test_six_protocols(self):
        assert len(PROTOCOLS) == 6
        assert set(LABELS) == set(PROTOCOLS)

    def test_factories_fresh_instances(self):
        _, factory = protocol("g2g_epidemic")
        assert factory() is not factory()

    def test_families(self):
        assert protocol("epidemic")[0] == "epidemic"
        assert protocol("g2g_delegation_frequency")[0] == "delegation"

    def test_unknown(self):
        with pytest.raises(KeyError):
            protocol("prophet")


class TestRunPoint:
    @pytest.fixture(scope="class")
    def point(self):
        return run_point(
            "infocom05",
            "epidemic",
            plan=ReplicationPlan(seeds=(1,)),
        )

    def test_metrics_populated(self, point):
        assert 0 < point.success_rate <= 1
        assert point.cost > 0
        assert point.mean_delay > 0
        assert len(point.runs) == 1

    def test_no_adversaries_no_detection(self, point):
        assert point.detection_rate == 0.0
        assert point.false_positives == 0

    def test_with_adversaries(self):
        point = run_point(
            "infocom05",
            "epidemic",
            deviation="dropper",
            deviation_count=10,
            plan=ReplicationPlan(seeds=(1,)),
        )
        # vanilla epidemic detects nothing but suffers delivery loss.
        assert point.detection_rate == 0.0

    def test_config_overrides(self):
        point = run_point(
            "infocom05",
            "epidemic",
            plan=ReplicationPlan(seeds=(1,)),
            config_overrides={"mean_interarrival": 8.0},
        )
        assert point.runs[0].generated < 1300


class TestFigureData:
    def test_render(self):
        figure = FigureData(
            figure_id="figX",
            title="demo",
            x_label="n",
            y_label="%",
            series=[Series(label="a", xs=[0, 5], ys=[72.0, 64.0])],
        )
        text = figure.render()
        assert "figX" in text
        assert "72.00" in text

    def test_series_lookup(self):
        figure = FigureData(
            figure_id="f", title="t", x_label="x", y_label="y",
            series=[Series(label="a")],
        )
        assert figure.series_by_label("a").label == "a"
        with pytest.raises(KeyError):
            figure.series_by_label("missing")

    def test_series_rows(self):
        s = Series(label="a")
        s.add(1.0, 2.0)
        assert s.as_rows() == [(1.0, 2.0)]
