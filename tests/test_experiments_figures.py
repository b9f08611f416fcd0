"""Structural tests of the figure modules with a stubbed runner.

The benchmarks run the real sweeps; these tests verify the harness
*structure* cheaply — which grid points each figure visits, how series
are labelled, and how results are assembled — by monkeypatching
``run_point`` / ``run_series``.
"""

import pytest

from repro.experiments import PROTOCOLS, fig3, fig4, fig5, fig7, fig8, table1
from repro.experiments.catalog import protocol
from repro.experiments.runner import PointResult, ReplicationPlan


def fake_point(**overrides):
    base = dict(
        success_rate=0.5,
        mean_delay=600.0,
        cost=10.0,
        memory_byte_seconds=1e6,
        detection_rate=0.9,
        detection_delay=900.0,
        detection_delay_after_ttl=450.0,
        false_positives=0,
        runs=[],
    )
    base.update(overrides)
    return PointResult(**base)


@pytest.fixture
def calls(monkeypatch):
    """Stub run_point/run_series in every figure module; record calls.

    The recorded shape is one entry per grid point, whether the module
    runs points one at a time or as a batched series.
    """
    recorded = []

    def record(trace_name, protocol_name, deviation, count):
        recorded.append(
            dict(
                trace=trace_name,
                protocol=protocol_name,
                family=protocol(protocol_name)[0],
                deviation=deviation,
                count=count,
            )
        )

    def stub_point(trace_name, protocol_name, deviation=None,
                   deviation_count=0, plan=None, config_overrides=None,
                   options=None):
        record(trace_name, protocol_name, deviation, deviation_count)
        return fake_point()

    def stub_series(trace_name, protocol_name, counts, deviation,
                    plan=None, config_overrides=None, options=None):
        out = []
        for count in counts:
            record(
                trace_name, protocol_name, deviation if count else None, count
            )
            out.append((count, fake_point()))
        return out

    for module in (fig8, table1):
        monkeypatch.setattr(module, "run_point", stub_point)
    for module in (fig3, fig4, fig5, fig7):
        monkeypatch.setattr(module, "run_series", stub_series)
    return recorded


PLAN = ReplicationPlan(seeds=(1,))


class TestFig3Structure:
    def test_series_and_grid(self, calls):
        figures = fig3.run(quick=True, plan=PLAN)
        assert set(figures) == {"infocom05", "cambridge06"}
        figure = figures["infocom05"]
        assert [s.label for s in figure.series] == [
            "Droppers",
            "Droppers with outsiders",
        ]
        # zero-dropper points run with deviation=None
        zero_calls = [c for c in calls if c["count"] == 0]
        assert all(c["deviation"] is None for c in zero_calls)

    def test_family_is_epidemic(self, calls):
        fig3.run(quick=True, plan=PLAN)
        assert all(c["family"] == "epidemic" for c in calls)


class TestFig4Structure:
    def test_skips_zero_count(self, calls):
        out = fig4.run(quick=True, plan=PLAN)
        assert all(c["count"] > 0 for c in calls)
        detection = out["infocom05"]
        assert set(detection.detection_rates) == {
            "Droppers",
            "Droppers with outsiders",
        }
        assert detection.detection_rates["Droppers"] == pytest.approx(0.9)

    def test_detection_time_converted_to_minutes(self, calls):
        out = fig4.run(quick=True, plan=PLAN)
        series = out["infocom05"].figure.series[0]
        assert all(y == pytest.approx(450.0 / 60) for y in series.ys)


class TestFig5Structure:
    def test_four_panels(self, calls):
        figures = fig5.run(quick=True, plan=PLAN)
        assert set(figures) == {
            ("droppers", "infocom05"),
            ("droppers", "cambridge06"),
            ("liars", "infocom05"),
            ("liars", "cambridge06"),
        }

    def test_delegation_family(self, calls):
        fig5.run(quick=True, plan=PLAN)
        assert all(c["family"] == "delegation" for c in calls)


class TestFig7Structure:
    def test_quick_mode_trims_kinds(self, calls):
        figures = fig7.run(quick=True, plan=PLAN)
        labels = [s.label for s in figures["infocom05"].series]
        assert labels == ["Droppers", "Liars", "Cheaters"]

    def test_full_mode_has_six_kinds(self, calls):
        figures = fig7.run(quick=False, plan=PLAN)
        assert len(figures["infocom05"].series) == 6


class TestFig8Structure:
    def test_all_protocols_measured(self, calls):
        panels = fig8.run(quick=True, plan=PLAN)
        for panel in panels.values():
            assert len(panel.points) == 6
        assert [c["protocol"] for c in calls] == list(PROTOCOLS) * 2

    def test_cost_reduction_computation(self, calls):
        panels = fig8.run(quick=True, plan=PLAN)
        panel = panels["infocom05"]
        # stub gives equal costs -> zero reduction
        assert panel.cost_reduction("epidemic", "g2g_epidemic") == 0.0

    def test_render_contains_labels(self, calls):
        panels = fig8.run(quick=True, plan=PLAN)
        text = panels["infocom05"].render()
        assert "G2G Epidemic" in text
        assert "cost reduction" in text


class TestTable1Structure:
    def test_all_cells_present(self, calls):
        table = table1.run(quick=True, plan=PLAN)
        assert len(table.cells) == 12  # 6 kinds x 2 traces
        cell = table.cells[("dropper", "infocom05")]
        assert cell.paper_rate == 0.88
        assert cell.detection_rate == pytest.approx(0.9)

    def test_render(self, calls):
        table = table1.run(quick=True, plan=PLAN)
        text = table.render()
        assert "Cheaters with outsiders" in text
        assert "(p " in text  # paper references inline
