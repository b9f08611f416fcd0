"""Tests for contact-graph aggregation."""

from repro.social import ContactGraph, top_quantile_graph
from repro.traces import ContactTrace, make_contact


def sample_trace():
    return ContactTrace(
        name="g",
        nodes=(0, 1, 2, 3, 9),
        contacts=(
            make_contact(0, 1, 0.0, 100.0),
            make_contact(0, 1, 200.0, 250.0),
            make_contact(1, 2, 300.0, 310.0),
            make_contact(2, 3, 400.0, 405.0),
        ),
    )


class TestContactGraph:
    def test_aggregation(self):
        g = ContactGraph.from_trace(sample_trace())
        assert g.contact_count(0, 1) == 2
        assert g.contact_duration(0, 1) == 150.0
        assert g.contact_count(1, 2) == 1
        assert g.contact_count(0, 3) == 0

    def test_neighbors(self):
        g = ContactGraph.from_trace(sample_trace())
        assert g.neighbors(1) == {0, 2}
        assert g.neighbors(9) == set()

    def test_degree(self):
        g = ContactGraph.from_trace(sample_trace())
        assert g.degree(1) == 2
        assert g.degree(9) == 0

    def test_thresholded_by_count(self):
        g = ContactGraph.from_trace(sample_trace()).thresholded(min_contacts=2)
        assert g.contact_count(0, 1) == 2
        assert g.contact_count(1, 2) == 0

    def test_thresholded_by_duration(self):
        g = ContactGraph.from_trace(sample_trace()).thresholded(
            min_duration=20.0
        )
        assert g.num_edges == 1

    def test_adjacency_includes_isolated(self):
        adj = ContactGraph.from_trace(sample_trace()).adjacency()
        assert adj[9] == set()
        assert adj[0] == {1}


class TestTopQuantile:
    def test_keeps_strongest_edges(self):
        g = top_quantile_graph(sample_trace(), quantile=0.5)
        assert g.contact_duration(0, 1) > 0
        # The weakest edge (2-3, 5 s) is cut.
        assert g.contact_count(2, 3) == 0

    def test_zero_quantile_keeps_all(self):
        g = top_quantile_graph(sample_trace(), quantile=0.0)
        assert g.num_edges == 3

    def test_invalid_quantile(self):
        import pytest

        with pytest.raises(ValueError):
            top_quantile_graph(sample_trace(), quantile=1.0)

    def test_empty_trace(self):
        empty = ContactTrace(name="e", nodes=(0, 1), contacts=())
        assert top_quantile_graph(empty).num_edges == 0
