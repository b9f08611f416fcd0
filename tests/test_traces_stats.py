"""Tests for trace statistics."""

import pytest

from repro.traces import (
    ContactTrace,
    SummaryStats,
    TraceProfile,
    contact_durations,
    contacts_per_pair,
    inter_contact_times,
    make_contact,
    pairwise_contacts,
    reencounter_probability,
)


class TestSummaryStats:
    def test_empty(self):
        s = SummaryStats.of([])
        assert s.count == 0 and s.mean == 0.0

    def test_basic(self):
        s = SummaryStats.of([1.0, 2.0, 3.0, 4.0])
        assert s.count == 4
        assert s.mean == 2.5
        assert s.median == 2.5
        assert s.maximum == 4.0

    def test_p90(self):
        s = SummaryStats.of(list(map(float, range(1, 11))))
        assert s.p90 == pytest.approx(9.1)


class TestDurations:
    def test_durations(self, pair_trace):
        assert contact_durations(pair_trace) == [100.0, 100.0, 100.0]


class TestPairwise:
    def test_grouping(self, line_trace):
        pairs = pairwise_contacts(line_trace)
        assert len(pairs[frozenset((0, 1))]) == 2
        assert len(pairs[frozenset((2, 3))]) == 1

    def test_counts(self, line_trace):
        counts = contacts_per_pair(line_trace)
        assert counts[frozenset((1, 2))] == 2


class TestInterContact:
    def test_gaps(self, pair_trace):
        gaps = inter_contact_times(pair_trace)
        assert gaps == [800.0, 1900.0]

    def test_single_contacts_have_no_gap(self):
        trace = ContactTrace(
            name="t", nodes=(0, 1), contacts=(make_contact(0, 1, 0.0, 1.0),)
        )
        assert inter_contact_times(trace) == []


class TestReencounter:
    def test_all_reencountered(self):
        # Pair meets at 0 and 50; window large enough.
        trace = ContactTrace(
            name="t",
            nodes=(0, 1),
            contacts=(
                make_contact(0, 1, 0.0, 10.0),
                make_contact(0, 1, 50.0, 60.0),
                make_contact(0, 1, 5000.0, 5010.0),
            ),
        )
        # First contact re-encountered within 100s; second not (gap
        # 4940 > 100); third excluded (no room before trace end).
        assert reencounter_probability(trace, within=100.0) == 0.5

    def test_empty_trace(self):
        trace = ContactTrace(name="t", nodes=(0, 1), contacts=())
        assert reencounter_probability(trace, within=60.0) == 0.0


class TestProfile:
    def test_profile(self, line_trace):
        profile = TraceProfile.of(line_trace)
        assert profile.num_nodes == 4
        assert profile.num_contacts == 5
        assert profile.distinct_pairs == 3
        assert 0 < profile.pair_coverage <= 1
        assert "trace line" in profile.describe()
