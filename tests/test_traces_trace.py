"""Tests for the contact-trace data model."""

import copy
import dataclasses
import pickle

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.traces import Contact, ContactTrace, make_contact


class TestContact:
    def test_normalized_order(self):
        c = make_contact(5, 2, 0.0, 10.0)
        assert (c.a, c.b) == (2, 5)

    def test_duration(self):
        assert make_contact(0, 1, 5.0, 25.0).duration == 20.0

    def test_self_contact_rejected(self):
        with pytest.raises(ValueError):
            make_contact(3, 3, 0.0, 1.0)

    def test_zero_duration_rejected(self):
        with pytest.raises(ValueError):
            make_contact(0, 1, 5.0, 5.0)

    def test_negative_duration_rejected(self):
        with pytest.raises(ValueError):
            make_contact(0, 1, 5.0, 4.0)

    def test_other(self):
        c = make_contact(0, 1, 0.0, 1.0)
        assert c.other(0) == 1
        assert c.other(1) == 0

    def test_other_unknown_raises(self):
        with pytest.raises(ValueError):
            make_contact(0, 1, 0.0, 1.0).other(9)

    def test_involves(self):
        c = make_contact(0, 1, 0.0, 1.0)
        assert c.involves(0) and c.involves(1) and not c.involves(2)

    def test_overlaps(self):
        c = make_contact(0, 1, 10.0, 20.0)
        assert c.overlaps(15.0, 30.0)
        assert c.overlaps(0.0, 11.0)
        assert not c.overlaps(20.0, 30.0)  # half-open
        assert not c.overlaps(0.0, 10.0)

    def test_pair(self):
        assert make_contact(4, 2, 0.0, 1.0).pair == frozenset((2, 4))


class TestContactSlots:
    """A streamed trace builds one Contact per contact: no per-instance dict."""

    def test_no_dict_and_no_ad_hoc_attributes(self):
        c = make_contact(0, 1, 0.0, 1.0)
        assert not hasattr(c, "__dict__")
        # The frozen ``__setattr__`` of a slotted dataclass raises
        # TypeError for a non-field name before Python 3.12.
        with pytest.raises((AttributeError, TypeError)):
            c.ad_hoc = 1
        with pytest.raises(AttributeError):
            object.__setattr__(c, "ad_hoc", 1)

    def test_fields_are_immutable(self):
        c = make_contact(0, 1, 0.0, 1.0)
        for name in ("start", "end", "a", "b"):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(c, name, 5)
        assert (c.start, c.end, c.a, c.b) == (0.0, 1.0, 0, 1)

    def test_positional_and_keyword_construction_agree(self):
        assert Contact(2.0, 3.0, 4, 7) == Contact(start=2.0, end=3.0, a=4, b=7)
        assert [f.name for f in dataclasses.fields(Contact)] == [
            "start", "end", "a", "b",
        ]

    def test_eq_and_hash_are_the_field_tuple(self):
        c = make_contact(9, 4, 1.5, 2.5)
        assert c == Contact(start=1.5, end=2.5, a=4, b=9)
        assert c != Contact(start=1.5, end=2.5, a=4, b=8)
        assert c != (1.5, 2.5, 4, 9)
        # The dataclass hash: sets of contacts iterate as before.
        assert hash(c) == hash((1.5, 2.5, 4, 9))
        assert len({c, make_contact(4, 9, 1.5, 2.5)}) == 1

    def test_order_is_start_end_a_b(self):
        contacts = [
            make_contact(0, 1, 5.0, 6.0),
            make_contact(2, 3, 1.0, 9.0),
            make_contact(0, 2, 1.0, 9.0),
            make_contact(0, 1, 1.0, 2.0),
        ]
        assert [(c.start, c.end, c.a, c.b) for c in sorted(contacts)] == [
            (1.0, 2.0, 0, 1),
            (1.0, 9.0, 0, 2),
            (1.0, 9.0, 2, 3),
            (5.0, 6.0, 0, 1),
        ]
        assert contacts[3] < contacts[0] and contacts[0] >= contacts[1]

    def test_pickle_and_copy_round_trip(self):
        c = make_contact(3, 8, 10.0, 12.5)
        for restored in (pickle.loads(pickle.dumps(c)), copy.copy(c), copy.deepcopy(c)):
            assert restored == c and hash(restored) == hash(c)
            assert not hasattr(restored, "__dict__")

    def test_validation_holds_for_every_constructor_path(self):
        with pytest.raises(ValueError, match="self-contact"):
            Contact(0.0, 1.0, 2, 2)
        with pytest.raises(ValueError, match="positive duration"):
            Contact(start=1.0, end=1.0, a=0, b=1)
        c = make_contact(0, 1, 0.0, 1.0)
        with pytest.raises(ValueError, match="positive duration"):
            dataclasses.replace(c, end=0.0)
        assert dataclasses.replace(c, end=4.0).duration == 4.0


class TestContactTrace:
    def test_contacts_sorted(self):
        trace = ContactTrace(
            name="t",
            nodes=(0, 1, 2),
            contacts=(
                make_contact(1, 2, 50.0, 60.0),
                make_contact(0, 1, 10.0, 20.0),
            ),
        )
        assert [c.start for c in trace.contacts] == [10.0, 50.0]

    def test_unknown_node_rejected(self):
        with pytest.raises(ValueError):
            ContactTrace(
                name="t",
                nodes=(0, 1),
                contacts=(make_contact(0, 5, 0.0, 1.0),),
            )

    def test_times(self, pair_trace):
        assert pair_trace.start_time == 100.0
        assert pair_trace.end_time == 3100.0
        assert pair_trace.duration == 3000.0

    def test_empty_trace_times(self):
        trace = ContactTrace(name="e", nodes=(0, 1), contacts=())
        assert trace.start_time == 0.0
        assert trace.duration == 0.0

    def test_len_and_iter(self, pair_trace):
        assert len(pair_trace) == 3
        assert len(list(pair_trace)) == 3

    def test_contacts_of(self, line_trace):
        assert len(line_trace.contacts_of(1)) == 4
        assert len(line_trace.contacts_of(3)) == 1

    def test_contacts_of_isolated_node(self):
        trace = ContactTrace(
            name="t", nodes=(0, 1, 9), contacts=(make_contact(0, 1, 0.0, 1.0),)
        )
        assert list(trace.contacts_of(9)) == []

    def test_contacts_of_ordering_pinned(self, line_trace):
        # The per-node index must list each node's contacts in exactly
        # the order a scan of the sorted trace would find them —
        # protocols iterate contacts_of() and any reordering would
        # shift RNG draws and break bit-identical replays.
        for node in line_trace.nodes:
            expected = [
                c for c in line_trace.contacts if c.involves(node)
            ]
            assert list(line_trace.contacts_of(node)) == expected

    def test_window_shifts_times(self, pair_trace):
        w = pair_trace.window(500.0, 3500.0)
        assert [c.start for c in w.contacts] == [500.0, 2500.0]

    def test_window_truncates_straddlers(self):
        trace = ContactTrace(
            name="t", nodes=(0, 1), contacts=(make_contact(0, 1, 0.0, 100.0),)
        )
        w = trace.window(50.0, 80.0)
        assert w.contacts[0].start == 0.0
        assert w.contacts[0].end == 30.0

    def test_window_preserves_universe(self, pair_trace):
        w = pair_trace.window(0.0, 50.0)
        assert w.nodes == pair_trace.nodes
        assert len(w) == 0

    def test_empty_window_rejected(self, pair_trace):
        with pytest.raises(ValueError):
            pair_trace.window(100.0, 100.0)

    def test_restricted_to(self, line_trace):
        r = line_trace.restricted_to((0, 1, 2))
        assert r.nodes == (0, 1, 2)
        assert all(c.a in (0, 1, 2) and c.b in (0, 1, 2) for c in r)
        assert len(r) == 4

    def test_nodes_deduplicated_and_sorted(self):
        trace = ContactTrace(name="t", nodes=(3, 1, 3, 2), contacts=())
        assert trace.nodes == (1, 2, 3)


@given(
    start=st.floats(0, 1000),
    length=st.floats(1, 1000),
    wstart=st.floats(0, 2000),
    wlen=st.floats(1, 2000),
)
def test_window_invariants(start, length, wstart, wlen):
    """Windowing never produces out-of-range or inverted contacts."""
    trace = ContactTrace(
        name="t",
        nodes=(0, 1),
        contacts=(make_contact(0, 1, start, start + length),),
    )
    wend = wstart + wlen
    w = trace.window(wstart, wend)
    for c in w.contacts:
        # The window guarantee: all clipped contacts lie in
        # [0, end - start] of the shifted time axis.
        assert 0.0 <= c.start < c.end <= wend - wstart
