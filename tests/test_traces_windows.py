"""Tests for evaluation-window selection."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.traces import (
    Contact,
    ContactTrace,
    EvaluationWindow,
    SILENT_TAIL,
    STANDARD_WINDOW,
    active_windows,
    busiest_window,
    make_contact,
)
from repro.traces.presets import standard_window, trace_by_name
from repro.traces.synthetic import SyntheticTrace
from repro.traces.windows import overlap_counter


def clustered_trace():
    """Activity concentrated between t=10000 and t=14000."""
    contacts = [make_contact(0, 1, 100.0, 150.0)]
    t = 10_000.0
    for i in range(30):
        contacts.append(make_contact(i % 3, (i + 1) % 3 + 1, t, t + 50.0))
        t += 120.0
    return ContactTrace(name="c", nodes=(0, 1, 2, 3), contacts=tuple(contacts))


class TestEvaluationWindow:
    def test_bounds(self):
        w = EvaluationWindow(start=500.0, length=100.0)
        assert w.end == 600.0
        assert w.generation_deadline == 100.0 - SILENT_TAIL

    def test_standard_length(self):
        assert EvaluationWindow(start=0.0).length == STANDARD_WINDOW

    def test_slice_shifts_origin(self):
        trace = clustered_trace()
        w = EvaluationWindow(start=10_000.0, length=5_000.0)
        sliced = w.slice(trace)
        assert sliced.start_time >= 0.0
        assert sliced.end_time <= 5_000.0


class TestBusiestWindow:
    def test_finds_cluster(self):
        trace = clustered_trace()
        w = busiest_window(trace, length=4_000.0, step=1_000.0)
        sliced = w.slice(trace)
        assert len(sliced) >= 25

    def test_short_trace_returns_full(self):
        trace = ContactTrace(
            name="s", nodes=(0, 1), contacts=(make_contact(0, 1, 0.0, 10.0),)
        )
        w = busiest_window(trace, length=100_000.0)
        assert w.start == trace.start_time


class TestActiveWindows:
    def test_threshold_filters(self):
        trace = clustered_trace()
        windows = active_windows(
            trace, length=4_000.0, step=1_000.0, min_contacts=10
        )
        assert windows
        for w in windows:
            count = sum(
                1 for c in trace.contacts if c.overlaps(w.start, w.end)
            )
            assert count >= 10

    def test_high_threshold_empty(self):
        trace = clustered_trace()
        assert (
            active_windows(
                trace, length=1_000.0, step=1_000.0, min_contacts=1_000
            )
            == []
        )


class TestSliceTypeGuard:
    def test_synthetic_bundle_rejected_with_hint(self):
        from repro.traces.synthetic import SyntheticTrace

        bundle = SyntheticTrace(
            trace=clustered_trace(), assignment=None, config=None
        )
        w = EvaluationWindow(start=0.0, length=1_000.0)
        with pytest.raises(TypeError, match=r"\.trace attribute"):
            w.slice(bundle)

    def test_unwrapped_trace_accepted(self):
        from repro.traces.synthetic import SyntheticTrace

        bundle = SyntheticTrace(
            trace=clustered_trace(), assignment=None, config=None
        )
        w = EvaluationWindow(start=0.0, length=1_000.0)
        assert w.slice(bundle.trace).duration <= 1_000.0

    def test_plain_wrong_type_has_no_hint(self):
        w = EvaluationWindow(start=0.0, length=1_000.0)
        with pytest.raises(TypeError) as excinfo:
            w.slice([1, 2, 3])
        assert "ContactTrace" in str(excinfo.value)
        assert ".trace attribute" not in str(excinfo.value)


def brute_count(trace, start, end):
    """The reference count: one ``overlaps`` call per contact."""
    return sum(1 for c in trace.contacts if c.overlaps(start, end))


def brute_busiest(trace, length, step):
    """``busiest_window`` as a full scan of every candidate window."""
    end_time = max(c.end for c in trace.contacts)
    if end_time - trace.start_time < length:
        return EvaluationWindow(start=trace.start_time, length=length)
    best_start, best_count = trace.start_time, -1
    start = trace.start_time
    while start + length <= end_time + step:
        count = brute_count(trace, start, start + length)
        if count > best_count:
            best_start, best_count = start, count
        start += step
    return EvaluationWindow(start=best_start, length=length)


def brute_active(trace, length, step, min_contacts):
    """``active_windows`` as a full scan of every candidate window."""
    end_time = max((c.end for c in trace.contacts), default=0.0)
    windows = []
    start = trace.start_time
    while start + length <= end_time:
        if brute_count(trace, start, start + length) >= min_contacts:
            windows.append(EvaluationWindow(start=start, length=length))
        start += step
    return windows


def brute_standard(trace):
    """``standard_window``'s cambridge06 rule with brute-force counts."""
    windows = brute_active(trace, STANDARD_WINDOW, 3600.0, 100)
    if not windows:
        return brute_busiest(trace, STANDARD_WINDOW, 1800.0)
    ranked = sorted(windows, key=lambda w: brute_count(trace, w.start, w.end))
    return ranked[int(len(ranked) * 0.75)]


# Integer timestamps on a coarse grid make contacts that end exactly at
# a window's start, begin exactly at its end, and share timestamps.
# A contact is (node, offset to the other node, start, duration).
_CONTACT = st.tuples(
    st.integers(0, 3), st.integers(1, 3), st.integers(0, 40), st.integers(1, 10)
)


def _trace(raw, scale=1.0, name="r"):
    return ContactTrace(
        name=name,
        nodes=(0, 1, 2, 3),
        contacts=tuple(
            make_contact(a, (a + off) % 4, start * scale, (start + dur) * scale)
            for a, off, start, dur in raw
        ),
    )


class TestOverlapCounter:
    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(_CONTACT, max_size=30),
        st.integers(-5, 55),
        st.integers(1, 20),
    )
    def test_equals_brute_force(self, raw, start, length):
        trace = _trace(raw)
        count = overlap_counter(trace)
        assert count(start, start + length) == brute_count(
            trace, start, start + length
        )

    def test_boundary_contacts(self):
        trace = ContactTrace(
            name="b",
            nodes=(0, 1, 2),
            contacts=(
                make_contact(0, 1, 0.0, 10.0),  # ends at the window start
                make_contact(1, 2, 20.0, 30.0),  # begins at the window end
                make_contact(0, 2, 10.0, 20.0),  # exactly the window
                make_contact(0, 1, 10.0, 20.0),  # same timestamps again
                make_contact(1, 2, 5.0, 25.0),  # covers the window
            ),
        )
        count = overlap_counter(trace)
        assert count(10.0, 20.0) == brute_count(trace, 10.0, 20.0) == 3

    def test_empty_trace(self):
        trace = ContactTrace(name="e", nodes=(0, 1), contacts=())
        assert overlap_counter(trace)(0.0, 10.0) == 0


class TestScansMatchBruteForce:
    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(_CONTACT, min_size=1, max_size=30),
        st.integers(1, 20),
        st.integers(1, 15),
    )
    def test_busiest_window(self, raw, length, step):
        trace = _trace(raw)
        assert busiest_window(trace, length, step) == brute_busiest(
            trace, length, step
        )

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(_CONTACT, max_size=30),
        st.integers(1, 20),
        st.integers(1, 15),
        st.integers(0, 6),
    )
    def test_active_windows(self, raw, length, step, min_contacts):
        trace = _trace(raw)
        assert active_windows(trace, length, step, min_contacts) == (
            brute_active(trace, length, step, min_contacts)
        )

    @settings(max_examples=50, deadline=None)
    @given(st.lists(_CONTACT, min_size=100, max_size=250))
    def test_standard_window(self, raw):
        # 100-250 contacts on a 450 s grid span about 6 hours: some draws
        # have no window of 100 contacts (the busiest-window fallback),
        # most have several (the 75th-percentile ranking).
        trace = _trace(raw, scale=450.0, name="cambridge06")
        bundle = SyntheticTrace(trace=trace, assignment=None, config=None)
        assert standard_window(bundle) == brute_standard(trace)

    def test_standard_window_ranks_active_windows(self):
        # Blocks of 150 contacts alternately 60 s and 90 s apart: every
        # 3-hour window holds 120-180 contacts, so the ranking decides.
        contacts, t = [], 0.0
        for i in range(900):
            t += 60.0 if (i // 150) % 2 == 0 else 90.0
            contacts.append(make_contact(i % 3, 3, t, t + 50.0))
        trace = ContactTrace(
            name="cambridge06", nodes=(0, 1, 2, 3), contacts=tuple(contacts)
        )
        bundle = SyntheticTrace(trace=trace, assignment=None, config=None)
        assert active_windows(trace, min_contacts=100)
        assert standard_window(bundle) == brute_standard(trace)


class TestEndTime:
    @settings(max_examples=100, deadline=None)
    @given(st.lists(_CONTACT, min_size=1, max_size=30))
    def test_is_latest_contact_end(self, raw):
        trace = _trace(raw)
        assert trace.end_time == max(c.end for c in trace.contacts)

    def test_empty_trace(self):
        trace = ContactTrace(name="e", nodes=(0, 1), contacts=())
        assert trace.end_time == 0.0
        assert trace.duration == 0.0


class TestScanArguments:
    @pytest.mark.parametrize("scan", [busiest_window, active_windows])
    @pytest.mark.parametrize("step", [0.0, -1800.0])
    def test_non_positive_step_rejected(self, scan, step):
        with pytest.raises(ValueError, match="step"):
            scan(clustered_trace(), step=step)

    @pytest.mark.parametrize("scan", [busiest_window, active_windows])
    @pytest.mark.parametrize("length", [0.0, -3600.0])
    def test_non_positive_length_rejected(self, scan, length):
        with pytest.raises(ValueError, match="length"):
            scan(clustered_trace(), length=length)


#: Seed-0 standard-window starts of the paper traces.
PAPER_WINDOW_STARTS = {
    "infocom05": 203400.28449879758,
    "cambridge06": 136802.63039144318,
}


@pytest.fixture(scope="module")
def paper_traces():
    return {name: trace_by_name(name) for name in PAPER_WINDOW_STARTS}


class TestPaperWindows:
    @pytest.mark.parametrize("name", sorted(PAPER_WINDOW_STARTS))
    def test_seed0_start_pinned(self, paper_traces, name):
        window = standard_window(paper_traces[name])
        assert window.start == PAPER_WINDOW_STARTS[name]
        assert window.length == STANDARD_WINDOW

    @pytest.mark.parametrize("name", sorted(PAPER_WINDOW_STARTS))
    def test_no_per_contact_overlap_scan(self, paper_traces, monkeypatch, name):
        # Counter guard: the scan answers every candidate window by
        # bisection (a full per-contact scan made ~8.6 M calls here).
        calls = []
        original = Contact.overlaps

        def counting(self, start, end):
            calls.append(1)
            return original(self, start, end)

        monkeypatch.setattr(Contact, "overlaps", counting)
        standard_window(paper_traces[name])
        assert len(calls) == 0
