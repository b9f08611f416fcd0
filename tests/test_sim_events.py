"""Tests for the event queue and the run scheduler."""

from itertools import permutations

import pytest

from repro.perf.counters import COUNTERS
from repro.sim.eventlog import EventLog, EventType
from repro.sim.events import Event, EventKind, EventQueue, Scheduler, TimerHandle
from repro.traces import make_contact


class TestOrdering:
    def test_time_order(self):
        q = EventQueue()
        q.push(Event(time=5.0, kind=EventKind.MESSAGE_GENERATION, traffic=(0, 1)))
        q.push(Event(time=1.0, kind=EventKind.MESSAGE_GENERATION, traffic=(1, 2)))
        q.push(Event(time=3.0, kind=EventKind.MESSAGE_GENERATION, traffic=(2, 3)))
        assert [e.time for e in q.drain()] == [1.0, 3.0, 5.0]

    def test_end_before_start_at_same_instant(self):
        q = EventQueue()
        c1 = make_contact(0, 1, 0.0, 10.0)
        c2 = make_contact(0, 1, 10.0, 20.0)
        q.push_contact(c1)
        q.push_contact(c2)
        kinds = [(e.time, e.kind) for e in q.drain()]
        assert kinds == [
            (0.0, EventKind.CONTACT_START),
            (10.0, EventKind.CONTACT_END),
            (10.0, EventKind.CONTACT_START),
            (20.0, EventKind.CONTACT_END),
        ]

    def test_generation_after_start_at_same_instant(self):
        q = EventQueue()
        q.push(Event(time=5.0, kind=EventKind.MESSAGE_GENERATION, traffic=(0, 1)))
        q.push_contact(make_contact(0, 1, 5.0, 6.0))
        kinds = [e.kind for e in q.drain() if e.time == 5.0]
        assert kinds == [EventKind.CONTACT_START, EventKind.MESSAGE_GENERATION]

    def test_fifo_tiebreak_within_kind(self):
        q = EventQueue()
        q.push(Event(time=1.0, kind=EventKind.MESSAGE_GENERATION, traffic=(0, 1)))
        q.push(Event(time=1.0, kind=EventKind.MESSAGE_GENERATION, traffic=(2, 3)))
        events = list(q.drain())
        assert events[0].traffic == (0, 1)
        assert events[1].traffic == (2, 3)

    def test_len_and_bool(self):
        q = EventQueue()
        assert not q
        q.push_contact(make_contact(0, 1, 0.0, 1.0))
        assert len(q) == 2
        assert q

    def test_pop_empty_raises(self):
        with pytest.raises(IndexError):
            EventQueue().pop()


class TestEventSlots:
    """Every streamed contact costs two events: no per-instance dict."""

    def test_no_dict_and_no_ad_hoc_attributes(self):
        event = Event(time=1.0, kind=EventKind.MESSAGE_GENERATION, traffic=(0, 1))
        assert not hasattr(event, "__dict__")
        with pytest.raises(AttributeError):
            event.ad_hoc = 1

    def test_constructor_defaults_and_positional_order(self):
        contact = make_contact(0, 1, 2.0, 3.0)
        event = Event(2.0, EventKind.CONTACT_START, contact)
        assert (event.time, event.kind, event.contact) == (
            2.0, EventKind.CONTACT_START, contact,
        )
        assert event.traffic is None and event.timer is None

    def test_push_contact_builds_start_and_clamped_end(self):
        q = EventQueue()
        contact = make_contact(3, 4, 5.0, 50.0)
        q.push_contact(contact, horizon=20.0)
        start, end = q.drain()
        assert (start.time, start.kind, start.contact) == (
            5.0, EventKind.CONTACT_START, contact,
        )
        assert (end.time, end.kind, end.contact) == (
            20.0, EventKind.CONTACT_END, contact,
        )

    def test_push_generation_matches_push(self):
        seeded, pushed = EventQueue(), EventQueue()
        for q in (seeded, pushed):
            q.push_contact(make_contact(0, 1, 4.0, 6.0))
        seeded.push_generation(4.0, 2, 3)
        pushed.push(Event(time=4.0, kind=EventKind.MESSAGE_GENERATION, traffic=(2, 3)))
        assert _drained(seeded) == _drained(pushed)


def _drained(queue):
    """The drain order of ``queue`` as comparable tuples."""
    return [
        (e.time, e.kind, e.contact, e.traffic, e.timer and e.timer.tag)
        for e in queue.drain()
    ]


class TestStreamFeedMatchesBulkLoad:
    """A contact fed through ``attach_contacts`` drains like a bulk push."""

    HORIZON = 25.0
    # Ties at t=10 (one pair's end and next start, a third pair's
    # start) and t=15 (two ends, one start), an end past the horizon
    # and a start at it (never fed).
    CONTACTS = [
        make_contact(0, 1, 0.0, 10.0),
        make_contact(0, 1, 10.0, 15.0),
        make_contact(2, 3, 10.0, 15.0),
        make_contact(1, 2, 15.0, 30.0),
        make_contact(0, 3, 15.0, 15.5),
        make_contact(4, 5, 25.0, 26.0),
    ]

    def _queue(self, stream):
        sched = Scheduler(EventQueue(), horizon=self.HORIZON)
        q = sched.queue
        if stream:
            q.attach_contacts(iter(self.CONTACTS), horizon=self.HORIZON)
        else:
            for contact in self.CONTACTS:
                if contact.start < self.HORIZON:
                    q.push_contact(contact, horizon=self.HORIZON)
        for time, tag in ((15.0, "t15"), (10.0, "t10a"), (10.0, "t10b")):
            sched.schedule(time, tag)
        for time, pair in ((10.0, (0, 1)), (15.0, (2, 3)), (10.0, (1, 2))):
            q.push_generation(time, *pair)
        return q

    def test_same_drain_order_with_same_instant_ties(self):
        bulk = _drained(self._queue(stream=False))
        fed = _drained(self._queue(stream=True))
        assert fed == bulk
        at_ten = [(kind, traffic, tag) for t, kind, _, traffic, tag in fed if t == 10.0]
        assert at_ten == [
            (EventKind.CONTACT_END, None, None),
            (EventKind.CONTACT_START, None, None),
            (EventKind.CONTACT_START, None, None),
            (EventKind.MESSAGE_GENERATION, (0, 1), None),
            (EventKind.MESSAGE_GENERATION, (1, 2), None),
            (EventKind.TIMER, None, "t10a"),
            (EventKind.TIMER, None, "t10b"),
        ]
        starts_at_ten = [c for t, k, c, _, _ in fed if t == 10.0 and c is not None]
        assert starts_at_ten[1:] == self.CONTACTS[1:3]  # stream order kept
        assert fed[-1][:2] == (self.HORIZON, EventKind.CONTACT_END)
        assert all(c != self.CONTACTS[-1] for _, _, c, _, _ in fed)


def _event_of_kind(kind, time):
    """A representative event of ``kind`` at ``time``."""
    contact = make_contact(0, 1, time, time + 1.0)
    if kind is EventKind.CONTACT_START:
        return Event(time=time, kind=kind, contact=contact)
    if kind is EventKind.CONTACT_END:
        return Event(time=time, kind=kind, contact=contact)
    if kind is EventKind.MESSAGE_GENERATION:
        return Event(time=time, kind=kind, traffic=(0, 1))
    return Event(time=time, kind=kind, timer=TimerHandle(time=time, tag="t"))


class TestFourKindOrdering:
    """All four kinds at one instant drain END < START < GEN < TIMER."""

    CANONICAL = [
        EventKind.CONTACT_END,
        EventKind.CONTACT_START,
        EventKind.MESSAGE_GENERATION,
        EventKind.TIMER,
    ]

    def test_every_push_order_drains_canonically(self):
        # The drain order is a property of the kind priorities alone:
        # no interleaving of pushes may change it.
        for order in permutations(self.CANONICAL):
            q = EventQueue()
            for kind in order:
                q.push(_event_of_kind(kind, 42.0))
            assert [e.kind for e in q.drain()] == self.CANONICAL, order

    def test_sequence_tiebreak_is_stable_within_every_kind(self):
        # Two events of each kind at the same instant, pushed
        # round-robin: kinds sort by priority, and within one kind the
        # push sequence is preserved (FIFO).
        q = EventQueue()
        tagged = []
        for rank in range(2):
            for kind in self.CANONICAL:
                event = _event_of_kind(kind, 7.0)
                tagged.append((kind, rank, event))
                q.push(event)
        drained = list(q.drain())
        assert [e.kind for e in drained] == [
            k for k in self.CANONICAL for _ in range(2)
        ]
        for kind in self.CANONICAL:
            expected = [e for k, _, e in tagged if k is kind]
            got = [e for e in drained if e.kind is kind]
            assert got == expected

    def test_timer_fires_after_same_instant_contact_and_generation(self):
        # The contract the Δ2 purge migration relies on: a timer at t
        # observes the run *after* every contact and generation at t.
        q = EventQueue()
        q.push(_event_of_kind(EventKind.TIMER, 5.0))
        q.push_contact(make_contact(0, 1, 5.0, 6.0))
        q.push(_event_of_kind(EventKind.MESSAGE_GENERATION, 5.0))
        kinds = [e.kind for e in q.drain() if e.time == 5.0]
        assert kinds == [
            EventKind.CONTACT_START,
            EventKind.MESSAGE_GENERATION,
            EventKind.TIMER,
        ]


class _RecordingOwner:
    def __init__(self):
        self.fired = []

    def on_timer(self, tag, payload, now):
        self.fired.append((tag, payload, now))


class TestScheduler:
    def test_schedule_and_dispatch_in_order(self):
        owner = _RecordingOwner()
        sched = Scheduler(EventQueue(), default_owner=owner)
        sched.schedule(3.0, "b", payload="late")
        sched.schedule(1.0, "a", payload="early")
        sched.dispatch_until(10.0)
        assert owner.fired == [("a", "early", 1.0), ("b", "late", 3.0)]

    def test_dispatch_until_is_strictly_before(self):
        owner = _RecordingOwner()
        sched = Scheduler(EventQueue(), default_owner=owner)
        sched.schedule(5.0, "edge")
        sched.dispatch_until(5.0)
        assert owner.fired == []  # not <, so the 5.0 timer waits
        sched.dispatch_until(5.0 + 1e-9)
        assert owner.fired == [("edge", None, 5.0)]

    def test_cancel_before_fire(self):
        owner = _RecordingOwner()
        sched = Scheduler(EventQueue(), default_owner=owner)
        keep = sched.schedule(1.0, "keep")
        kill = sched.schedule(2.0, "kill")
        before = COUNTERS.snapshot()
        sched.cancel(kill)
        sched.cancel(kill)  # idempotent: one cancellation counted
        sched.dispatch_until(10.0)
        diff = COUNTERS.diff(before)
        assert owner.fired == [("keep", None, 1.0)]
        assert not keep.cancelled  # firing does not flip the flag
        assert kill.cancelled
        assert diff["timers_cancelled"] == 1
        assert diff["timer_dispatches"] == 1

    def test_horizon_refuses_unreachable_timers(self):
        sched = Scheduler(EventQueue(), horizon=100.0)
        before = COUNTERS.snapshot()
        dead = sched.schedule(100.5, "beyond")
        live = sched.schedule(100.0, "at-horizon")
        diff = COUNTERS.diff(before)
        assert dead.cancelled
        assert not live.cancelled
        assert len(sched.queue) == 1  # the stillborn timer never enqueued
        assert diff["timers_scheduled"] == 1

    def test_explicit_owner_beats_default(self):
        default = _RecordingOwner()
        explicit = _RecordingOwner()
        sched = Scheduler(EventQueue(), default_owner=default)
        sched.schedule(1.0, "routed", owner=explicit)
        sched.schedule(2.0, "defaulted")
        sched.dispatch_until(10.0)
        assert explicit.fired == [("routed", None, 1.0)]
        assert default.fired == [("defaulted", None, 2.0)]

    def test_dispatches_logged_to_eventlog(self):
        log = EventLog(enabled=True)
        sched = Scheduler(EventQueue(), events=log)
        sched.schedule(4.0, "node.ttl")
        skipped = sched.schedule(6.0, "dropped.tag")
        sched.cancel(skipped)
        sched.dispatch_until(10.0)
        timers = log.filter(event_type=EventType.TIMER)
        assert [(e.time, e.detail) for e in timers] == [(4.0, "node.ttl")]

    def test_dispatch_until_leaves_non_timer_events(self):
        sched = Scheduler(EventQueue())
        sched.queue.push_contact(make_contact(0, 1, 1.0, 2.0))
        sched.schedule(1.5, "between")
        sched.dispatch_until(10.0)
        # The contact at 1.0 heads the queue: the drain must stop at
        # it rather than consume engine-owned events (the timer behind
        # it stays queued too).
        assert len(sched.queue) == 3
        head = sched.queue.peek()
        assert head is not None and head.kind is EventKind.CONTACT_START
