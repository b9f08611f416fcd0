"""Discrete-event machinery for the contact-trace simulator.

The simulator advances through four kinds of events in global time
order: contact starts, contact ends, message generations, and timers.
Events are totally ordered by ``(time, priority, sequence)`` — ends
sort before starts at the same instant (so back-to-back contacts of
one pair do not overlap), generations sort after starts so a message
created at the very moment a contact opens can use that contact, and
timers sort last so everything a timer observes at time *t* includes
the effects of every contact and generation at *t*.

Timers are the run's one sanctioned deferred-work mechanism: protocols
and services register ``(owner, tag, payload)`` triples through
:class:`Scheduler` (usually via ``SimulationContext.schedule``)
instead of maintaining private heaps, and the engine dispatches them
through :meth:`TimerOwner.on_timer` in the same deterministic order as
every other event.  This module is the only place in ``sim/``,
``core/``, or ``protocols/`` allowed to touch ``heapq`` directly
(lint rule G2G007).
"""

from __future__ import annotations

import heapq
from enum import IntEnum
from typing import Any, Iterator, List, Optional, Protocol, Tuple

from ..perf.counters import COUNTERS
from ..traces.trace import Contact, NodeId
from .eventlog import EventLog, EventType


class EventKind(IntEnum):
    """Event ordering priority at equal timestamps."""

    CONTACT_END = 0
    CONTACT_START = 1
    MESSAGE_GENERATION = 2
    TIMER = 3


class TimerOwner(Protocol):
    """Anything that can receive a timer dispatch.

    Protocols, node states, and run services implement this
    structurally; no registration beyond scheduling a timer with
    ``owner=self`` (or relying on the scheduler's default owner) is
    needed.
    """

    def on_timer(self, tag: str, payload: Any, now: float) -> None:
        """A timer registered by (or for) this owner fired."""
        ...  # pragma: no cover - protocol declaration


class TimerHandle:
    """One scheduled timer; returned by :meth:`Scheduler.schedule`.

    The handle doubles as the queue entry's payload: cancellation
    flips ``cancelled`` and the dispatch loop skips the entry when it
    surfaces (lazy deletion — no heap surgery, no reordering).
    """

    __slots__ = ("time", "tag", "payload", "owner", "cancelled")

    def __init__(
        self,
        time: float,
        tag: str,
        payload: Any = None,
        owner: Optional[TimerOwner] = None,
        cancelled: bool = False,
    ) -> None:
        self.time = time
        self.tag = tag
        self.payload = payload
        self.owner = owner
        self.cancelled = cancelled

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self.cancelled else "pending"
        return f"TimerHandle(t={self.time}, tag={self.tag!r}, {state})"


class Event:
    """One scheduled simulator event.

    Exactly one of ``contact`` / ``traffic`` / ``timer`` is set,
    matching ``kind``.  A plain slotted class: every streamed contact
    costs two events, so construction is five slot stores.  Events
    compare by identity; the heap orders them by the
    ``(time, priority, sequence)`` key beside them.
    """

    __slots__ = ("time", "kind", "contact", "traffic", "timer")

    def __init__(
        self,
        time: float,
        kind: EventKind,
        contact: Optional[Contact] = None,
        traffic: Optional[Tuple[NodeId, NodeId]] = None,  # (source, destination)
        timer: Optional[TimerHandle] = None,
    ) -> None:
        self.time = time
        self.kind = kind
        self.contact = contact
        self.traffic = traffic
        self.timer = timer

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Event(t={self.time}, kind={self.kind.name})"


_CONTACT_START = EventKind.CONTACT_START
_CONTACT_END = EventKind.CONTACT_END
_MESSAGE_GENERATION = EventKind.MESSAGE_GENERATION
# Heap keys carry each kind's priority as a plain int (what ``push``
# stores via ``int(event.kind)``).
_START_KEY = int(_CONTACT_START)
_END_KEY = int(_CONTACT_END)
_GENERATION_KEY = int(_MESSAGE_GENERATION)


class EventQueue:
    """A time-ordered event queue.

    Thin wrapper over ``heapq`` keeping a deterministic tiebreak
    sequence; supports bulk-loading a contact trace or feeding one
    incrementally from a streaming contact source
    (:meth:`attach_contacts`), so the heap never holds more than the
    events at or before the stream's current frontier.
    """

    def __init__(self) -> None:
        self._heap: List[Tuple[float, int, int, Event]] = []
        self._sequence = 0
        self._contacts: Optional[Iterator[Contact]] = None
        self._pending: Optional[Contact] = None
        self._contact_horizon: Optional[float] = None

    def push(self, event: Event) -> None:
        """Schedule ``event``."""
        heapq.heappush(
            self._heap, (event.time, int(event.kind), self._sequence, event)
        )
        self._sequence += 1

    def push_generation(
        self, time: float, source: NodeId, destination: NodeId
    ) -> None:
        """Schedule the generation of a ``source``→``destination`` message."""
        heapq.heappush(self._heap, (
            time, _GENERATION_KEY, self._sequence,
            Event(time, _MESSAGE_GENERATION, traffic=(source, destination)),
        ))
        self._sequence += 1

    def push_contact(
        self, contact: Contact, horizon: Optional[float] = None
    ) -> None:
        """Schedule the start and end events of a contact.

        With a ``horizon``, an end past it is clamped to the horizon:
        a contact still open at run end closes *at* run end instead of
        leaking an event past it (or, worse, never closing at all).

        Both heap entries are built inline — the same keys
        :meth:`push` would build, start first — with one sequence
        bump for the pair.
        """
        start = contact.start
        end = contact.end
        if horizon is not None and horizon < end:
            end = horizon
        heap = self._heap
        heappush = heapq.heappush
        sequence = self._sequence
        heappush(heap, (
            start, _START_KEY, sequence, Event(start, _CONTACT_START, contact)
        ))
        heappush(heap, (
            end, _END_KEY, sequence + 1, Event(end, _CONTACT_END, contact)
        ))
        self._sequence = sequence + 2

    def attach_contacts(
        self, contacts: Iterator[Contact], horizon: Optional[float] = None
    ) -> None:
        """Feed contacts lazily from a time-ordered stream.

        Instead of bulk-pushing every contact up front (O(trace) heap
        memory), the queue holds one *pending* contact from the stream
        and pushes it — via the same :meth:`push_contact` path — only
        once the heap head reaches its start time.  Because the stream
        is non-decreasing in start time and a fed contact's events
        never precede the current head, the drain order is identical
        to the bulk load: cross-kind ties still resolve by
        :class:`EventKind` priority, and same-kind ties keep the
        stream's own order.  Contacts starting at or past the horizon
        end the feed (nothing later in a sorted stream can start
        inside the run).
        """
        self._contacts = iter(contacts)
        self._contact_horizon = horizon
        self._pending = self._next_contact()

    def _next_contact(self) -> Optional[Contact]:
        if self._contacts is None:
            return None
        horizon = self._contact_horizon
        for contact in self._contacts:
            if horizon is not None and contact.start >= horizon:
                break
            return contact
        self._contacts = None
        return None

    def _feed(self) -> None:
        """Push pending stream contacts due at or before the head."""
        pending = self._pending
        if pending is None:
            return
        heap = self._heap
        while pending is not None and (
            not heap or pending.start <= heap[0][0]
        ):
            self.push_contact(pending, horizon=self._contact_horizon)
            pending = self._next_contact()
        self._pending = pending

    def peek(self) -> Optional[Event]:
        """The earliest event without removing it (None when empty)."""
        self._feed()
        return self._heap[0][3] if self._heap else None

    def pop(self) -> Event:
        """Remove and return the earliest event.

        Raises:
            IndexError: if the queue is empty.
        """
        self._feed()
        return heapq.heappop(self._heap)[3]

    def __len__(self) -> int:
        """Events currently on the heap (stream feed not counted)."""
        return len(self._heap)

    def __bool__(self) -> bool:
        return bool(self._heap) or self._pending is not None

    def drain(self) -> Iterator[Event]:
        """Yield events in time order until the queue is empty.

        :meth:`pop` inlined: the stream feed runs only while a contact
        is pending, so a bulk-loaded run pays one ``heappop`` per event.
        """
        heap = self._heap
        heappop = heapq.heappop
        while heap or self._pending is not None:
            if self._pending is not None:
                self._feed()
            yield heappop(heap)[3]


class Scheduler:
    """The run scheduler: deferred work as first-class events.

    Owns an :class:`EventQueue` and turns ``schedule``/``cancel``
    requests into :data:`EventKind.TIMER` entries that the engine
    dispatches in the global ``(time, priority, sequence)`` order.
    Determinism contract:

    * timers at equal timestamps dispatch in scheduling order (the
      queue's sequence tiebreak);
    * a timer at time *t* fires after every contact and generation at
      *t* (``TIMER`` is the highest priority value), so "strictly
      before now" semantics fall out of event ordering alone;
    * timers past the run horizon are dropped at scheduling time —
      they could never fire inside the run.

    Args:
        queue: the event queue shared with the engine loop.
        horizon: run length; timers scheduled past it are stillborn.
        default_owner: receiver for timers scheduled without an
            explicit owner (the engine passes the bound protocol).
        events: the run's :class:`EventLog`; dispatches are logged
            as :data:`EventType.TIMER` entries when tracking is on.
    """

    def __init__(
        self,
        queue: EventQueue,
        horizon: Optional[float] = None,
        default_owner: Optional[TimerOwner] = None,
        events: Optional[EventLog] = None,
    ) -> None:
        self.queue = queue
        self.horizon = horizon
        self.default_owner = default_owner
        self.events = events

    def schedule(
        self,
        time: float,
        tag: str,
        payload: Any = None,
        owner: Optional[TimerOwner] = None,
    ) -> TimerHandle:
        """Register a timer; returns its (cancellable) handle.

        A timer past the horizon is returned already cancelled and
        never enqueued — the old private-heap mechanisms likewise
        never acted on deadlines beyond run end.
        """
        handle = TimerHandle(time=time, tag=tag, payload=payload, owner=owner)
        if self.horizon is not None and time > self.horizon:
            handle.cancelled = True
            return handle
        COUNTERS.timers_scheduled += 1
        self.queue.push(Event(time=time, kind=EventKind.TIMER, timer=handle))
        return handle

    def cancel(self, handle: TimerHandle) -> None:
        """Cancel a pending timer (idempotent; lazy queue deletion)."""
        if not handle.cancelled:
            handle.cancelled = True
            COUNTERS.timers_cancelled += 1

    def fire(self, handle: TimerHandle, now: float) -> None:
        """Dispatch one surfaced timer entry (engine loop hook)."""
        if handle.cancelled:
            return
        COUNTERS.timer_dispatches += 1
        if self.events is not None and self.events.enabled:
            self.events.log(now, EventType.TIMER, detail=handle.tag)
        owner = handle.owner if handle.owner is not None else self.default_owner
        if owner is not None:
            owner.on_timer(handle.tag, handle.payload, now)

    def dispatch_until(self, now: float) -> None:
        """Fire every queued timer strictly before ``now``.

        The standalone-driver counterpart of the engine loop: tests
        and harnesses that call protocol hooks directly (no
        ``Simulation.run()``) advance the scheduler through this.
        Under the engine it is a guaranteed no-op — every event
        strictly before the one being dispatched has already been
        popped, and same-instant events are excluded by the strict
        inequality — so protocols may call it unconditionally.  Only
        head ``TIMER`` events are consumed; contacts and generations
        are left for whoever loaded them.
        """
        queue = self.queue
        while True:
            event = queue.peek()
            if (
                event is None
                or event.kind is not EventKind.TIMER
                or event.time >= now
            ):
                return
            queue.pop()
            assert event.timer is not None
            self.fire(event.timer, event.time)
