"""Per-node runtime state.

A :class:`NodeState` is the simulator-side embodiment of one device:
its message buffer, the message ids it has handled ("have you already
handled a message with hash H(m)?" — step 1 of the relay phase), its
strategy, optional cryptographic identity, and running energy/memory
accounting.

The buffer maps a message id to what the node holds of it: the run's
shared, frozen :class:`~repro.sim.messages.Message` for the baselines
(they keep no per-copy state, so relaying allocates nothing per
holder) or a G2G :class:`~repro.sim.messages.StoredCopy`.  Both answer
the header fields the node reads (``msg_id``, ``expires_at``,
``size_bytes``).

Handled ids live in ``seen``, a ``bytearray`` with one byte per
message indexed by the engine's dense per-run ``msg_id`` (1 once
handled).  It grows on demand as ids are marked, so a node that never
meets a message's copies pays nothing for it, and the offer scan's
"has the taker handled this?" is one subscript rather than a set probe.
A second byte map, ``_status``, indexed the same way, holds each held
copy's state: relayable, or body discarded.

Buffer mutations go through the ``store`` / ``drop`` helpers so that
memory byte-seconds are integrated correctly: every mutation first
settles the buffer-size integral up to ``now``, then applies.

Relay-eligible copies (body present, TTL not yet expired) are indexed
by the same mutation helpers: an insertion-ordered ``array('q')`` of
message ids whose ``_status`` byte says whether the entry is still
live, plus a sorted expiry array (a stdlib ``array('d')`` of
``expires_at`` values with a parallel id list, maintained by
``bisect``).  Removing a copy from the index only resets its status
and leaves a tombstone in the id array.  Tombstones are compacted
away once they outnumber the live entries, and before an id handled
earlier (the only kind that can have one) is stored again, so every
id appears at most once and the candidate order is the order of the
latest stores.
``relay_candidates`` compares ``now`` against the *earliest* expiry
once and, in the common all-alive case, sweeps the id array with two
byte subscripts per entry and no ``Message`` reads; expired entries
are retired lazily at the first query that can observe them.  This
replaces the per-copy TTL timers of the earlier design — the timers
were pure compaction (results were identical with or without them
firing), so dropping them removes one scheduler event per stored copy
from the run without changing any observable output.

``purge_expired`` (the baselines' per-contact TTL drop) keeps a purge
floor: a lower bound on the ``expires_at`` of every buffered copy.
While ``now`` is below it nothing can have expired, so the call
returns without walking the buffer.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from math import inf
from typing import Any, Dict, List, Optional

from ..adversaries.base import HONEST, Strategy
from ..crypto.keys import NodeIdentity
from ..perf.counters import COUNTERS
from ..traces.trace import NodeId
from .messages import BufferEntry
from .results import SimulationResults

# ``NodeState._status`` holds one of these per message id, or 0 for an
# id not held, or held with its TTL found expired.

#: Held with its body, TTL not yet found expired: a relay candidate,
#: with an entry in the expiry sidecar.
_RELAYABLE = 1
#: Held with its payload discarded.
_BODY_DROPPED = 2


@dataclass(slots=True)
class NodeState:
    """Mutable runtime state of one node.

    Slotted: a streamed run holds one per node of a 10k-node universe.

    Attributes:
        node_id: the node's identifier (matches the trace).
        strategy: behavioral strategy (honest or a deviation).
        identity: cryptographic identity (G2G protocols only).
        buffer: what the node holds per message id — the shared
            message (baselines) or a G2G copy.
        seen: one byte per message id, 1 if this node has handled
            the message at some point — the honest answer to a
            RELAY_RQST.  Ids past its end are unseen; it grows through
            :meth:`store` and :meth:`mark_seen` (and the offer scan's
            :meth:`relay_candidates`), never shrinks.
        evicted: True once removed from the network by a PoM.
        departed: True while the node has churned out of the network
            (a device switched off); unlike eviction it is reversible
            via :meth:`rejoin`.
        depleted: True once the node's energy budget ran out (scenario
            runs with heterogeneous budgets); participation stops but
            the buffer stays — storage outlives the radio.
        extra: protocol-private state (quality trackers, held proofs,
            pending test obligations...).
    """

    node_id: NodeId
    strategy: Strategy = HONEST
    identity: Optional[NodeIdentity] = None
    buffer: Dict[int, BufferEntry] = field(default_factory=dict)
    seen: bytearray = field(default_factory=bytearray)
    evicted: bool = False
    departed: bool = False
    depleted: bool = False
    extra: Dict[str, Any] = field(default_factory=dict)
    _buffer_bytes: int = 0
    _memory_clock: float = 0.0
    # Per-copy state by message id (``_RELAYABLE``, ``_BODY_DROPPED``
    # or 0); grows like ``seen``, cleared by flush.
    _status: bytearray = field(
        default_factory=bytearray, repr=False, compare=False
    )
    # Relay-candidate index: message ids in store order, live while
    # their status is ``_RELAYABLE``, tombstones otherwise; ``_live``
    # counts the live ones.  The sorted expiry sidecar
    # (`_expiry_times` ascending, `_expiry_ids` parallel) holds exactly
    # the live ids, so queries detect "nothing here is expired" in O(1)
    # and retire the stale head in O(expired).  Maintained by
    # store/drop/drop_body/flush; excluded from equality so two nodes
    # with identical buffers compare equal regardless of scan history.
    _relay_ids: array = field(
        default_factory=lambda: array("q"), repr=False, compare=False
    )
    _live: int = field(default=0, repr=False, compare=False)
    _expiry_times: array = field(
        default_factory=lambda: array("d"), repr=False, compare=False
    )
    _expiry_ids: List[int] = field(
        default_factory=list, repr=False, compare=False
    )
    # Lower bound on the ``expires_at`` of every buffered copy (body
    # dropped or not): ``store`` lowers it, ``flush`` resets it, and
    # ``drop``/``drop_body`` leave it alone (a bound over a superset
    # stays a bound).  ``purge_expired`` recomputes it exactly.
    _purge_floor: float = field(default=inf, repr=False, compare=False)

    @property
    def participating(self) -> bool:
        """True while the node can open sessions (on, present, alive)."""
        return not (self.evicted or self.departed or self.depleted)

    def depart(self, now: float, results: SimulationResults) -> None:
        """Churn out of the network: drop the buffer, go dark.

        The buffered relays are lost (their memory integral settles up
        to ``now`` and the TTL-expiry index is cleared through
        :meth:`flush`).  ``seen`` survives — the node still remembers
        what it handled, exactly as a real device would across a
        power cycle — and so do the Δ2 purge deadlines the protocol
        registered, which simply find nothing left to purge.
        """
        if self.departed:
            return
        self.flush(now, results)
        self.departed = True

    def rejoin(self, now: float) -> None:
        """Churn back in with a fresh (empty) buffer."""
        self.departed = False

    def has_copy(self, msg_id: int) -> bool:
        """True while a live copy is buffered."""
        return msg_id in self.buffer

    def has_seen(self, msg_id: int) -> bool:
        """True if the node ever handled the message."""
        seen = self.seen
        return 0 <= msg_id < len(seen) and seen[msg_id] == 1

    def mark_seen(self, msg_id: int) -> None:
        """Record the message as handled, growing ``seen`` to fit."""
        seen = self.seen
        missing = msg_id + 1 - len(seen)
        if missing > 0:
            seen.extend(bytes(missing))
        seen[msg_id] = 1

    def body_dropped(self, msg_id: int) -> bool:
        """True while a copy is held with its payload discarded."""
        status = self._status
        return 0 <= msg_id < len(status) and status[msg_id] == _BODY_DROPPED

    # -- memory-accounted buffer mutations -----------------------------

    def _settle_memory(self, now: float, results: SimulationResults) -> None:
        """Integrate buffer occupancy up to ``now``."""
        clock = self._memory_clock
        if now > clock:
            if self._buffer_bytes:
                results.add_memory(
                    self.node_id, self._buffer_bytes * (now - clock)
                )
            self._memory_clock = now

    def store(
        self, entry: BufferEntry, now: float, results: SimulationResults
    ) -> BufferEntry:
        """Buffer a new copy, body present (marks the message as seen).

        Raises:
            ValueError: if a copy of the same message is already held.
        """
        msg_id = entry.msg_id
        buffer = self.buffer
        if msg_id in buffer:
            raise ValueError(
                f"node {self.node_id} already holds message {msg_id}"
            )
        self._settle_memory(now, results)
        buffer[msg_id] = entry
        seen = self.seen
        missing = msg_id + 1 - len(seen)
        if missing > 0:
            seen.extend(bytes(missing))
            handled = False
        else:
            handled = seen[msg_id] == 1
        seen[msg_id] = 1
        self._buffer_bytes += entry.size_bytes
        expires_at = entry.expires_at
        if expires_at < self._purge_floor:
            self._purge_floor = expires_at
        status = self._status
        missing = msg_id + 1 - len(status)
        if missing > 0:
            status.extend(bytes(missing))
        # Only an id handled before can have a tombstone (from an
        # earlier copy); it must go first, so the id is listed once, at
        # this store's position.
        if handled or len(self._relay_ids) > 2 * self._live:
            self._compact_index()
        self._relay_ids.append(msg_id)
        status[msg_id] = _RELAYABLE
        self._live += 1
        index = bisect_right(self._expiry_times, expires_at)
        self._expiry_times.insert(index, expires_at)
        self._expiry_ids.insert(index, msg_id)
        return entry

    def drop(
        self, msg_id: int, now: float, results: SimulationResults
    ) -> Optional[BufferEntry]:
        """Remove a copy entirely (body and bookkeeping)."""
        entry = self.buffer.pop(msg_id, None)
        if entry is not None:
            self._settle_memory(now, results)
            status = self._status
            state = status[msg_id]
            if state != _BODY_DROPPED:
                self._buffer_bytes -= entry.size_bytes
            if state == _RELAYABLE:
                self._retire(msg_id, entry.expires_at)
            status[msg_id] = 0
        return entry

    def drop_body(
        self, msg_id: int, now: float, results: SimulationResults
    ) -> None:
        """Discard the payload bytes but keep the copy record.

        Models the G2G rule that a relay may free the message once two
        proofs of relay are collected (the proofs stay until Δ2).
        """
        entry = self.buffer.get(msg_id)
        if entry is None:
            return
        status = self._status
        state = status[msg_id]
        if state == _BODY_DROPPED:
            return
        self._settle_memory(now, results)
        self._buffer_bytes -= entry.size_bytes
        if state == _RELAYABLE:
            self._retire(msg_id, entry.expires_at)
        status[msg_id] = _BODY_DROPPED

    def purge_expired(
        self, now: float, results: SimulationResults
    ) -> List[int]:
        """Drop every copy past its TTL; returns the dropped ids.

        The baseline protocols call it for both peers at every contact
        start.  While ``now`` is below the purge floor no buffered copy
        can have expired, so it returns ``[]`` without a scan (and, as
        the scan would, settles no memory).  Otherwise it scans in
        buffer order, which fixes the order the drops settle memory
        accounting in, and rebuilds the floor from the survivors.
        """
        if now < self._purge_floor:
            return []
        expired: List[int] = []
        floor = inf
        for msg_id, entry in self.buffer.items():
            expires_at = entry.expires_at
            if now < expires_at:
                if expires_at < floor:
                    floor = expires_at
            else:
                expired.append(msg_id)
        self._purge_floor = floor
        for msg_id in expired:
            self.drop(msg_id, now, results)
        return expired

    def flush(self, now: float, results: SimulationResults) -> None:
        """Settle accounting and clear the buffer (eviction/run end)."""
        self._settle_memory(now, results)
        self.buffer.clear()
        self._buffer_bytes = 0
        del self._status[:]
        del self._relay_ids[:]
        self._live = 0
        del self._expiry_times[:]
        self._expiry_ids.clear()
        self._purge_floor = inf

    # -- relay-candidate index -----------------------------------------

    def _retire(self, msg_id: int, expires_at: float) -> None:
        """Take one live entry out of the count and the expiry sidecar.

        The caller resets the id's status, which leaves a tombstone in
        the id array.
        """
        self._live -= 1
        times = self._expiry_times
        ids = self._expiry_ids
        index = bisect_left(times, expires_at)
        end = len(times)
        while index < end:
            if ids[index] == msg_id:
                del times[index]
                del ids[index]
                return
            index += 1

    def _compact_index(self) -> None:
        """Rebuild the id array without its tombstones, order kept.

        Called when tombstones outnumber live entries (so the sweep
        stays O(live), amortized O(1) per retirement) and before an id
        with a tombstone is stored again.
        """
        status = self._status
        self._relay_ids = array("q", [
            msg_id
            for msg_id in self._relay_ids
            if status[msg_id] == _RELAYABLE
        ])

    def _compact_expired(self, now: float) -> None:
        """Retire every index entry whose TTL has passed (``<= now``).

        Query-time compaction: callers invoke this only after the O(1)
        earliest-expiry check says something actually expired, so the
        sweep is O(expired) amortized, never O(buffer) per scan.
        """
        times = self._expiry_times
        count = bisect_right(times, now)
        status = self._status
        ids = self._expiry_ids
        for msg_id in ids[:count]:
            status[msg_id] = 0
        self._live -= count
        del times[:count]
        del ids[:count]

    def relay_candidates(
        self, now: float, exclude: bytearray
    ) -> List[BufferEntry]:
        """Live copies whose message id is not marked in ``exclude``.

        The per-pair offer scan: ``exclude`` is the taker's ``seen``
        map, so the relay phase is only entered for messages the taker
        would actually accept (step 1's "have you handled H(m)?"
        answered in bulk, before any signing work).  Every buffered id
        is marked in this node's own ``seen``, so growing ``exclude``
        to that length (one O(1) compare, zero-filled) makes every
        lookup in range.  The expired head is retired first, so the
        sweep itself is a pure id-array iteration with two byte
        subscripts per entry — no per-entry ``expires_at`` reads — in
        store order.
        """
        COUNTERS.buffer_scans += 1
        times = self._expiry_times
        if times and times[0] <= now:
            self._compact_expired(now)
        live = self._live
        COUNTERS.buffer_scanned += live
        if not live:
            return []
        if len(self._relay_ids) > 2 * live:
            self._compact_index()
        missing = len(self.seen) - len(exclude)
        if missing > 0:
            exclude.extend(bytes(missing))
        status = self._status
        buffer = self.buffer
        return [
            buffer[msg_id]
            for msg_id in self._relay_ids
            if not exclude[msg_id] and status[msg_id] == _RELAYABLE
        ]
