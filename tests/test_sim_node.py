"""Tests for per-node state and memory accounting."""

from math import inf

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.messages import Message, StoredCopy
from repro.sim.node import NodeState
from repro.sim.results import SimulationResults


def msg(i=1, size=1000):
    return Message(
        msg_id=i, source=0, destination=9, created_at=0.0, ttl=600.0,
        size_bytes=size,
    )


@pytest.fixture
def results():
    return SimulationResults()


@pytest.fixture
def node():
    return NodeState(node_id=3)


class TestBuffer:
    def test_store_marks_seen(self, node, results):
        node.store(StoredCopy(message=msg()), 10.0, results)
        assert node.has_copy(1)
        assert node.has_seen(1)

    def test_double_store_rejected(self, node, results):
        node.store(StoredCopy(message=msg()), 10.0, results)
        with pytest.raises(ValueError):
            node.store(
                StoredCopy(message=msg()), 11.0, results
            )

    def test_drop_keeps_seen(self, node, results):
        node.store(StoredCopy(message=msg()), 10.0, results)
        node.drop(1, 20.0, results)
        assert not node.has_copy(1)
        assert node.has_seen(1)

    def test_drop_missing_is_none(self, node, results):
        assert node.drop(99, 0.0, results) is None

    def test_live_copies_filters_expired(self, node, results):
        node.store(StoredCopy(message=msg()), 0.0, results)
        assert len(node.relay_candidates(100.0, bytearray())) == 1
        assert node.relay_candidates(600.0, bytearray()) == []

    def test_live_copies_filters_dropped_bodies(self, node, results):
        node.store(StoredCopy(message=msg()), 0.0, results)
        node.drop_body(1, 50.0, results)
        assert node.relay_candidates(100.0, bytearray()) == []
        assert node.has_copy(1)  # record still there


class TestMemoryAccounting:
    def test_byte_seconds_integrated(self, node, results):
        node.store(
            StoredCopy(message=msg(size=1000)), 0.0, results
        )
        node.drop(1, 10.0, results)
        assert results.memory_byte_seconds[3] == pytest.approx(10_000.0)

    def test_body_drop_stops_accumulation(self, node, results):
        node.store(
            StoredCopy(message=msg(size=1000)), 0.0, results
        )
        node.drop_body(1, 10.0, results)
        node.flush(20.0, results)
        # only the first 10 seconds carry the body
        assert results.memory_byte_seconds[3] == pytest.approx(10_000.0)

    def test_flush_settles(self, node, results):
        node.store(
            StoredCopy(message=msg(size=500)), 0.0, results
        )
        node.flush(4.0, results)
        assert results.memory_byte_seconds[3] == pytest.approx(2_000.0)
        assert node.buffer == {}

    def test_multiple_copies_sum(self, node, results):
        node.store(
            StoredCopy(message=msg(1, size=100)), 0.0, results
        )
        node.store(
            StoredCopy(message=msg(2, size=300)), 0.0, results
        )
        node.flush(10.0, results)
        assert results.memory_byte_seconds[3] == pytest.approx(4_000.0)

    def test_double_body_drop_is_idempotent(self, node, results):
        node.store(
            StoredCopy(message=msg(size=1000)), 0.0, results
        )
        node.drop_body(1, 5.0, results)
        node.drop_body(1, 6.0, results)
        node.flush(10.0, results)
        assert results.memory_byte_seconds[3] == pytest.approx(5_000.0)


def expiring(i, expires_at, size=1000):
    """A message whose TTL runs out at ``expires_at``."""
    return Message(
        msg_id=i, source=0, destination=9, created_at=expires_at - 600.0,
        ttl=600.0, size_bytes=size,
    )


class TestPurgeFloor:
    def store(self, node, results, i, expires_at, now=0.0):
        node.store(
            StoredCopy(message=expiring(i, expires_at)),
            now,
            results,
        )

    def test_purge_before_any_expiry_is_a_no_op(self, node, results):
        self.store(node, results, 1, 600.0)
        self.store(node, results, 2, 900.0)
        assert node.purge_expired(100.0, results) == []
        assert node.purge_expired(599.0, results) == []
        assert results.memory_byte_seconds == {}
        assert list(node.buffer) == [1, 2]

    def test_copy_compacted_from_relay_index_still_purged(
        self, node, results
    ):
        # A generation hook stores and offers without purging: the
        # offer's relay_candidates compacts the expired entry out of
        # the relay index while the copy stays buffered.
        self.store(node, results, 1, 600.0)
        self.store(node, results, 2, 900.0)
        assert [c.msg_id for c in node.relay_candidates(
            700.0, bytearray()
        )] == [2]
        assert node.has_copy(1)
        assert node.purge_expired(700.0, results) == [1]
        assert not node.has_copy(1)
        assert node.has_copy(2)

    def test_second_purge_at_same_instant_drops_nothing(
        self, node, results
    ):
        self.store(node, results, 1, 600.0)
        self.store(node, results, 2, 900.0)
        assert node.purge_expired(700.0, results) == [1]
        settled = dict(results.memory_byte_seconds)
        assert node.purge_expired(700.0, results) == []
        assert results.memory_byte_seconds == settled
        # The floor was rebuilt from the survivor: 2 goes on time.
        assert node.purge_expired(899.0, results) == []
        assert node.purge_expired(900.0, results) == [2]

    def test_body_dropped_copy_still_purged(self, node, results):
        self.store(node, results, 1, 600.0)
        node.drop_body(1, 50.0, results)
        assert node.purge_expired(600.0, results) == [1]
        assert node.buffer == {}

    def test_flush_resets_floor(self, node, results):
        self.store(node, results, 1, 600.0)
        node.depart(100.0, results)
        assert node._purge_floor == inf
        node.rejoin(200.0)
        self.store(node, results, 2, 900.0, now=300.0)
        assert node.purge_expired(899.0, results) == []
        assert node.purge_expired(900.0, results) == [2]

    def test_ids_come_back_in_buffer_order(self, node, results):
        self.store(node, results, 5, 300.0)
        self.store(node, results, 2, 100.0)
        self.store(node, results, 9, 200.0)
        self.store(node, results, 4, 800.0)
        assert node.purge_expired(400.0, results) == [5, 2, 9]
        assert list(node.buffer) == [4]



class TestSeenMap:
    def test_mark_seen_grows_to_fit(self, node):
        assert node.seen == bytearray()
        node.mark_seen(4)
        assert len(node.seen) == 5
        assert node.has_seen(4)
        assert not any(node.has_seen(i) for i in range(4))
        node.mark_seen(2)
        assert len(node.seen) == 5  # an id in range does not grow it
        assert node.has_seen(2)

    def test_out_of_range_ids_are_unseen(self, node):
        node.mark_seen(3)
        assert not node.has_seen(4)
        assert not node.has_seen(10**9)
        # A negative id must not alias the end of the array.
        assert not node.has_seen(-1)

    def test_seen_survives_depart_and_rejoin(self, node, results):
        node.store(StoredCopy(message=msg(2)), 0.0, results)
        node.mark_seen(5)
        node.depart(10.0, results)
        assert node.has_seen(2) and node.has_seen(5)
        node.rejoin(20.0)
        assert node.buffer == {}
        assert node.has_seen(2) and node.has_seen(5)

    def test_short_taker_is_grown_to_the_giver(self, node, results):
        for i in (1, 6, 3):
            node.store(msg(i), 0.0, results)
        taker = NodeState(node_id=4)
        taker.mark_seen(1)
        assert len(taker.seen) < len(node.seen)
        offered = node.relay_candidates(10.0, taker.seen)
        assert [c.msg_id for c in offered] == [6, 3]
        assert len(taker.seen) == len(node.seen)
        # Growth only zero-fills: nothing new counts as seen.
        assert [i for i in range(10) if taker.has_seen(i)] == [1]

    def test_longer_taker_is_left_alone(self, node, results):
        node.store(msg(2), 0.0, results)
        taker = NodeState(node_id=4)
        taker.mark_seen(50)
        offered = node.relay_candidates(10.0, taker.seen)
        assert [c.msg_id for c in offered] == [2]
        assert len(taker.seen) == 51


def ids(node, now=10.0):
    return [c.msg_id for c in node.relay_candidates(now, bytearray())]


class TestRelayIndex:
    def test_store_buffers_the_entry_itself(self, node, results):
        message = msg(4)
        node.store(message, 0.0, results)
        assert node.buffer[4] is message
        assert node.relay_candidates(10.0, bytearray())[0] is message

    def test_restore_after_drop_is_one_candidate_at_the_new_position(
        self, node, results
    ):
        for i in (1, 2, 3):
            node.store(msg(i), 0.0, results)
        node.drop(1, 5.0, results)
        node.store(msg(1), 6.0, results)
        assert ids(node) == [2, 3, 1]
        assert list(node._relay_ids).count(1) == 1

    def test_restore_after_drop_body_and_drop(self, node, results):
        node.store(StoredCopy(message=msg(1)), 0.0, results)
        node.store(StoredCopy(message=msg(2)), 0.0, results)
        node.drop_body(1, 5.0, results)
        node.drop(1, 6.0, results)
        node.store(StoredCopy(message=msg(1)), 7.0, results)
        assert ids(node) == [2, 1]
        assert not node.body_dropped(1)

    def test_drop_body(self, node, results):
        node.store(StoredCopy(message=msg(1)), 0.0, results)
        node.store(StoredCopy(message=msg(2)), 0.0, results)
        node.drop_body(1, 5.0, results)
        assert node.body_dropped(1) and not node.body_dropped(2)
        assert ids(node) == [2]
        assert node.has_copy(1)
        node.drop(1, 6.0, results)
        assert not node.body_dropped(1)
        # Absent and never-seen ids report no dropped body.
        assert not node.body_dropped(2) and not node.body_dropped(99)
        assert not node.body_dropped(-1)

    def test_depart_rejoin_flushes_the_index(self, node, results):
        node.store(StoredCopy(message=msg(1)), 0.0, results)
        node.store(StoredCopy(message=msg(2)), 0.0, results)
        node.drop_body(2, 5.0, results)
        node.depart(10.0, results)
        assert node.buffer == {} and ids(node) == []
        assert not node.body_dropped(2)
        node.rejoin(20.0)
        node.store(StoredCopy(message=msg(2)), 20.0, results)
        node.store(StoredCopy(message=msg(1)), 20.0, results)
        assert ids(node, 30.0) == [2, 1]
        assert not node.body_dropped(2)
        node.flush(40.0, results)
        assert ids(node, 50.0) == []

    def test_tombstone_run_is_compacted(self, node, results):
        for i in range(100):
            node.store(msg(i), 0.0, results)
        for i in range(90):
            node.drop(i, 1.0, results)
        # 90 tombstones against 10 live entries: the next scan compacts.
        assert len(node._relay_ids) == 100
        assert ids(node) == list(range(90, 100))
        assert list(node._relay_ids) == list(range(90, 100))

    def test_store_drop_churn_keeps_the_index_bounded(self, node, results):
        for i in range(3):
            node.store(msg(i), 0.0, results)
        for i in range(3, 500):
            node.store(msg(i), 0.0, results)
            node.drop(i, 0.0, results)
            assert len(node._relay_ids) <= 2 * 3 + 1
        assert ids(node) == [0, 1, 2]

    def test_expired_entries_become_tombstones(self, node, results):
        node.store(expiring(1, 100.0), 0.0, results)
        node.store(expiring(2, 900.0), 0.0, results)
        assert ids(node, 200.0) == [2]
        assert node.has_copy(1)
        node.drop(1, 300.0, results)
        node.store(expiring(1, 1000.0), 300.0, results)
        assert ids(node, 400.0) == [2, 1]

    def test_slotted(self, node):
        assert not hasattr(node, "__dict__")
        with pytest.raises(AttributeError):
            node.ad_hoc = 1


#: One step of a giver/taker history: (operation, message id, amount).
#: ``amount`` is the TTL of a store; a query advances the clock by a
#: tenth of it.  Few ids, doubled odds for store and drop, histories of
#: at least 20 steps and a slow clock make "store an id, drop it while
#: another copy stays live, store it again" common: the sequence the
#: index's re-store compaction exists for.
_STEPS = st.lists(
    st.tuples(
        st.sampled_from(
            ["store", "store", "drop", "drop", "drop_body", "mark_seen",
             "giver_seen", "query"]
        ),
        st.integers(min_value=0, max_value=7),
        st.integers(min_value=1, max_value=300),
    ),
    min_size=20,
    max_size=80,
)


class TestRelayCandidatesProperty:
    @settings(max_examples=200, deadline=None)
    @given(_STEPS)
    def test_matches_set_based_reference(self, steps):
        results = SimulationResults()
        giver = NodeState(node_id=0)
        taker = NodeState(node_id=1)
        # The reference: a plain insertion-ordered dict of copies whose
        # body is present, and a set of the ids the taker handled.
        relayable = {}
        taker_seen = set()
        now = 0.0

        def check():
            expected = [
                copy
                for msg_id, copy in relayable.items()
                if now < copy.expires_at and msg_id not in taker_seen
            ]
            got = giver.relay_candidates(now, taker.seen)
            assert [c.msg_id for c in got] == [c.msg_id for c in expected]
            assert all(a is b for a, b in zip(got, expected))
            assert {
                i for i in range(len(taker.seen)) if taker.has_seen(i)
            } == taker_seen

        for op, msg_id, amount in steps:
            if op == "store":
                if giver.has_copy(msg_id):
                    continue
                copy = Message(
                    msg_id=msg_id, source=0, destination=9,
                    created_at=now, ttl=float(amount),
                )
                giver.store(copy, now, results)
                relayable[msg_id] = copy
            elif op == "drop":
                giver.drop(msg_id, now, results)
                relayable.pop(msg_id, None)
            elif op == "drop_body":
                giver.drop_body(msg_id, now, results)
                relayable.pop(msg_id, None)
            elif op == "mark_seen":
                taker.mark_seen(msg_id)
                taker_seen.add(msg_id)
            elif op == "giver_seen":
                giver.mark_seen(msg_id)
            else:
                now += amount / 10
                check()
        check()
