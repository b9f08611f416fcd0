"""Tests for per-node state and memory accounting."""

from math import inf

import pytest

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
        node.store(StoredCopy(message=msg(), received_at=10.0), 10.0, results)
        assert node.has_copy(1)
        assert node.has_seen(1)

    def test_double_store_rejected(self, node, results):
        node.store(StoredCopy(message=msg(), received_at=10.0), 10.0, results)
        with pytest.raises(ValueError):
            node.store(
                StoredCopy(message=msg(), received_at=11.0), 11.0, results
            )

    def test_drop_keeps_seen(self, node, results):
        node.store(StoredCopy(message=msg(), received_at=10.0), 10.0, results)
        node.drop(1, 20.0, results)
        assert not node.has_copy(1)
        assert node.has_seen(1)

    def test_drop_missing_is_none(self, node, results):
        assert node.drop(99, 0.0, results) is None

    def test_live_copies_filters_expired(self, node, results):
        node.store(StoredCopy(message=msg(), received_at=0.0), 0.0, results)
        assert len(node.relay_candidates(100.0, set())) == 1
        assert node.relay_candidates(600.0, set()) == []

    def test_live_copies_filters_dropped_bodies(self, node, results):
        node.store(StoredCopy(message=msg(), received_at=0.0), 0.0, results)
        node.drop_body(1, 50.0, results)
        assert node.relay_candidates(100.0, set()) == []
        assert node.has_copy(1)  # record still there


class TestMemoryAccounting:
    def test_byte_seconds_integrated(self, node, results):
        node.store(
            StoredCopy(message=msg(size=1000), received_at=0.0), 0.0, results
        )
        node.drop(1, 10.0, results)
        assert results.memory_byte_seconds[3] == pytest.approx(10_000.0)

    def test_body_drop_stops_accumulation(self, node, results):
        node.store(
            StoredCopy(message=msg(size=1000), received_at=0.0), 0.0, results
        )
        node.drop_body(1, 10.0, results)
        node.flush(20.0, results)
        # only the first 10 seconds carry the body
        assert results.memory_byte_seconds[3] == pytest.approx(10_000.0)

    def test_flush_settles(self, node, results):
        node.store(
            StoredCopy(message=msg(size=500), received_at=0.0), 0.0, results
        )
        node.flush(4.0, results)
        assert results.memory_byte_seconds[3] == pytest.approx(2_000.0)
        assert node.buffer == {}

    def test_multiple_copies_sum(self, node, results):
        node.store(
            StoredCopy(message=msg(1, size=100), received_at=0.0), 0.0, results
        )
        node.store(
            StoredCopy(message=msg(2, size=300), received_at=0.0), 0.0, results
        )
        node.flush(10.0, results)
        assert results.memory_byte_seconds[3] == pytest.approx(4_000.0)

    def test_double_body_drop_is_idempotent(self, node, results):
        node.store(
            StoredCopy(message=msg(size=1000), received_at=0.0), 0.0, results
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
            StoredCopy(message=expiring(i, expires_at), received_at=now),
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
        assert [c.message.msg_id for c in node.relay_candidates(
            700.0, set()
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

