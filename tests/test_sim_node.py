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


class TestRelaySpill:
    def copy(self, i=1, relays=(), received_from=None):
        return StoredCopy(
            message=msg(i, size=1234),
            received_at=12.5,
            received_from=received_from,
            quality=0.75,
            relays=list(relays),
        )

    def test_record_round_trip(self, tmp_path):
        from repro.sim.node import RelaySpill

        spill = RelaySpill(str(tmp_path / "spill.bin"))
        try:
            original = self.copy(7, relays=(3, 9), received_from=2)
            offset = spill.append(original)
            assert spill.read(offset) == original
        finally:
            spill.close()

    def test_none_received_from_round_trips(self, tmp_path):
        from repro.sim.node import RelaySpill

        spill = RelaySpill(str(tmp_path / "spill.bin"))
        try:
            original = self.copy(1, received_from=None)
            restored = spill.read(spill.append(original))
            assert restored.received_from is None
            assert restored == original
        finally:
            spill.close()

    def test_interleaved_records_stay_addressable(self, tmp_path):
        from repro.sim.node import RelaySpill

        spill = RelaySpill(str(tmp_path / "spill.bin"))
        try:
            first = spill.append(self.copy(1, relays=(5,)))
            second = spill.append(self.copy(2))
            assert spill.read(first).message.msg_id == 1
            assert spill.read(second).message.msg_id == 2
            assert spill.records == 2
        finally:
            spill.close()

    def test_anonymous_spill_unlinks_on_close(self):
        import os

        from repro.sim.node import RelaySpill

        spill = RelaySpill()
        path = spill.path
        assert os.path.exists(path)
        spill.close()
        assert not os.path.exists(path)

    def test_policy_validation(self):
        from repro.sim.node import SpillPolicy

        with pytest.raises(ValueError):
            SpillPolicy(keep=0)


class TestSpillableBuffer:
    @pytest.fixture
    def spill(self):
        from repro.sim.node import RelaySpill

        spill = RelaySpill()
        yield spill
        spill.close()

    def spilled_node(self, spill, keep=2):
        node = NodeState(node_id=3)
        node.enable_spill(spill, keep=keep)
        return node

    def fill(self, node, results, count, size=100):
        for i in range(1, count + 1):
            node.store(
                StoredCopy(message=msg(i, size=size), received_at=float(i)),
                float(i),
                results,
            )

    def test_enable_spill_requires_empty_buffer(self, spill, results):
        node = NodeState(node_id=3)
        node.store(StoredCopy(message=msg(), received_at=0.0), 0.0, results)
        with pytest.raises(ValueError):
            node.enable_spill(spill, keep=2)

    def test_store_demotes_oldest_beyond_keep(self, spill, results):
        node = self.spilled_node(spill, keep=2)
        self.fill(node, results, 5)
        assert node.buffer.resident == 2
        assert node.buffer.spilled == 3
        assert len(node.buffer) == 5

    def test_iteration_order_survives_demotion(self, spill, results):
        node = self.spilled_node(spill, keep=2)
        self.fill(node, results, 5)
        # items() promotes everything back and must present the exact
        # insertion order a plain dict buffer would.
        assert [i for i, _ in node.buffer.items()] == [1, 2, 3, 4, 5]
        assert node.buffer.spilled == 0

    def test_promotion_restores_identical_copy(self, spill, results):
        node = self.spilled_node(spill, keep=1)
        self.fill(node, results, 3)
        plain = NodeState(node_id=3)
        self.fill(plain, results, 3)
        for i in (1, 2, 3):
            assert node.buffer[i] == plain.buffer[i]

    def test_live_copies_match_plain_buffer(self, spill, results):
        node = self.spilled_node(spill, keep=1)
        plain = NodeState(node_id=3)
        self.fill(node, results, 4)
        self.fill(plain, results, 4)
        assert node.relay_candidates(50.0, set()) == (
            plain.relay_candidates(50.0, set())
        )
        assert node.relay_candidates(50.0, exclude={2}) == (
            plain.relay_candidates(50.0, exclude={2})
        )

    def test_pop_of_spilled_copy(self, spill, results):
        node = self.spilled_node(spill, keep=1)
        self.fill(node, results, 3)
        assert node.buffer.spilled > 0
        popped = node.buffer.pop(1)
        assert popped.message.msg_id == 1
        assert 1 not in node.buffer
        assert node.buffer.pop(99, None) is None

    def test_spill_ops_are_counted(self, spill, results):
        from repro.perf import COUNTERS

        before = COUNTERS.snapshot()
        node = self.spilled_node(spill, keep=1)
        self.fill(node, results, 3)
        list(node.buffer.items())
        ops = COUNTERS.diff(before)
        assert ops["relay_spill_writes"] == 2
        assert ops["relay_spill_reads"] == 2
