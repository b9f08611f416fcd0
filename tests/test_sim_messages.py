"""Tests for messages and stored copies."""

import dataclasses
import pickle

import pytest

from repro.sim.messages import Message, StoredCopy
from repro.sim.results import MessageRecord, SimulationResults
from repro.sim.serialize import (
    results_digest,
    results_from_dict,
    results_to_dict,
)


def msg(**overrides):
    base = dict(
        msg_id=1, source=0, destination=5, created_at=100.0, ttl=600.0
    )
    base.update(overrides)
    return Message(**base)


class TestMessage:
    def test_expiry(self):
        m = msg()
        assert m.expires_at == 700.0
        assert m.alive_at(699.0)
        assert not m.alive_at(700.0)

    def test_same_endpoints_rejected(self):
        with pytest.raises(ValueError):
            msg(destination=0)

    def test_nonpositive_ttl_rejected(self):
        with pytest.raises(ValueError):
            msg(ttl=0.0)

    def test_immutable(self):
        with pytest.raises(AttributeError):
            msg().ttl = 5.0

    @pytest.mark.parametrize("bad", [-1, 1.0, "1", None])
    def test_msg_id_must_be_a_non_negative_int(self, bad):
        # Ids index per-node byte maps: a negative one would silently
        # alias the end of the array.
        with pytest.raises(ValueError, match="dense per-run"):
            msg(msg_id=bad)

    def test_msg_id_zero_accepted(self):
        assert msg(msg_id=0).msg_id == 0


class TestMessageSlots:
    """A run keeps every generated message: no per-instance dict."""

    def test_no_dict_and_no_ad_hoc_attributes(self):
        m = msg()
        assert not hasattr(m, "__dict__")
        # The frozen ``__setattr__`` of a slotted dataclass raises
        # TypeError for a non-field name before Python 3.12.
        with pytest.raises((AttributeError, TypeError)):
            m.ad_hoc = 1
        # Even past the freeze there is nowhere to put a new attribute.
        with pytest.raises(AttributeError):
            object.__setattr__(m, "ad_hoc", 1)

    def test_pickle_keeps_expiry(self):
        m = msg(size_bytes=512)
        restored = pickle.loads(pickle.dumps(m))
        assert restored == m
        assert hash(restored) == hash(m)
        assert restored.expires_at == 700.0
        assert restored.size_bytes == 512

    def test_eq_hash_repr_and_replace(self):
        m = msg()
        assert m == msg() and hash(m) == hash(msg())
        assert m != msg(ttl=60.0)
        assert "expires_at" not in repr(m)
        moved = dataclasses.replace(m, created_at=200.0)
        assert moved.expires_at == 800.0
        assert dataclasses.replace(moved, created_at=100.0) == m


class TestMessageRecordSlots:
    def test_no_dict_and_no_ad_hoc_attributes(self):
        record = MessageRecord(message=msg())
        assert not hasattr(record, "__dict__")
        with pytest.raises(AttributeError):
            record.ad_hoc = 1

    def test_pickle_eq_and_replace(self):
        record = MessageRecord(message=msg(), delivered_at=150.0, replicas=3)
        restored = pickle.loads(pickle.dumps(record))
        assert restored == record
        assert restored.message.expires_at == 700.0
        assert restored.delay == 50.0
        assert dataclasses.replace(record, replicas=4) != record
        assert dataclasses.replace(record, replicas=3) == record

    def test_results_dict_round_trip(self):
        results = SimulationResults(protocol="p", trace="t", seed=3)
        delivered = msg(msg_id=0)
        results.record_generated(delivered)
        results.record_generated(msg(msg_id=1, created_at=200.0))
        results.record_replica(delivered)
        results.record_delivery(delivered, 160.0)
        restored = results_from_dict(results_to_dict(results))
        assert restored.messages == results.messages
        assert results_digest(restored) == results_digest(results)
        assert restored.messages[0].delay == 60.0
        assert restored.messages[1].message.expires_at == 800.0


class TestStoredCopy:
    def test_defaults(self):
        copy = StoredCopy(message=msg())
        assert copy.num_relays == 0
        assert copy.quality == 0.0
        assert copy.proofs == []
        assert copy.attachments == []

    def test_keeps_no_write_only_or_node_state(self):
        # Arrival time and giver were never read; whether the body
        # was dropped is node state (NodeState.body_dropped).
        copy = StoredCopy(message=msg())
        for name in ("received_at", "received_from", "body_dropped"):
            assert not hasattr(copy, name)

    def test_reads_the_message_header(self):
        message = msg(msg_id=3, size_bytes=512)
        copy = StoredCopy(message=message)
        assert copy.msg_id == 3
        assert copy.source == message.source
        assert copy.expires_at == message.expires_at
        assert copy.size_bytes == 512

    def test_memory_accounting(self):
        copy = StoredCopy(message=msg(size_bytes=2048))
        assert copy.memory_bytes(body_dropped=False) == 2048
        copy.proofs.append(object())
        assert copy.memory_bytes(False, proof_size=64) == 2048 + 64
        assert copy.memory_bytes(True, proof_size=64) == 64

    def test_relay_tracking(self):
        # One proof of relay per relay made: the proofs are the count.
        copy = StoredCopy(message=msg())
        copy.proofs.extend([("por", 3, b"sig-3"), ("por", 4, b"sig-4")])
        assert copy.num_relays == 2

    def test_keeps_no_relay_list(self):
        assert not hasattr(StoredCopy(message=msg()), "relays")

    def full_copy(self):
        return StoredCopy(
            message=msg(size_bytes=512),
            quality=0.5,
            proofs=[("por", 3, b"sig-3"), ("por", 4, b"sig-4")],
            attachments=[("declaration", 7, 0.25)],
        )

    def test_pickle_round_trip(self):
        copy = self.full_copy()
        restored = pickle.loads(pickle.dumps(copy))
        assert restored == copy
        assert restored.num_relays == 2
        assert restored.proofs == copy.proofs
        assert restored.attachments == copy.attachments
        assert restored.quality == 0.5

    def test_replace_keeps_every_field(self):
        copy = self.full_copy()
        moved = dataclasses.replace(copy, quality=0.75)
        assert moved.quality == 0.75
        assert dataclasses.replace(moved, quality=0.5) == copy

    def test_slotted(self):
        copy = self.full_copy()
        assert not hasattr(copy, "__dict__")
        with pytest.raises(AttributeError):
            copy.ad_hoc = 1
