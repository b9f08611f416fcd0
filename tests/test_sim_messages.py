"""Tests for messages and stored copies."""

import dataclasses
import pickle

import pytest

from repro.sim.messages import Message, StoredCopy


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


class TestStoredCopy:
    def test_defaults(self):
        copy = StoredCopy(message=msg())
        assert copy.num_relays == 0
        assert copy.quality == 0.0
        assert copy.relays == [] and copy.proofs == []
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
        copy = StoredCopy(message=msg())
        copy.relays.extend([3, 4])
        assert copy.num_relays == 2

    def full_copy(self):
        return StoredCopy(
            message=msg(size_bytes=512),
            quality=0.5,
            relays=[3, 4],
            proofs=[("por", 3, b"sig-3"), ("por", 4, b"sig-4")],
            attachments=[("declaration", 7, 0.25)],
        )

    def test_pickle_round_trip(self):
        copy = self.full_copy()
        restored = pickle.loads(pickle.dumps(copy))
        assert restored == copy
        assert restored.relays == [3, 4]
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
