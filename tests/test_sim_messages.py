"""Tests for messages and stored copies."""

import dataclasses
import pickle

import pytest

from repro.sim.messages import BufferedCopy, Message, StoredCopy


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


class TestBufferedCopy:
    def test_carries_only_what_every_protocol_reads(self):
        copy = BufferedCopy(message=msg(), received_at=100.0)
        assert copy.received_from is None
        assert copy.quality == 0.0
        assert not copy.body_dropped
        for name in ("relays", "proofs", "attachments"):
            assert not hasattr(copy, name)

    def test_slotted(self):
        copy = BufferedCopy(message=msg(), received_at=0.0)
        assert not hasattr(copy, "__dict__")
        with pytest.raises(AttributeError):
            copy.ad_hoc = 1

    def test_stored_copy_extends_it(self):
        assert isinstance(StoredCopy(message=msg(), received_at=0.0), BufferedCopy)


class TestStoredCopy:
    def test_defaults(self):
        copy = StoredCopy(message=msg(), received_at=100.0)
        assert copy.num_relays == 0
        assert copy.received_from is None
        assert not copy.body_dropped

    def test_memory_accounting(self):
        copy = StoredCopy(message=msg(size_bytes=2048), received_at=0.0)
        assert copy.memory_bytes() == 2048
        copy.proofs.append(object())
        assert copy.memory_bytes(proof_size=64) == 2048 + 64
        copy.body_dropped = True
        assert copy.memory_bytes(proof_size=64) == 64

    def test_relay_tracking(self):
        copy = StoredCopy(message=msg(), received_at=0.0)
        copy.relays.extend([3, 4])
        assert copy.num_relays == 2

    def full_copy(self):
        return StoredCopy(
            message=msg(size_bytes=512),
            received_at=150.0,
            received_from=2,
            quality=0.5,
            relays=[3, 4],
            proofs=[("por", 3, b"sig-3"), ("por", 4, b"sig-4")],
            attachments=[("declaration", 7, 0.25)],
            body_dropped=True,
        )

    def test_pickle_round_trip(self):
        copy = self.full_copy()
        restored = pickle.loads(pickle.dumps(copy))
        assert restored == copy
        assert restored.relays == [3, 4]
        assert restored.proofs == copy.proofs
        assert restored.attachments == copy.attachments
        assert restored.body_dropped

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
