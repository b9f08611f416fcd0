"""Tests for the wire-level artifact encodings."""

import dataclasses
import pickle

import pytest

from repro.core.proofs import make_proof_of_relay, verify_proof_of_relay
from repro.core.wire import (
    ProofOfRelay,
    QualityDeclaration,
    RelayAccept,
    RelayRequest,
    SealedMessage,
    StorageChallenge,
    StorageProof,
)


class TestPayloadDomainSeparation:
    """Signatures over one artifact kind can never verify as another."""

    def test_all_payloads_distinct(self):
        h = b"\x01" * 32
        artifacts = [
            RelayRequest(msg_hash=h, sender=1),
            RelayAccept(msg_hash=h, relay=1),
            ProofOfRelay(msg_hash=h, giver=1, taker=1),
            StorageChallenge(msg_hash=h, challenger=1, seed=b"s"),
            StorageProof(msg_hash=h, prover=1, seed=b"s", mac=b"m"),
            QualityDeclaration(
                declarant=1, destination=1, value=0.0, frame=0,
                declared_at=0.0,
            ),
        ]
        payloads = [a.payload() for a in artifacts]
        assert len(set(payloads)) == len(payloads)

    def test_por_payload_covers_all_fields(self):
        base = dict(
            msg_hash=b"h", giver=1, taker=2, quality_subject=3,
            message_quality=1.0, taker_quality=2.0, signed_at=5.0,
        )
        reference = ProofOfRelay(**base).payload()
        for field, new in [
            ("msg_hash", b"H"),
            ("giver", 9),
            ("taker", 9),
            ("quality_subject", 9),
            ("message_quality", 9.0),
            ("taker_quality", 9.0),
            ("signed_at", 9.0),
        ]:
            changed = dict(base, **{field: new})
            assert ProofOfRelay(**changed).payload() != reference

    def test_declaration_payload_covers_value_and_frame(self):
        base = dict(
            declarant=1, destination=2, value=3.0, frame=4, declared_at=5.0
        )
        reference = QualityDeclaration(**base).payload()
        assert (
            QualityDeclaration(**dict(base, value=0.0)).payload() != reference
        )
        assert (
            QualityDeclaration(**dict(base, frame=5)).payload() != reference
        )


class TestSealedMessage:
    def test_content_hash_stable(self):
        m = SealedMessage(
            msg_id=1, destination=2, ciphertext=b"ct", source_signature=b"sig"
        )
        assert m.content_hash() == m.content_hash()

    def test_hash_covers_ciphertext(self):
        a = SealedMessage(
            msg_id=1, destination=2, ciphertext=b"ct", source_signature=b"s"
        )
        b = SealedMessage(
            msg_id=1, destination=2, ciphertext=b"CT", source_signature=b"s"
        )
        assert a.content_hash() != b.content_hash()

    def test_destination_in_clear(self):
        m = SealedMessage(
            msg_id=1, destination=42, ciphertext=b"ct", source_signature=b"s"
        )
        assert m.destination == 42


class TestProofOfRelaySlots:
    """One PoR is kept per hand-off until Δ2: no per-instance dict."""

    @pytest.fixture
    def signed(self, authority):
        giver, taker = authority.enroll(1), authority.enroll(2)
        por = make_proof_of_relay(
            taker, b"h" * 32, giver.node_id, 10.0,
            quality_subject=3, message_quality=0.5, taker_quality=0.75,
        )
        return giver, taker, por

    def test_no_dict_and_no_ad_hoc_attributes(self, signed):
        _, _, por = signed
        assert not hasattr(por, "__dict__")
        with pytest.raises(dataclasses.FrozenInstanceError):
            por.signed_at = 11.0
        # Even past the freeze there is nowhere to put a new attribute.
        with pytest.raises(AttributeError):
            object.__setattr__(por, "ad_hoc", 1)

    def test_builder_seeds_the_payload_memo(self, signed):
        _, _, por = signed
        assert por._payload is not None
        unsigned = ProofOfRelay(
            msg_hash=por.msg_hash, giver=por.giver, taker=por.taker,
            quality_subject=3, message_quality=0.5, taker_quality=0.75,
            signed_at=10.0,
        )
        assert unsigned._payload is None
        assert por.payload() == unsigned.payload()

    def test_memo_outside_eq_hash_and_repr(self, signed):
        _, _, por = signed
        rebuilt = ProofOfRelay(
            msg_hash=por.msg_hash, giver=por.giver, taker=por.taker,
            quality_subject=3, message_quality=0.5, taker_quality=0.75,
            signed_at=10.0, signature=por.signature,
        )
        assert rebuilt._payload is None
        assert rebuilt == por
        assert hash(rebuilt) == hash(por)
        assert repr(rebuilt) == repr(por)
        assert "_payload" not in repr(por)
        assert "_payload" not in [
            f.name for f in dataclasses.fields(por) if f.compare
        ]

    def test_pickle_keeps_fields_and_memo(self, signed):
        giver, taker, por = signed
        restored = pickle.loads(pickle.dumps(por))
        assert restored == por
        assert hash(restored) == hash(por)
        assert restored._payload == por._payload
        assert restored.signature == por.signature
        assert verify_proof_of_relay(giver, taker.certificate, restored)

    def test_replace_re_encodes(self, signed):
        giver, taker, por = signed
        same = dataclasses.replace(por)
        assert same == por
        assert same.payload() == por.payload()
        forged = dataclasses.replace(por, taker_quality=99.0)
        assert forged != por
        assert forged.payload() != por.payload()
        assert not verify_proof_of_relay(giver, taker.certificate, forged)
