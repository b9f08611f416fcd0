"""Constructing and verifying the signed G2G artifacts.

These helpers bridge the wire-level dataclasses of
:mod:`repro.core.wire` and the identity layer of
:mod:`repro.crypto.keys`: they sign the canonical payloads and verify
them against the issuer's certificate (which is itself validated
against the trusted authority).
"""

from __future__ import annotations

import random
from typing import Optional, Sequence, Tuple

from ..crypto.hashing import HeavyHmac
from ..crypto.keys import Certificate, NodeIdentity
from ..perf import COUNTERS
from ..traces.trace import NodeId
from .wire import (
    ProofOfRelay,
    QualityDeclaration,
    SealedMessage,
    StorageProof,
)


def _backfill_signature(artifact: object, signature: bytes) -> None:
    """Write the signature into a just-built frozen artifact.

    Every ``payload()`` encoding excludes the signature field, so the
    artifact can be constructed once, its (memoized) payload signed,
    and the signature slotted in afterwards — the cached payload stays
    byte-identical to what a fresh encoding would produce, and later
    verifiers hit the cache.  This replaces the build-twice pattern
    (unsigned template + signed copy), which paid a second frozen
    dataclass construction on the hottest path in the simulator.
    """
    object.__setattr__(artifact, "signature", signature)


def seal_message(
    source: NodeIdentity,
    destination_cert: Certificate,
    msg_id: int,
    body: bytes,
) -> SealedMessage:
    """Build ``m = <D, E_PKD(S, msg_id, body)>_S``.

    The plaintext packs the source id and message id alongside the
    body so the destination can authenticate the origin after
    decryption while relays see neither.
    """
    plaintext = (
        repr(source.node_id).encode() + b"|" + repr(msg_id).encode()
        + b"|" + body
    )
    ciphertext = source.encrypt_for(destination_cert, plaintext)
    unsigned = SealedMessage(
        msg_id=msg_id,
        destination=destination_cert.node_id,
        ciphertext=ciphertext,
        source_signature=b"",
    )
    signature = source.sign(unsigned.wire_bytes())
    return SealedMessage(
        msg_id=msg_id,
        destination=destination_cert.node_id,
        ciphertext=ciphertext,
        source_signature=signature,
    )


def open_message(recipient: NodeIdentity, sealed: SealedMessage) -> tuple:
    """Decrypt a sealed message at its destination.

    Returns:
        ``(source_id, msg_id, body)``.

    Raises:
        Exception: propagated from the crypto layer if the blob was
            not addressed to ``recipient`` or was tampered with.
    """
    plaintext = recipient.decrypt(sealed.ciphertext)
    source_repr, msg_id_repr, body = plaintext.split(b"|", 2)
    return int(source_repr), int(msg_id_repr), body


# The PoR slots' member descriptors: ``__set__`` writes past the frozen
# ``__setattr__`` without going through ``object.__setattr__``.
(
    _set_msg_hash, _set_giver, _set_taker, _set_quality_subject,
    _set_message_quality, _set_taker_quality, _set_signed_at,
    _set_signature, _set_payload,
) = (
    ProofOfRelay.__dict__[name].__set__
    for name in (
        "msg_hash", "giver", "taker", "quality_subject", "message_quality",
        "taker_quality", "signed_at", "signature", "_payload",
    )
)


def make_proof_of_relay(
    taker: NodeIdentity,
    msg_hash: bytes,
    giver: NodeId,
    now: float,
    quality_subject: Optional[NodeId] = None,
    message_quality: Optional[float] = None,
    taker_quality: Optional[float] = None,
) -> ProofOfRelay:
    """Sign a PoR as the taker of a message.

    One PoR is built per hand-off — the hottest allocation in a G2G
    run — so the instance is assembled by filling its slots through
    their member descriptors instead of going through the
    frozen-dataclass ``__init__``.  The result is indistinguishable
    from a normally constructed instance: equality, hashing, ``repr``
    and ``dataclasses.replace`` all read the same attributes, and
    ``ProofOfRelay`` defines no ``__post_init__``.

    The signed payload is encoded inline, byte-for-byte identical to
    :meth:`ProofOfRelay.payload`, and pre-seeded into the encoding
    memo (with the matching ``COUNTERS.encodings`` charge), so the
    builder pays neither the method-call round-trip nor a re-encode
    when the giver verifies the proof moments later.  The signature
    goes straight through ``taker.provider`` — the identity's
    :meth:`~repro.crypto.keys.NodeIdentity.sign` is a pure delegate.
    """
    taker_id = taker.node_id
    COUNTERS.encodings += 1
    payload = b"|".join((
        b"POR", msg_hash, b"%d" % giver, b"%d" % taker_id,
        b"None" if quality_subject is None else b"%d" % quality_subject,
        (
            b"None" if message_quality is None
            else repr(message_quality).encode()
        ),
        b"None" if taker_quality is None else repr(taker_quality).encode(),
        repr(now).encode(),
    ))
    por = ProofOfRelay.__new__(ProofOfRelay)
    _set_msg_hash(por, msg_hash)
    _set_giver(por, giver)
    _set_taker(por, taker_id)
    _set_quality_subject(por, quality_subject)
    _set_message_quality(por, message_quality)
    _set_taker_quality(por, taker_quality)
    _set_signed_at(por, now)
    _set_signature(por, taker.provider.sign(taker.private_key, payload))
    _set_payload(por, payload)
    return por


def verify_proof_of_relay(
    verifier: NodeIdentity, taker_cert: Certificate, por: ProofOfRelay
) -> bool:
    """Check a PoR signature against the taker's certificate."""
    if taker_cert.node_id != por.taker:
        return False
    return verifier.verify_peer(taker_cert, por.payload(), por.signature)


def verify_proofs_of_relay(
    verifier: NodeIdentity,
    proofs: Sequence[Tuple[Certificate, ProofOfRelay]],
) -> bool:
    """Batch-check PoRs: True iff *every* ``(taker_cert, por)`` verifies.

    The relay and test phases check PoRs at well-defined choke points
    (all hand-offs of one offer; both proofs of one challenge), so the
    per-proof checks collapse into a single
    :meth:`~repro.crypto.keys.NodeIdentity.verify_peer_batch` call —
    one provider round-trip instead of one per proof, with identical
    accept/reject behavior and counter totals.
    """
    items = []
    for taker_cert, por in proofs:
        if taker_cert.node_id != por.taker:
            return False
        items.append((taker_cert, por.payload(), por.signature))
    return verifier.verify_peer_batch(items)


def make_quality_declaration(
    declarant: NodeIdentity,
    destination: NodeId,
    value: float,
    frame: int,
    now: float,
) -> QualityDeclaration:
    """Sign an FQ_RESP declaration."""
    declaration = QualityDeclaration(
        declarant=declarant.node_id,
        destination=destination,
        value=value,
        frame=frame,
        declared_at=now,
    )
    _backfill_signature(declaration, declarant.sign(declaration.payload()))
    return declaration


def verify_quality_declaration(
    verifier: NodeIdentity,
    declarant_cert: Certificate,
    declaration: QualityDeclaration,
) -> bool:
    """Check an FQ_RESP signature against the declarant's certificate."""
    if declarant_cert.node_id != declaration.declarant:
        return False
    return verifier.verify_peer(
        declarant_cert, declaration.payload(), declaration.signature
    )


def make_storage_proof(
    prover: NodeIdentity,
    msg_hash: bytes,
    message_bytes: bytes,
    seed: bytes,
    heavy_hmac: HeavyHmac,
) -> StorageProof:
    """Answer a storage challenge (the heavy HMAC computation)."""
    mac = heavy_hmac.compute(message_bytes, seed)
    proof = StorageProof(
        msg_hash=msg_hash, prover=prover.node_id, seed=seed, mac=mac
    )
    _backfill_signature(proof, prover.sign(proof.payload()))
    return proof


def verify_storage_proof(
    verifier: NodeIdentity,
    prover_cert: Certificate,
    proof: StorageProof,
    message_bytes: bytes,
    heavy_hmac: HeavyHmac,
) -> bool:
    """Recompute the heavy HMAC and check the prover's signature."""
    if not verifier.verify_peer(prover_cert, proof.payload(), proof.signature):
        return False
    return heavy_hmac.verify(message_bytes, proof.seed, proof.mac)


def random_seed(rng: random.Random, size: int = 16) -> bytes:
    """Sample a fresh challenge seed."""
    return bytes(rng.getrandbits(8) for _ in range(size))
