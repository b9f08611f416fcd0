"""Wire-level artifacts of the Give2Get protocols.

Canonical byte encodings of every signed control message in Fig. 1,
Fig. 2, and Fig. 6 of the paper, plus the sealed application message.
Each artifact exposes a ``payload()`` encoding that is what actually
gets signed/verified — distinct kind tags prevent any artifact signed
in one role from being replayed in another.

Every artifact is a frozen dataclass, so its encoding is a pure
function of its fields: ``payload()``/``wire_bytes()``/``content_hash()``
are computed once per instance and memoized on the instance (in its
dict, or for the slotted :class:`ProofOfRelay` in a slot; either way
outside equality and hashing).  The signer and every later verifier
therefore share one encoding — byte-identical to an uncached
recomputation, which is what keeps the cache invisible to signature
semantics.

The simulator-facing constructors live in :mod:`repro.core.proofs`;
this module is pure data + encoding.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ..crypto.hashing import digest
from ..perf.counters import COUNTERS
from ..traces.trace import NodeId


def _enc(*parts: object) -> bytes:
    """Deterministic byte encoding of heterogeneous fields.

    Byte-compatible with the original ``repr``-based encoder (so
    signatures made before the hot-path overhaul still verify), but
    dispatches on the concrete type: the dominant field types — raw
    bytes and ints — skip ``repr`` entirely; floats, ``None``, and
    anything exotic fall back to it.
    """
    COUNTERS.encodings += 1
    out = []
    append = out.append
    for p in parts:
        kind = type(p)
        if kind is bytes:
            append(p)
        elif kind is int:  # excludes bool (repr differs)
            append(b"%d" % p)
        elif p is None:  # optional fields, common in epidemic PoRs
            append(b"None")
        else:
            append(repr(p).encode())
    return b"|".join(out)


def _memoized(artifact: object, slot: str, value: bytes) -> bytes:
    """Store ``value`` on a frozen dataclass instance, bypassing freeze."""
    object.__setattr__(artifact, slot, value)
    return value


@dataclass(frozen=True)
class SealedMessage:
    """The on-air form of a message: ``m = <D, E_PKD(S, msg_id, body)>_S``.

    The destination is in clear; the sender hides inside the encrypted
    body (relays must not learn whether the node handing them the
    message is its source, or the test-phase threat would evaporate).

    Attributes:
        msg_id: simulator message id (stands in for a GUID).
        destination: the clear-text destination field.
        ciphertext: the body encrypted to the destination's public key.
        source_signature: the source's signature over the whole form.
    """

    msg_id: int
    destination: NodeId
    ciphertext: bytes
    source_signature: bytes

    def wire_bytes(self) -> bytes:
        """Full serialized form (what relays store and hash)."""
        cached = self.__dict__.get("_wire_bytes")
        if cached is not None:
            COUNTERS.encoding_cache_hits += 1
            return cached
        return _memoized(self, "_wire_bytes", _enc(
            b"MSG", self.msg_id, self.destination,
            self.ciphertext, self.source_signature,
        ))

    def content_hash(self) -> bytes:
        """``H(m)`` — the handle used in every control message."""
        cached = self.__dict__.get("_content_hash")
        if cached is not None:
            COUNTERS.encoding_cache_hits += 1
            return cached
        return _memoized(self, "_content_hash", digest(self.wire_bytes()))


@dataclass(frozen=True)
class RelayRequest:
    """Step 1 / step 8: ``<RELAY_RQST, H(m)>_A`` (+ D' for delegation)."""

    msg_hash: bytes
    sender: NodeId
    quality_subject: Optional[NodeId] = None  # D' in Fig. 6
    signature: bytes = b""

    def payload(self) -> bytes:
        """Bytes covered by the signature."""
        cached = self.__dict__.get("_payload")
        if cached is not None:
            COUNTERS.encoding_cache_hits += 1
            return cached
        return _memoized(self, "_payload", _enc(
            b"RELAY_RQST", self.msg_hash, self.sender, self.quality_subject
        ))


@dataclass(frozen=True)
class RelayAccept:
    """Step 2: ``<RELAY_OK, H(m)>_B``."""

    msg_hash: bytes
    relay: NodeId
    signature: bytes = b""

    def payload(self) -> bytes:
        """Bytes covered by the signature."""
        cached = self.__dict__.get("_payload")
        if cached is not None:
            COUNTERS.encoding_cache_hits += 1
            return cached
        return _memoized(self, "_payload", _enc(
            b"RELAY_OK", self.msg_hash, self.relay
        ))


@dataclass(frozen=True)
class QualityDeclaration:
    """Step 9: ``<FQ_RESP, B, D', f_BD>_B`` with its timeframe index.

    Signed by the declarant; a false declaration is therefore
    self-incriminating — it *is* the proof of misbehavior the
    destination broadcasts when it catches a liar (Sec. VI-A).
    """

    declarant: NodeId
    destination: NodeId
    value: float
    frame: int
    declared_at: float
    signature: bytes = b""

    def payload(self) -> bytes:
        """Bytes covered by the signature."""
        cached = self.__dict__.get("_payload")
        if cached is not None:
            COUNTERS.encoding_cache_hits += 1
            return cached
        return _memoized(self, "_payload", _enc(
            b"FQ_RESP", self.declarant, self.destination,
            self.value, self.frame, self.declared_at,
        ))


@dataclass(frozen=True, slots=True)
class ProofOfRelay:
    """Step 4 / step 11: the receipt a relay signs on taking a message.

    Epidemic form: ``<POR, H(m), A, B>_B``.  Delegation form adds the
    quality subject D', the message's quality label at hand-off
    (``f_m``), and the taker's declared quality (``f_BD``).

    Slotted: every hand-off keeps one PoR until Δ2, so the instance
    carries no per-object dict.  The payload memo is a slot of its own
    (``_payload``), kept out of equality, hashing and ``repr``; it is
    pickled with the fields.
    """

    msg_hash: bytes
    giver: NodeId
    taker: NodeId
    quality_subject: Optional[NodeId] = None
    message_quality: Optional[float] = None
    taker_quality: Optional[float] = None
    signed_at: float = 0.0
    signature: bytes = b""
    _payload: Optional[bytes] = field(
        default=None, init=False, repr=False, compare=False
    )

    def payload(self) -> bytes:
        """Bytes covered by the signature.

        Encoded inline rather than through :func:`_enc`: one PoR is
        signed per hand-off, making this the single hottest encoding
        in the simulator, and its field types are statically known.
        The bytes are identical to the generic encoder's output.
        """
        cached = self._payload
        if cached is not None:
            COUNTERS.encoding_cache_hits += 1
            return cached
        COUNTERS.encodings += 1
        qs = self.quality_subject
        mq = self.message_quality
        tq = self.taker_quality
        return _memoized(self, "_payload", b"|".join((
            b"POR", self.msg_hash, b"%d" % self.giver, b"%d" % self.taker,
            b"None" if qs is None else b"%d" % qs,
            b"None" if mq is None else repr(mq).encode(),
            b"None" if tq is None else repr(tq).encode(),
            repr(self.signed_at).encode(),
        )))


@dataclass(frozen=True)
class StorageChallenge:
    """Step 6: ``<POR_RQST, H(m), s>_A`` — the test-phase opener."""

    msg_hash: bytes
    challenger: NodeId
    seed: bytes
    signature: bytes = b""

    def payload(self) -> bytes:
        """Bytes covered by the signature."""
        cached = self.__dict__.get("_payload")
        if cached is not None:
            COUNTERS.encoding_cache_hits += 1
            return cached
        return _memoized(self, "_payload", _enc(
            b"POR_RQST", self.msg_hash, self.challenger, self.seed
        ))


@dataclass(frozen=True)
class StorageProof:
    """Step 7 (second branch): ``<STORED, H(m), s, HMAC(m, s)>_B``."""

    msg_hash: bytes
    prover: NodeId
    seed: bytes
    mac: bytes
    signature: bytes = b""

    def payload(self) -> bytes:
        """Bytes covered by the signature."""
        cached = self.__dict__.get("_payload")
        if cached is not None:
            COUNTERS.encoding_cache_hits += 1
            return cached
        return _memoized(self, "_payload", _enc(
            b"STORED", self.msg_hash, self.prover, self.seed, self.mac
        ))


#: Nominal wire sizes (bytes) for energy accounting of control traffic.
CONTROL_MESSAGE_SIZE = 96
PROOF_SIZE = 64
