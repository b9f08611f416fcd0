"""Pluggable crypto providers: real RSA or fast simulated crypto.

Large parameter sweeps (e.g. the Fig. 3 dropper sweep runs dozens of
3-hour simulations) cannot afford a 512-bit RSA signature per relayed
message, so the library separates *what* the protocols do from *how*
the primitives are computed:

* :class:`RealCryptoProvider` — from-scratch RSA signatures and hybrid
  RSA + stream-cipher encryption.  Used in the crypto test suite and
  available for small end-to-end runs.
* :class:`SimulatedCryptoProvider` — an HMAC-based provider backed by a
  private key registry.  Signatures remain *unforgeable by protocol
  code* (only the provider can reach the registry; a node object holds
  an opaque handle, not the secret), verification failures are still
  detected, and encryption still round-trips — so every protocol code
  path behaves identically, at a tiny fraction of the cost.  This is
  the substitution documented in DESIGN.md §3.

Both satisfy the :class:`CryptoProvider` interface, which holds exactly
the primitives a G2G run calls; it is consumed by
:mod:`repro.crypto.keys` and the G2G protocols in :mod:`repro.core`.
"""

from __future__ import annotations

import itertools
import random
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Any, Dict, Sequence, Tuple

from ..perf.counters import COUNTERS
from . import rsa, symmetric
from .hashing import (
    PreparedHmacKey,
    constant_time_equal,
    digest,
    hmac_digest,
    prepare_hmac_key,
)

#: One batched verification item: ``(public_key, payload, signature)``.
VerifyItem = Tuple[Any, bytes, bytes]


class CryptoProvider(ABC):
    """Abstract factory for the asymmetric primitives the protocols use."""

    @abstractmethod
    def generate_keypair(self) -> Tuple[Any, Any]:
        """Return an opaque ``(private, public)`` handle pair."""

    @abstractmethod
    def fingerprint(self, public_key: Any) -> bytes:
        """Stable digest identifying a public key."""

    @abstractmethod
    def sign(self, private_key: Any, payload: bytes) -> bytes:
        """Sign ``payload``."""

    @abstractmethod
    def verify(self, public_key: Any, payload: bytes, signature: bytes) -> bool:
        """Check a signature; must return False on any forgery."""

    def verify_batch(self, items: Sequence[VerifyItem]) -> bool:
        """Check a batch of signatures: True iff *every* item verifies.

        The relay hot path collects the signature checks of one
        handshake choke point and submits them together, so providers
        can answer N checks in one call.  The base implementation
        simply loops :meth:`verify` (stopping at the first failure,
        like the per-item ``all(...)`` it replaces); fast providers
        override it with a loop-hoisted variant.
        """
        return all(
            self.verify(public_key, payload, signature)
            for public_key, payload, signature in items
        )

    @abstractmethod
    def encrypt(self, public_key: Any, plaintext: bytes) -> bytes:
        """Public-key (hybrid) encryption of arbitrary-length data."""

    @abstractmethod
    def decrypt(self, private_key: Any, ciphertext: bytes) -> bytes:
        """Invert :meth:`encrypt`; raises on tampering."""


#: Length of the random content key that hybrid encryption RSA-wraps.
CONTENT_KEY_SIZE = 16

#: Smallest modulus whose masked-encryption capacity holds the content
#: key.  The modulus must span a zero byte, the padding seed, a 2-byte
#: length prefix and the key (see ``rsa._mask_pad``); the shortest bit
#: length with that many bytes is one bit over the next-smaller width.
_MIN_MODULUS_BYTES = 1 + rsa.SEED_SIZE + 2 + CONTENT_KEY_SIZE
MIN_KEY_BITS = 8 * (_MIN_MODULUS_BYTES - 1) + 1


class RealCryptoProvider(CryptoProvider):
    """Provider backed by the from-scratch RSA implementation."""

    def __init__(
        self,
        key_bits: int = rsa.DEFAULT_KEY_BITS,
        rng: random.Random | None = None,
    ) -> None:
        if key_bits < MIN_KEY_BITS:
            raise ValueError(
                f"key_bits must be >= {MIN_KEY_BITS} to wrap a "
                f"{CONTENT_KEY_SIZE}-byte content key, got {key_bits}"
            )
        self._key_bits = key_bits
        # A fixed-seed default keeps unseeded construction replayable;
        # the simulation always injects ctx.rng.
        self._rng = rng if rng is not None else random.Random(0)

    def generate_keypair(self) -> Tuple[rsa.RsaPrivateKey, rsa.RsaPublicKey]:
        private = rsa.generate_keypair(self._key_bits, self._rng)
        return private, private.public_key

    def fingerprint(self, public_key: rsa.RsaPublicKey) -> bytes:
        return public_key.fingerprint()

    def sign(self, private_key: rsa.RsaPrivateKey, payload: bytes) -> bytes:
        return private_key.sign(payload)

    def verify(
        self, public_key: rsa.RsaPublicKey, payload: bytes, signature: bytes
    ) -> bool:
        return public_key.verify(payload, signature)

    def encrypt(self, public_key: rsa.RsaPublicKey, plaintext: bytes) -> bytes:
        """Hybrid encryption: RSA-wrap a random key, stream-encrypt data.

        A 16-byte content key is wrapped so that every modulus of at
        least :data:`MIN_KEY_BITS` bits can carry it.
        """
        key = bytes(self._rng.getrandbits(8) for _ in range(CONTENT_KEY_SIZE))
        wrapped = public_key.encrypt(key, self._rng)
        body = symmetric.encrypt(key, plaintext, self._rng)
        header = len(wrapped).to_bytes(2, "big")
        return header + wrapped + body

    def decrypt(self, private_key: rsa.RsaPrivateKey, ciphertext: bytes) -> bytes:
        if len(ciphertext) < 2:
            raise rsa.RsaError("truncated hybrid ciphertext")
        wrapped_len = int.from_bytes(ciphertext[:2], "big")
        wrapped = ciphertext[2 : 2 + wrapped_len]
        body = ciphertext[2 + wrapped_len :]
        key = private_key.decrypt(wrapped)
        return symmetric.decrypt(key, body)


@dataclass(frozen=True)
class _SimPublicKey:
    """Opaque public handle of the simulated provider."""

    key_id: int


@dataclass(frozen=True)
class _SimPrivateKey:
    """Opaque private handle; the secret stays inside the provider."""

    key_id: int


class SimulatedCryptoProvider(CryptoProvider):
    """Fast provider preserving verification semantics.

    Each keypair is a random 32-byte secret held in a registry private
    to the provider.  ``sign`` = HMAC(secret, payload); ``verify``
    recomputes via the registry.  Protocol code only ever holds the
    opaque handles, so within the simulation's threat model (selfish,
    non-byzantine nodes that cannot break crypto) forging another
    node's signature is impossible, exactly as with real RSA.

    Encryption is the same stream cipher as the real provider keyed by
    a per-key derived secret, so confidentiality-dependent logic (e.g.
    relays not learning a message's destination) behaves identically.
    """

    def __init__(self, rng: random.Random | None = None) -> None:
        # A fixed-seed default keeps unseeded construction replayable;
        # the simulation always injects ctx.rng.
        self._rng = rng if rng is not None else random.Random(0)
        self._secrets: Dict[int, bytes] = {}
        # Prepared signing keys: HMAC(digest(b"sign|" + secret)) with
        # the key schedule pre-absorbed, built once per key_id.  Each
        # sign/verify works on a copy, so MACs are bit-identical to
        # the rebuild-per-call form at roughly half the block work.
        self._signing_keys: Dict[int, PreparedHmacKey] = {}
        # Signature memo: (key_id, payload) -> MAC.  HMACs are
        # deterministic, so a verification of bytes this provider
        # itself signed (the overwhelmingly common case: a Proof of
        # Relay is checked by the giver the moment the taker signs it)
        # is a lookup + constant-time compare instead of a recompute.
        # A miss falls through to the full computation, so forgeries
        # are rejected exactly as before.
        self._macs: Dict[Tuple[int, bytes], bytes] = {}
        # digest(b"enc|" + secret), derived once per key_id.
        self._enc_keys: Dict[int, bytes] = {}
        self._ids = itertools.count(1)

    def generate_keypair(self) -> Tuple[_SimPrivateKey, _SimPublicKey]:
        key_id = next(self._ids)
        self._secrets[key_id] = bytes(
            self._rng.getrandbits(8) for _ in range(32)
        )
        return _SimPrivateKey(key_id), _SimPublicKey(key_id)

    def fingerprint(self, public_key: _SimPublicKey) -> bytes:
        return digest(b"sim-key|" + str(public_key.key_id).encode())

    def _signing_key(self, key_id: int) -> PreparedHmacKey:
        prepared = self._signing_keys.get(key_id)
        if prepared is None:
            prepared = prepare_hmac_key(
                digest(b"sign|" + self._secrets[key_id])
            )
            self._signing_keys[key_id] = prepared
        return prepared

    def _enc_key(self, key_id: int) -> bytes:
        derived = self._enc_keys.get(key_id)
        if derived is None:
            derived = self._enc_keys[key_id] = digest(
                b"enc|" + self._secrets[key_id]
            )
        return derived

    def sign(self, private_key: _SimPrivateKey, payload: bytes) -> bytes:
        COUNTERS.signatures += 1
        COUNTERS.hmac_copies += 1
        key_id = private_key.key_id
        # Inlined hmac_digest fast path: one sign per relay hand-off.
        # The prepared-key lookup is inlined too — after the first
        # sign per key it is a single dict hit.
        prepared = self._signing_keys.get(key_id)
        if prepared is None:
            prepared = self._signing_key(key_id)
        state = prepared.copy()
        state.update(payload)
        mac = state.digest()
        self._macs[(key_id, payload)] = mac
        return mac

    def verify(
        self, public_key: _SimPublicKey, payload: bytes, signature: bytes
    ) -> bool:
        COUNTERS.verifications += 1
        key_id = public_key.key_id
        expected = self._macs.get((key_id, payload))
        if expected is None:
            if key_id not in self._secrets:
                return False
            expected = hmac_digest(self._signing_key(key_id), payload)
            self._macs[(key_id, payload)] = expected
        else:
            COUNTERS.mac_cache_hits += 1
        return constant_time_equal(expected, signature)

    def verify_batch(self, items: Sequence[VerifyItem]) -> bool:
        """Loop-hoisted batch verification over the MAC memo.

        Behaves exactly like a loop of :meth:`verify` — same memo
        reads/writes, same short-circuit on the first failure, same
        counter totals — but resolves the memo and counters once per
        batch instead of once per signature.
        """
        macs = self._macs
        equal = constant_time_equal
        checked = 0
        hits = 0
        ok = True
        for public_key, payload, signature in items:
            checked += 1
            key_id = public_key.key_id
            expected = macs.get((key_id, payload))
            if expected is None:
                if key_id not in self._secrets:
                    ok = False
                    break
                expected = hmac_digest(self._signing_key(key_id), payload)
                macs[(key_id, payload)] = expected
            else:
                hits += 1
            if not equal(expected, signature):
                ok = False
                break
        COUNTERS.verifications += checked
        COUNTERS.mac_cache_hits += hits
        return ok

    def encrypt(self, public_key: _SimPublicKey, plaintext: bytes) -> bytes:
        return symmetric.encrypt(
            self._enc_key(public_key.key_id), plaintext, self._rng
        )

    def decrypt(self, private_key: _SimPrivateKey, ciphertext: bytes) -> bytes:
        return symmetric.decrypt(self._enc_key(private_key.key_id), ciphertext)
