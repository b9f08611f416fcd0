"""Symmetric stream cipher behind sender-to-destination encryption.

The body of every message is encrypted to its destination (Sec. III).
Both providers carry that body under this cipher: the real provider
under a fresh content key that it RSA-wraps (hybrid encryption), the
simulated provider under a secret derived per keypair.  With no AES
available offline, it is a SHA-256 counter-mode stream cipher with an
HMAC authentication tag — a standard encrypt-then-MAC construction
giving confidentiality plus integrity under a shared key.
"""

from __future__ import annotations

import random

from .hashing import DIGEST_SIZE, constant_time_equal, digest, hmac_digest

#: Length of the random per-message nonce.
NONCE_SIZE = 16

#: Length of the authentication tag.
TAG_SIZE = DIGEST_SIZE


class AuthenticationError(Exception):
    """Raised when a ciphertext fails tag verification."""


def _keystream(key: bytes, nonce: bytes, length: int) -> bytes:
    """Generate ``length`` keystream bytes from ``(key, nonce)``."""
    out = bytearray()
    block = 0
    while len(out) < length:
        out += digest(key + nonce + block.to_bytes(8, "big"))
        block += 1
    return bytes(out[:length])


def encrypt(key: bytes, plaintext: bytes, rng: random.Random) -> bytes:
    """Encrypt-then-MAC ``plaintext`` under ``key``.

    Layout: ``nonce || ciphertext || tag`` where the tag authenticates
    the nonce and ciphertext under a key derived from ``key``.
    """
    nonce = bytes(rng.getrandbits(8) for _ in range(NONCE_SIZE))
    stream = _keystream(key, nonce, len(plaintext))
    ciphertext = bytes(a ^ b for a, b in zip(plaintext, stream))
    tag = hmac_digest(digest(b"mac|" + key), nonce + ciphertext)
    return nonce + ciphertext + tag


def decrypt(key: bytes, blob: bytes) -> bytes:
    """Invert :func:`encrypt`.

    Raises:
        AuthenticationError: if the blob is too short or the tag does
            not verify (wrong key or tampered ciphertext).
    """
    if len(blob) < NONCE_SIZE + TAG_SIZE:
        raise AuthenticationError("ciphertext too short")
    nonce = blob[:NONCE_SIZE]
    ciphertext = blob[NONCE_SIZE:-TAG_SIZE]
    tag = blob[-TAG_SIZE:]
    expected = hmac_digest(digest(b"mac|" + key), nonce + ciphertext)
    if not constant_time_equal(tag, expected):
        raise AuthenticationError("authentication tag mismatch")
    stream = _keystream(key, nonce, len(ciphertext))
    return bytes(a ^ b for a, b in zip(ciphertext, stream))

