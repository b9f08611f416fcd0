"""Tests for the authenticated stream cipher."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.symmetric import (
    AuthenticationError,
    NONCE_SIZE,
    TAG_SIZE,
    decrypt,
    encrypt,
)


@pytest.fixture(scope="module")
def key():
    return random.Random(1).randbytes(32)


class TestEncryptDecrypt:
    def test_roundtrip(self, key):
        blob = encrypt(key, b"attack at dawn", random.Random(2))
        assert decrypt(key, blob) == b"attack at dawn"

    def test_empty_plaintext(self, key):
        blob = encrypt(key, b"", random.Random(2))
        assert decrypt(key, blob) == b""

    def test_ciphertext_differs_from_plaintext(self, key):
        blob = encrypt(key, b"attack at dawn", random.Random(2))
        assert b"attack at dawn" not in blob

    def test_randomized_nonce(self, key):
        rng = random.Random(2)
        assert encrypt(key, b"x", rng) != encrypt(key, b"x", rng)

    def test_wrong_key_raises(self, key):
        blob = encrypt(key, b"secret", random.Random(2))
        other = random.Random(9).randbytes(32)
        with pytest.raises(AuthenticationError):
            decrypt(other, blob)

    def test_tampered_ciphertext_raises(self, key):
        blob = bytearray(encrypt(key, b"secret", random.Random(2)))
        blob[NONCE_SIZE] ^= 0x01
        with pytest.raises(AuthenticationError):
            decrypt(key, bytes(blob))

    def test_tampered_tag_raises(self, key):
        blob = bytearray(encrypt(key, b"secret", random.Random(2)))
        blob[-1] ^= 0x01
        with pytest.raises(AuthenticationError):
            decrypt(key, bytes(blob))

    def test_truncated_blob_raises(self, key):
        with pytest.raises(AuthenticationError):
            decrypt(key, b"short")

    def test_overhead_is_nonce_plus_tag(self, key):
        blob = encrypt(key, b"xyz", random.Random(2))
        assert len(blob) == 3 + NONCE_SIZE + TAG_SIZE

    @settings(max_examples=50)
    @given(st.binary(max_size=2048))
    def test_roundtrip_property(self, key, data):
        blob = encrypt(key, data, random.Random(5))
        assert decrypt(key, blob) == data

