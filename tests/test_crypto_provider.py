"""Tests for the pluggable crypto providers."""

import random

import pytest

from repro.crypto.provider import (
    MIN_KEY_BITS,
    RealCryptoProvider,
    SimulatedCryptoProvider,
)


@pytest.fixture(params=["simulated", "real"])
def any_provider(request):
    if request.param == "simulated":
        return SimulatedCryptoProvider(random.Random(1))
    return RealCryptoProvider(key_bits=384, rng=random.Random(1))


class TestProviderContract:
    """Both providers satisfy the same behavioral contract."""

    def test_sign_verify(self, any_provider):
        private, public = any_provider.generate_keypair()
        sig = any_provider.sign(private, b"data")
        assert any_provider.verify(public, b"data", sig)

    def test_verify_rejects_wrong_payload(self, any_provider):
        private, public = any_provider.generate_keypair()
        sig = any_provider.sign(private, b"data")
        assert not any_provider.verify(public, b"DATA", sig)

    def test_verify_rejects_wrong_key(self, any_provider):
        private, _ = any_provider.generate_keypair()
        _, other_public = any_provider.generate_keypair()
        sig = any_provider.sign(private, b"data")
        assert not any_provider.verify(other_public, b"data", sig)

    def test_verify_rejects_tampered_signature(self, any_provider):
        private, public = any_provider.generate_keypair()
        sig = bytearray(any_provider.sign(private, b"data"))
        sig[0] ^= 1
        assert not any_provider.verify(public, b"data", bytes(sig))

    def test_encrypt_roundtrip(self, any_provider):
        private, public = any_provider.generate_keypair()
        blob = any_provider.encrypt(public, b"payload" * 100)
        assert any_provider.decrypt(private, blob) == b"payload" * 100

    def test_fingerprints_distinct(self, any_provider):
        _, pub_a = any_provider.generate_keypair()
        _, pub_b = any_provider.generate_keypair()
        assert any_provider.fingerprint(pub_a) != any_provider.fingerprint(
            pub_b
        )


class TestSimulatedSpecifics:
    def test_unknown_public_key_rejected(self):
        provider = SimulatedCryptoProvider(random.Random(1))
        other = SimulatedCryptoProvider(random.Random(1))
        private, public = provider.generate_keypair()
        sig = provider.sign(private, b"x")
        # A handle from a foreign provider instance resolves to no
        # secret in this registry... same key_id exists, but secrets
        # differ only if RNG streams diverge; use an id beyond range.
        from repro.crypto.provider import _SimPublicKey

        assert not provider.verify(_SimPublicKey(key_id=999), b"x", sig)

    def test_signature_is_not_reusable_across_keys(self):
        provider = SimulatedCryptoProvider(random.Random(1))
        priv_a, pub_a = provider.generate_keypair()
        priv_b, pub_b = provider.generate_keypair()
        sig = provider.sign(priv_a, b"x")
        assert provider.verify(pub_a, b"x", sig)
        assert not provider.verify(pub_b, b"x", sig)


class TestRealKeySize:
    """The real tier refuses, at construction, a modulus too small to
    RSA-wrap its content key, instead of failing at the first seal."""

    def test_too_small_to_wrap_rejected(self):
        with pytest.raises(ValueError, match=str(MIN_KEY_BITS)):
            RealCryptoProvider(key_bits=272, rng=random.Random(1))

    @pytest.mark.parametrize("key_bits", [384, MIN_KEY_BITS])
    def test_large_enough_key_wraps_content_key(self, key_bits):
        provider = RealCryptoProvider(key_bits=key_bits, rng=random.Random(1))
        private, public = provider.generate_keypair()
        assert provider.decrypt(private, provider.encrypt(public, b"m")) == b"m"
