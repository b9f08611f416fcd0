"""Unit and property tests for repro.crypto.numbers."""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.numbers import (
    bytes_to_int,
    egcd,
    int_to_bytes,
    is_probable_prime,
    modinv,
    random_prime,
)

KNOWN_PRIMES = [2, 3, 5, 7, 97, 101, 257, 7919, 104729, 2**61 - 1]
KNOWN_COMPOSITES = [1, 4, 9, 100, 561, 1105, 6601, 2**61 - 2, 7919 * 104729]


class TestEgcd:
    def test_gcd_of_coprimes_is_one(self):
        g, _, _ = egcd(35, 64)
        assert g == 1

    def test_bezout_identity(self):
        for a, b in [(240, 46), (17, 31), (0, 5), (12, 0), (-24, 36)]:
            g, x, y = egcd(a, b)
            assert a * x + b * y == g

    def test_gcd_matches_math_gcd(self):
        for a, b in [(48, 18), (270, 192), (1071, 462)]:
            g, _, _ = egcd(a, b)
            assert g == math.gcd(a, b)

    def test_gcd_is_nonnegative_for_negative_inputs(self):
        g, _, _ = egcd(-48, -18)
        assert g == 6

    @given(st.integers(-10**9, 10**9), st.integers(-10**9, 10**9))
    def test_bezout_property(self, a, b):
        g, x, y = egcd(a, b)
        assert g == math.gcd(a, b)
        assert a * x + b * y == g


class TestModinv:
    def test_inverse_multiplies_to_one(self):
        assert (modinv(3, 11) * 3) % 11 == 1

    def test_inverse_of_one_is_one(self):
        assert modinv(1, 97) == 1

    def test_non_invertible_raises(self):
        with pytest.raises(ValueError):
            modinv(6, 9)

    def test_tiny_modulus_raises(self):
        with pytest.raises(ValueError):
            modinv(3, 1)

    @given(st.integers(1, 10**6), st.integers(2, 10**6))
    def test_inverse_property(self, a, m):
        if math.gcd(a, m) != 1:
            with pytest.raises(ValueError):
                modinv(a, m)
        else:
            inv = modinv(a, m)
            assert 0 <= inv < m
            assert (a * inv) % m == 1


class TestPrimality:
    @pytest.mark.parametrize("p", KNOWN_PRIMES)
    def test_known_primes(self, p):
        assert is_probable_prime(p)

    @pytest.mark.parametrize("n", KNOWN_COMPOSITES)
    def test_known_composites(self, n):
        assert not is_probable_prime(n)

    def test_negative_and_zero(self):
        assert not is_probable_prime(0)
        assert not is_probable_prime(-7)

    def test_carmichael_numbers_rejected(self):
        # Fermat pseudoprimes that Miller-Rabin must still reject.
        for n in (561, 1105, 1729, 2465, 2821, 6601, 8911):
            assert not is_probable_prime(n)


class TestRandomPrime:
    def test_bit_length_exact(self):
        rng = random.Random(1)
        for bits in (16, 32, 64, 128):
            p = random_prime(bits, rng)
            assert p.bit_length() == bits
            assert is_probable_prime(p)

    def test_deterministic_given_seed(self):
        assert random_prime(32, random.Random(9)) == random_prime(
            32, random.Random(9)
        )

    def test_too_small_raises(self):
        with pytest.raises(ValueError):
            random_prime(4, random.Random(0))

    def test_oddness(self):
        p = random_prime(24, random.Random(3))
        assert p % 2 == 1


class TestByteCodec:
    def test_zero_encodes_to_one_byte(self):
        assert int_to_bytes(0) == b"\x00"

    def test_roundtrip_examples(self):
        for n in (1, 255, 256, 2**64, 2**130 + 7):
            assert bytes_to_int(int_to_bytes(n)) == n

    def test_negative_raises(self):
        with pytest.raises(ValueError):
            int_to_bytes(-1)

    def test_big_endian(self):
        assert int_to_bytes(0x0102) == b"\x01\x02"

    @given(st.integers(0, 2**256))
    def test_roundtrip_property(self, n):
        assert bytes_to_int(int_to_bytes(n)) == n

    @settings(max_examples=30)
    @given(st.binary(min_size=1, max_size=64))
    def test_decode_encode_strips_leading_zeros(self, data):
        n = bytes_to_int(data)
        assert bytes_to_int(int_to_bytes(n)) == n

