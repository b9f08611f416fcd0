"""Number-theoretic primitives for the from-scratch crypto substrate.

The Give2Get protocols assume every node can sign messages and encrypt
to a destination (Sec. III of the paper).  This module provides the
arithmetic needed to build RSA without any third-party cryptography
dependency: the extended Euclidean algorithm, modular inverses,
Miller-Rabin primality testing, and random prime generation.

All functions are deterministic given the supplied ``random.Random``
instance, which keeps key generation reproducible in tests and
simulations.
"""

from __future__ import annotations

import random
from typing import Optional, Tuple

# Small primes used for fast trial-division screening before the more
# expensive Miller-Rabin rounds.
_SMALL_PRIMES: Tuple[int, ...] = (
    2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61,
    67, 71, 73, 79, 83, 89, 97, 101, 103, 107, 109, 113, 127, 131, 137,
    139, 149, 151, 157, 163, 167, 173, 179, 181, 191, 193, 197, 199,
    211, 223, 227, 229, 233, 239, 241, 251,
)

# Number of Miller-Rabin rounds.  40 rounds give an error probability
# below 2^-80 for random candidates, far more than enough for the
# simulated network sizes used here.
_MILLER_RABIN_ROUNDS = 40


def egcd(a: int, b: int) -> Tuple[int, int, int]:
    """Return ``(g, x, y)`` such that ``a*x + b*y == g == gcd(a, b)``.

    Iterative extended Euclidean algorithm; works for any integers,
    including negatives and zero.
    """
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r != 0:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    # Normalize so that the gcd is non-negative.
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


def modinv(a: int, m: int) -> int:
    """Return the multiplicative inverse of ``a`` modulo ``m``.

    Raises:
        ValueError: if ``a`` is not invertible mod ``m`` (gcd != 1) or
            if ``m < 2``.
    """
    if m < 2:
        raise ValueError(f"modulus must be >= 2, got {m}")
    g, x, _ = egcd(a % m, m)
    if g != 1:
        raise ValueError(f"{a} is not invertible modulo {m} (gcd={g})")
    return x % m


def is_probable_prime(n: int, rng: Optional[random.Random] = None) -> bool:
    """Miller-Rabin primality test.

    Args:
        n: candidate integer.
        rng: source of randomness for witness selection.  A fresh
            ``random.Random`` is created when omitted.

    Returns:
        True if ``n`` is prime with overwhelming probability; False if
        ``n`` is certainly composite (or < 2).
    """
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n == p:
            return True
        if n % p == 0:
            return False
    if rng is None:
        # Deterministic default: Miller-Rabin witness choice must not
        # make "same seed" runs diverge (fixed witnesses are as strong
        # as random ones for non-adversarial inputs).
        rng = random.Random(0)

    # Write n - 1 = d * 2^s with d odd.
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1

    for _ in range(_MILLER_RABIN_ROUNDS):
        a = rng.randrange(2, n - 1)
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = pow(x, 2, n)
            if x == n - 1:
                break
        else:
            return False
    return True


def random_prime(bits: int, rng: random.Random) -> int:
    """Generate a random prime of exactly ``bits`` bits.

    The top two bits are forced to 1 so that the product of two such
    primes has exactly ``2 * bits`` bits (standard RSA practice), and
    the low bit is forced to 1 so candidates are odd.

    Args:
        bits: bit length, must be >= 8.
        rng: deterministic source of randomness.

    Raises:
        ValueError: if ``bits < 8``.
    """
    if bits < 8:
        raise ValueError(f"prime bit length must be >= 8, got {bits}")
    while True:
        candidate = rng.getrandbits(bits)
        candidate |= (1 << (bits - 1)) | (1 << (bits - 2)) | 1
        if is_probable_prime(candidate, rng):
            return candidate


def int_to_bytes(n: int) -> bytes:
    """Encode a non-negative integer big-endian with minimal length.

    Zero encodes to a single zero byte so the encoding is never empty.
    """
    if n < 0:
        raise ValueError("cannot encode negative integers")
    length = max(1, (n.bit_length() + 7) // 8)
    return n.to_bytes(length, "big")


def bytes_to_int(data: bytes) -> int:
    """Decode a big-endian byte string into a non-negative integer."""
    return int.from_bytes(data, "big")
