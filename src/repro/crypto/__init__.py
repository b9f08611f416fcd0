"""Cryptographic substrate for the Give2Get protocols.

The paper assumes nodes capable of public-key signatures, sender-to-
destination encryption, hashing, and a deliberately heavy keyed MAC
(Sec. III and IV).  This package builds exactly what a run calls, from
scratch:

* :mod:`repro.crypto.numbers` — primes, modular arithmetic.
* :mod:`repro.crypto.rsa` — RSA keygen / sign / encrypt.
* :mod:`repro.crypto.symmetric` — authenticated stream cipher.
* :mod:`repro.crypto.hashing` — ``H()``, HMAC, heavy HMAC.
* :mod:`repro.crypto.keys` — identities, certificates, authority.
* :mod:`repro.crypto.provider` — real vs fast simulated providers.
* :mod:`repro.crypto.tiers` — the name -> provider tier registry.

Session establishment (Sec. IV-A) is modelled by the protocols as the
accept-or-refuse decision only; no key agreement is computed here.
"""

from .hashing import (
    DEFAULT_HEAVY_ITERATIONS,
    HeavyHmac,
    digest,
    hexdigest,
    hmac_digest,
)
from .keys import Authority, Certificate, NodeIdentity
from .provider import (
    CryptoProvider,
    RealCryptoProvider,
    SimulatedCryptoProvider,
)
from .rsa import RsaPrivateKey, RsaPublicKey, generate_keypair
from .tiers import PROVIDER_TIERS, TIER_NAMES, make_provider
from .symmetric import AuthenticationError

__all__ = [
    "Authority",
    "AuthenticationError",
    "Certificate",
    "CryptoProvider",
    "DEFAULT_HEAVY_ITERATIONS",
    "HeavyHmac",
    "NodeIdentity",
    "PROVIDER_TIERS",
    "RealCryptoProvider",
    "RsaPrivateKey",
    "RsaPublicKey",
    "SimulatedCryptoProvider",
    "TIER_NAMES",
    "digest",
    "generate_keypair",
    "hexdigest",
    "hmac_digest",
    "make_provider",
]
