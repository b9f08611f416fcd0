"""Cryptographic substrate for the Give2Get protocols.

The paper assumes nodes capable of public-key signatures, sender-to-
destination encryption, session-key negotiation, hashing, and a
deliberately heavy keyed MAC (Sec. III and IV).  This package builds
all of it from scratch:

* :mod:`repro.crypto.numbers` — primes, modular arithmetic.
* :mod:`repro.crypto.rsa` — RSA keygen / sign / encrypt.
* :mod:`repro.crypto.dh` — Diffie-Hellman session keys.
* :mod:`repro.crypto.symmetric` — authenticated stream cipher.
* :mod:`repro.crypto.hashing` — ``H()``, HMAC, heavy HMAC.
* :mod:`repro.crypto.keys` — identities, certificates, authority.
* :mod:`repro.crypto.provider` — real vs fast simulated providers.
* :mod:`repro.crypto.tiers` — the name -> provider tier registry.
* :mod:`repro.crypto.session` — pairwise authenticated sessions.
"""

from .dh import DhGroup, default_group, generate_group
from .hashing import (
    DEFAULT_HEAVY_ITERATIONS,
    HeavyHmac,
    digest,
    hexdigest,
    hmac_digest,
)
from .keys import Authority, Certificate, CertificateError, NodeIdentity
from .provider import (
    CryptoProvider,
    RealCryptoProvider,
    SimulatedCryptoProvider,
)
from .rsa import RsaPrivateKey, RsaPublicKey, generate_keypair
from .tiers import PROVIDER_TIERS, TIER_NAMES, make_provider
from .schnorr import (
    SchnorrCryptoProvider,
    SchnorrError,
    SchnorrScheme,
)
from .session import Session, SessionBroker, SessionError
from .symmetric import AuthenticationError, SymmetricChannel

__all__ = [
    "Authority",
    "AuthenticationError",
    "Certificate",
    "CertificateError",
    "CryptoProvider",
    "DEFAULT_HEAVY_ITERATIONS",
    "DhGroup",
    "HeavyHmac",
    "NodeIdentity",
    "PROVIDER_TIERS",
    "RealCryptoProvider",
    "RsaPrivateKey",
    "RsaPublicKey",
    "SchnorrCryptoProvider",
    "SchnorrError",
    "SchnorrScheme",
    "Session",
    "SessionBroker",
    "SessionError",
    "SimulatedCryptoProvider",
    "SymmetricChannel",
    "TIER_NAMES",
    "default_group",
    "digest",
    "generate_group",
    "generate_keypair",
    "hexdigest",
    "hmac_digest",
    "make_provider",
]
