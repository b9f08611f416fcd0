"""Node identities, certificates, and the offline trusted authority.

The paper's system model (Sec. III): every node has a keypair whose
public key "is signed by an authority that is trusted by every node in
the system.  Anyhow the authority is never used actively in the
protocols, thus ... it may remain off-line all the time."

This module implements exactly that:

* :class:`Authority` mints :class:`Certificate` objects binding a node
  id to its public key (used once per node, at enrolment);
* :class:`NodeIdentity` bundles a node's id, private key, and
  certificate and offers ``sign`` / ``verify`` helpers matching the
  paper's ``<m>_A`` notation.

Identities are provider-agnostic: they hold opaque key handles produced
by a :class:`repro.crypto.provider.CryptoProvider`, so the same code
runs over real RSA or the fast registry-backed simulation provider.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Dict, Sequence, Set, Tuple

from ..perf.counters import COUNTERS

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .provider import CryptoProvider

#: Node identifiers are small integers throughout the simulator.
NodeId = int


def _cert_payload(node_id: NodeId, public_key_fingerprint: bytes) -> bytes:
    """Canonical byte encoding of a certificate's signed content."""
    return b"g2g-cert|" + str(node_id).encode() + b"|" + public_key_fingerprint


@dataclass(frozen=True)
class Certificate:
    """Binding of a node id to a public key, signed by the authority.

    Attributes:
        node_id: the subject.
        public_key: opaque public key handle (provider-specific).
        fingerprint: stable digest of the public key.
        signature: the authority's signature over the binding.
    """

    node_id: NodeId
    public_key: Any
    fingerprint: bytes
    signature: bytes


class Authority:
    """The offline trusted authority.

    Holds its own keypair and enrols nodes by signing certificates.  It
    takes no part in the forwarding protocols; the simulator calls
    :meth:`enroll` once per node during setup.
    """

    def __init__(self, provider: "CryptoProvider") -> None:
        self._provider = provider
        self._private, self.public_key = provider.generate_keypair()
        self._issued: Dict[NodeId, Certificate] = {}

    def enroll(self, node_id: NodeId) -> "NodeIdentity":
        """Mint a fresh identity (keypair + certificate) for a node.

        Raises:
            ValueError: if the node id was already enrolled — node ids
                must be unique across the network.
        """
        if node_id in self._issued:
            raise ValueError(f"node {node_id} already enrolled")
        private, public = self._provider.generate_keypair()
        fingerprint = self._provider.fingerprint(public)
        signature = self._provider.sign(
            self._private, _cert_payload(node_id, fingerprint)
        )
        cert = Certificate(
            node_id=node_id,
            public_key=public,
            fingerprint=fingerprint,
            signature=signature,
        )
        self._issued[node_id] = cert
        return NodeIdentity(
            node_id=node_id,
            private_key=private,
            certificate=cert,
            provider=self._provider,
            authority_public_key=self.public_key,
        )

    def verify_certificate(self, cert: Certificate) -> bool:
        """Check an arbitrary certificate against this authority's key."""
        return self._provider.verify(
            self.public_key,
            _cert_payload(cert.node_id, cert.fingerprint),
            cert.signature,
        )


@dataclass
class NodeIdentity:
    """A node's cryptographic identity.

    Exposes the paper's primitives: ``sign`` for ``<m>_A``, ``verify``
    against a peer certificate, and asymmetric ``encrypt_for`` /
    ``decrypt`` used by message generation (the body of every message
    is encrypted to the destination's public key so that relays cannot
    learn the sender or the payload).
    """

    node_id: NodeId
    private_key: Any
    certificate: Certificate
    provider: "CryptoProvider"
    authority_public_key: Any
    # Content keys of peer certificates this identity has already
    # chain-validated against the authority.  Certificates are frozen
    # and the authority key never rotates within a run, so a successful
    # validation holds for the certificate's lifetime; failed
    # validations are never cached and re-verify every time.
    _validated_certs: Set[Tuple[NodeId, bytes, bytes]] = field(
        default_factory=set, init=False, repr=False, compare=False
    )

    def sign(self, payload: bytes) -> bytes:
        """Return the node's signature over ``payload``."""
        return self.provider.sign(self.private_key, payload)

    def verify_peer(
        self, cert: Certificate, payload: bytes, signature: bytes
    ) -> bool:
        """Verify ``signature`` over ``payload`` against a peer's cert.

        Also validates the certificate chain back to the authority
        (memoized per certificate content — certificates are immutable
        and a run has no revocation, so one successful validation
        suffices); a forged certificate invalidates everything signed
        under it.
        """
        cert_key = (cert.node_id, cert.fingerprint, cert.signature)
        if cert_key in self._validated_certs:
            COUNTERS.cert_cache_hits += 1
        else:
            COUNTERS.cert_checks += 1
            if not self.provider.verify(
                self.authority_public_key,
                _cert_payload(cert.node_id, cert.fingerprint),
                cert.signature,
            ):
                return False
            self._validated_certs.add(cert_key)
        return self.provider.verify(cert.public_key, payload, signature)

    def verify_peer_batch(
        self, items: Sequence[Tuple[Certificate, bytes, bytes]]
    ) -> bool:
        """Batched :meth:`verify_peer`: all-or-nothing over ``items``.

        Certificate chains validate first (one memoized check per
        certificate, exactly as the per-item path), then every
        signature goes to the provider in a single
        :meth:`~repro.crypto.provider.CryptoProvider.verify_batch`
        call.  Accept/reject behavior and counter totals match a loop
        of ``verify_peer`` calls; only the per-item Python round-trips
        through the identity and provider layers are batched away.
        """
        provider = self.provider
        validated = self._validated_certs
        batch = []
        for cert, payload, signature in items:
            cert_key = (cert.node_id, cert.fingerprint, cert.signature)
            if cert_key in validated:
                COUNTERS.cert_cache_hits += 1
            else:
                COUNTERS.cert_checks += 1
                if not provider.verify(
                    self.authority_public_key,
                    _cert_payload(cert.node_id, cert.fingerprint),
                    cert.signature,
                ):
                    return False
                validated.add(cert_key)
            batch.append((cert.public_key, payload, signature))
        return provider.verify_batch(batch)

    def encrypt_for(self, cert: Certificate, plaintext: bytes) -> bytes:
        """Encrypt ``plaintext`` so only the certificate subject reads it."""
        return self.provider.encrypt(cert.public_key, plaintext)

    def decrypt(self, ciphertext: bytes) -> bytes:
        """Decrypt a blob addressed to this node."""
        return self.provider.decrypt(self.private_key, ciphertext)

    def key_fingerprint(self) -> bytes:
        """Digest identifying this node's public key."""
        return self.certificate.fingerprint

