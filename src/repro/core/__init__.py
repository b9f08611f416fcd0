"""The paper's contribution: the Give2Get forwarding protocols."""

from .blacklist import (
    BlacklistService,
    GossipBlacklist,
    InstantBlacklist,
    ProofOfMisbehavior,
)
from .g2g_base import Give2GetBase, RelayPlan
from .g2g_delegation import G2GDelegationForwarding
from .g2g_epidemic import G2GEpidemicForwarding
from .proofs import (
    make_proof_of_relay,
    make_quality_declaration,
    make_storage_proof,
    open_message,
    seal_message,
    verify_proof_of_relay,
    verify_quality_declaration,
    verify_storage_proof,
)
from .wire import (
    ProofOfRelay,
    QualityDeclaration,
    RelayAccept,
    RelayRequest,
    SealedMessage,
    StorageChallenge,
    StorageProof,
)

__all__ = [
    "BlacklistService",
    "G2GDelegationForwarding",
    "G2GEpidemicForwarding",
    "Give2GetBase",
    "GossipBlacklist",
    "InstantBlacklist",
    "ProofOfMisbehavior",
    "ProofOfRelay",
    "QualityDeclaration",
    "RelayAccept",
    "RelayPlan",
    "RelayRequest",
    "SealedMessage",
    "StorageChallenge",
    "StorageProof",
    "make_proof_of_relay",
    "make_quality_declaration",
    "make_storage_proof",
    "open_message",
    "seal_message",
    "verify_proof_of_relay",
    "verify_quality_declaration",
    "verify_storage_proof",
]
