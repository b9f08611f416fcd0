"""Baseline forwarding protocols and the protocol interface."""

from .base import (
    ForwardingProtocol,
    SimulationContext,
    exchange_pairs,
    make_room,
)
from .delegation import DelegationForwarding
from .epidemic import EpidemicForwarding
from .quality import QualityTracker

__all__ = [
    "DelegationForwarding",
    "EpidemicForwarding",
    "ForwardingProtocol",
    "QualityTracker",
    "SimulationContext",
    "exchange_pairs",
    "make_room",
]
