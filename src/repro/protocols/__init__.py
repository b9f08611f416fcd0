"""Baseline forwarding protocols and the protocol interface."""

from .base import (
    ForwardingProtocol,
    SimulationContext,
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
    "make_room",
]
