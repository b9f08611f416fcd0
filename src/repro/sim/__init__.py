"""Discrete-event DTN simulator driven by contact traces."""

from .config import EnergyModel, SimulationConfig, config_for
from .engine import ChurnEvent, ChurnService, Simulation, run_simulation
from .events import Event, EventKind, EventQueue, Scheduler, TimerHandle, TimerOwner
from .messages import Message, StoredCopy
from .node import NodeState
from .results import DetectionRecord, MessageRecord, SimulationResults
from .serialize import results_from_dict, results_to_dict
from .traffic import PoissonTraffic, TrafficDemand

__all__ = [
    "ChurnEvent",
    "ChurnService",
    "DetectionRecord",
    "EnergyModel",
    "Event",
    "EventKind",
    "EventQueue",
    "Message",
    "MessageRecord",
    "NodeState",
    "PoissonTraffic",
    "Scheduler",
    "Simulation",
    "SimulationConfig",
    "SimulationResults",
    "StoredCopy",
    "TimerHandle",
    "TimerOwner",
    "TrafficDemand",
    "config_for",
    "results_from_dict",
    "results_to_dict",
    "run_simulation",
]
