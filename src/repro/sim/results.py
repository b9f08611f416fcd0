"""Metrics collection and aggregation for simulation runs.

Collects exactly the quantities the paper reports:

* **success rate** — fraction of generated messages delivered;
* **delay** — generation-to-first-delivery time of delivered messages;
* **cost** — number of replicas of each message created in the network
  (every hand-off counts one replica; the source's original does not);
* **detection** — for G2G runs with adversaries: which misbehaving
  nodes were detected, and the detection delay measured *after the
  expiry of the message's Δ1* (the convention of Fig. 4, Fig. 7 and
  Table I);
* **overheads** — energy (joules, via the configured
  :class:`~repro.sim.config.EnergyModel`) and memory (byte-seconds).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Set

import numpy as np

from ..traces.trace import NodeId
from .messages import Message


@dataclass(slots=True)
class MessageRecord:
    """Lifecycle of one generated message.

    Slotted: a run's results hold one record per generated message.
    """

    message: Message
    delivered_at: Optional[float] = None
    replicas: int = 0

    @property
    def delivered(self) -> bool:
        """True once the destination received the message."""
        return self.delivered_at is not None

    @property
    def delay(self) -> Optional[float]:
        """Generation-to-delivery delay, or None if undelivered."""
        if self.delivered_at is None:
            return None
        return self.delivered_at - self.message.created_at


@dataclass(frozen=True)
class DetectionRecord:
    """One proof of misbehavior issued during a run.

    Attributes:
        offender: the node the PoM incriminates.
        detector: the node that produced the PoM.
        time: simulation time of detection.
        msg_id: the message whose handling was tested.
        deviation: "dropper" / "liar" / "cheater" — from the PoM kind.
        delay_after_ttl: ``time - (created_at + Δ1)`` of the tested
            message, the paper's detection-time convention.
    """

    offender: NodeId
    detector: NodeId
    time: float
    msg_id: int
    deviation: str
    delay_after_ttl: float


@dataclass
class SimulationResults:
    """Everything measured during one run."""

    protocol: str = ""
    trace: str = ""
    seed: int = 0
    messages: Dict[int, MessageRecord] = field(default_factory=dict)
    detections: List[DetectionRecord] = field(default_factory=list)
    evicted_at: Dict[NodeId, float] = field(default_factory=dict)
    energy: Dict[NodeId, float] = field(default_factory=dict)
    memory_byte_seconds: Dict[NodeId, float] = field(default_factory=dict)
    heavy_hmac_runs: int = 0
    relay_attempts: int = 0
    test_phases: int = 0
    buffer_evictions: int = 0
    session_refusals: int = 0
    deviation_counts: Dict[NodeId, int] = field(default_factory=dict)
    events: Optional[object] = None  # EventLog when config.track_events
    first_deviation_expiry: Dict[NodeId, float] = field(default_factory=dict)
    # RunTelemetry snapshot attached by the engine at run end.  Like
    # ``events``, this is observability sidecar state: it rides on the
    # results object but is deliberately NOT part of the serialized
    # form (results_to_dict) — the bit-identical digest/golden contract
    # covers simulation outcomes only, and cache round-trips drop it.
    telemetry: Optional[Dict[str, Any]] = field(default=None, repr=False)

    # -- recording hooks (called by protocols / the engine) -----------

    def record_generated(self, message: Message) -> None:
        """Register a freshly generated message."""
        self.messages[message.msg_id] = MessageRecord(message=message)

    def record_replica(self, message: Message) -> None:
        """Count one hand-off of ``message`` to a new node."""
        self.messages[message.msg_id].replicas += 1

    def record_delivery(self, message: Message, now: float) -> None:
        """Record the first delivery of ``message`` (later ones ignored)."""
        record = self.messages[message.msg_id]
        if record.delivered_at is None:
            record.delivered_at = now

    def record_detection(self, record: DetectionRecord) -> None:
        """Register a PoM."""
        self.detections.append(record)

    def record_eviction(self, node: NodeId, now: float) -> None:
        """Register the removal of ``node`` from the network."""
        self.evicted_at.setdefault(node, now)

    def record_deviation(self, node: NodeId, message: Message) -> None:
        """Register that ``node`` deviated while handling ``message``.

        Tracks the Δ1-expiry of the *first* message each node deviated
        on — the anchor for offender-level detection delays (how long
        a node can misbehave before removal, discounting the inherent
        Δ1 window during which no test can happen).
        """
        self.deviation_counts[node] = self.deviation_counts.get(node, 0) + 1
        self.first_deviation_expiry.setdefault(node, message.expires_at)

    def add_energy(self, node: NodeId, joules: float) -> None:
        """Charge ``joules`` to ``node``."""
        self.energy[node] = self.energy.get(node, 0.0) + joules

    def add_memory(self, node: NodeId, byte_seconds: float) -> None:
        """Accumulate memory usage of ``node``."""
        self.memory_byte_seconds[node] = (
            self.memory_byte_seconds.get(node, 0.0) + byte_seconds
        )

    # -- derived metrics ----------------------------------------------

    @property
    def generated(self) -> int:
        """Number of generated messages."""
        return len(self.messages)

    @property
    def delivered(self) -> int:
        """Number of delivered messages."""
        return sum(1 for r in self.messages.values() if r.delivered)

    @property
    def success_rate(self) -> float:
        """Delivered / generated (0.0 for an empty run)."""
        return self.delivered / self.generated if self.generated else 0.0

    def delays(self) -> List[float]:
        """Delays of all delivered messages."""
        return [r.delay for r in self.messages.values() if r.delay is not None]

    @property
    def mean_delay(self) -> float:
        """Mean delivery delay (0.0 when nothing was delivered)."""
        delays = self.delays()
        return float(np.mean(delays)) if delays else 0.0

    @property
    def median_delay(self) -> float:
        """Median delivery delay (0.0 when nothing was delivered)."""
        delays = self.delays()
        return float(np.median(delays)) if delays else 0.0

    @property
    def cost(self) -> float:
        """Mean number of replicas per generated message."""
        if not self.messages:
            return 0.0
        return float(
            np.mean([r.replicas for r in self.messages.values()])
        )

    @property
    def total_energy(self) -> float:
        """Network-wide energy spend in joules."""
        return sum(self.energy.values())

    @property
    def total_memory_byte_seconds(self) -> float:
        """Network-wide memory usage integral."""
        return sum(self.memory_byte_seconds.values())

    # -- detection metrics --------------------------------------------

    def detected_offenders(self) -> Set[NodeId]:
        """Distinct nodes incriminated by at least one PoM."""
        return {d.offender for d in self.detections}

    def detection_rate(self, misbehaving: Sequence[NodeId]) -> float:
        """Fraction of ``misbehaving`` nodes detected during the run."""
        if not misbehaving:
            return 0.0
        detected = self.detected_offenders()
        return sum(1 for n in misbehaving if n in detected) / len(misbehaving)

    def first_detections(self) -> Dict[NodeId, DetectionRecord]:
        """Earliest PoM per offender."""
        first: Dict[NodeId, DetectionRecord] = {}
        for record in sorted(self.detections, key=lambda d: d.time):
            first.setdefault(record.offender, record)
        return first

    def mean_detection_delay(self) -> float:
        """Mean first-detection delay after Δ1 expiry (paper convention).

        Returns 0.0 when nothing was detected.
        """
        firsts = self.first_detections()
        if not firsts:
            return 0.0
        return float(
            np.mean([max(0.0, d.delay_after_ttl) for d in firsts.values()])
        )

    def offender_detection_delays(self) -> Dict[NodeId, float]:
        """Per-offender delay from first deviation to first conviction.

        Anchored at the Δ1-expiry of the first message the offender
        deviated on (before that instant no test phase can occur), and
        clamped at zero for detections that race the anchor — e.g. a
        liar convicted by a destination before the lied-about
        message's TTL ran out.
        """
        firsts = self.first_detections()
        delays: Dict[NodeId, float] = {}
        for offender, record in firsts.items():
            anchor = self.first_deviation_expiry.get(offender)
            if anchor is None:
                delays[offender] = max(0.0, record.delay_after_ttl)
            else:
                delays[offender] = max(0.0, record.time - anchor)
        return delays

    def mean_offender_detection_delay(self) -> float:
        """Mean of :meth:`offender_detection_delays` (0.0 if none)."""
        delays = list(self.offender_detection_delays().values())
        return float(np.mean(delays)) if delays else 0.0

    def false_positives(self, misbehaving: Sequence[NodeId]) -> Set[NodeId]:
        """Detected nodes that were in fact faithful.

        The protocols are designed so this is empty; tests assert it.
        """
        return self.detected_offenders() - set(misbehaving)

    def summary(self) -> Dict[str, float]:
        """Flat dict of the headline metrics (for tables/benchmarks)."""
        return {
            "generated": float(self.generated),
            "delivered": float(self.delivered),
            "success_rate": self.success_rate,
            "mean_delay": self.mean_delay,
            "median_delay": self.median_delay,
            "cost": self.cost,
            "detections": float(len(self.detections)),
            "total_energy": self.total_energy,
        }
