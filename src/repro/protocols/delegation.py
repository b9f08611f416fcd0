"""Vanilla Delegation Forwarding (Erramilli, Crovella, Chaintreau, Diot).

"When a relay node A gets in contact with a possible further relay B,
node A checks whether the forwarding quality of B is higher than the
forwarding quality of the message.  If this is the case, node A
creates a replica of the message, labels both messages with the
forwarding quality of node B, and forwards one of the two replicas to
B.  Otherwise, the message is not forwarded." (Sec. VI)

Messages are born labelled with the sender's quality.  Meeting the
destination always delivers.  Liars (declaring quality zero) never
qualify as relays — the free-riding the G2G variant punishes; droppers
accept and silently discard.
"""

from __future__ import annotations

from typing import Any, Dict, List, cast

from ..sim.messages import Message
from ..sim.node import NodeState
from ..traces.trace import NodeId
from .base import ForwardingProtocol, make_room
from .quality import FRAME_TIMER_TAG, QualityTracker

#: ``cast`` targets, built once: subscripting a generic alias per call
#: costs more than the cast itself.
_Messages = List[Message]


class DelegationForwarding(ForwardingProtocol):
    """Quality-gated replication, Destination Frequency / Last Contact."""

    family = "delegation"

    def __init__(self, variant: str = "last_contact") -> None:
        super().__init__()
        self.variant = variant
        self.name = f"delegation_{variant}"
        self.tracker: QualityTracker | None = None
        # Node -> message id -> the quality labelling that node's
        # copy.  Nodes buffer the shared message, so the per-holder
        # label lives here; a label outlives a copy dropped by a
        # buffer-capacity eviction or a departure, but is only read
        # for a buffered copy, and every store writes it first.
        self._labels: Dict[NodeId, Dict[int, float]] = {}

    def bind(self, ctx) -> None:
        super().bind(ctx)
        self.tracker = QualityTracker(
            self.variant, ctx.config.quality_timeframe
        )
        self.tracker.schedule_rollover(ctx)
        self._labels = {}

    def on_timer(self, tag: str, payload: Any, now: float) -> None:
        if tag == FRAME_TIMER_TAG:
            self.tracker.handle_frame_timer(self.ctx, payload, now)
        else:
            super().on_timer(tag, payload, now)

    def quality_of(self, node: NodeId, msg_id: int) -> float:
        """The forwarding quality labelling ``node``'s copy (``f_m``)."""
        return self._labels[node][msg_id]

    def _labels_of(self, node: NodeId) -> Dict[int, float]:
        labels = self._labels.get(node)
        if labels is None:
            labels = self._labels[node] = {}
        return labels

    def on_message_generated(self, message: Message, now: float) -> None:
        source = self.ctx.node(message.source)
        quality = self.tracker.current(
            message.source, message.destination, now
        )
        source.store(message, now, self.ctx.results)
        self._labels_of(message.source)[message.msg_id] = quality
        for peer in list(self.ctx.active_neighbors(message.source)):
            if self.ctx.usable_pair(message.source, peer):
                self._offer(source, self.ctx.node(peer), now)

    def on_contact_start(self, a: NodeId, b: NodeId, now: float) -> None:
        self.ctx.flush_timers(now)
        self.tracker.encounter(a, b, now)
        node_a, node_b = self.ctx.node(a), self.ctx.node(b)
        results = self.ctx.results
        for node in (node_a, node_b):
            expired = node.purge_expired(now, results)
            if expired:
                labels = self._labels_of(node.node_id)
                for msg_id in expired:
                    del labels[msg_id]
        for giver, taker in ((node_a, node_b), (node_b, node_a)):
            self._offer(giver, taker, now)

    # -- internals ------------------------------------------------------

    def _transfer(
        self, giver: NodeState, taker: NodeState, message: Message
    ) -> None:
        """Account one replica moving from ``giver`` to ``taker``."""
        results = self.ctx.results
        energy = self.ctx.config.energy
        results.relay_attempts += 1
        results.record_replica(message)
        results.add_energy(
            giver.node_id, energy.transfer_cost(message.size_bytes)
        )
        results.add_energy(
            taker.node_id, energy.receive_cost(message.size_bytes)
        )

    def _offer(self, giver: NodeState, taker: NodeState, now: float) -> None:
        """Run the delegation rule on every live copy ``taker`` lacks."""
        results = self.ctx.results
        # Baselines buffer the shared message itself.
        candidates = cast(_Messages, giver.relay_candidates(now, taker.seen))
        if not candidates:
            return
        labels = self._labels_of(giver.node_id)
        for message in candidates:
            msg_id = message.msg_id
            destination = message.destination
            if taker.node_id == destination:
                self._transfer(giver, taker, message)
                taker.mark_seen(msg_id)
                results.record_delivery(message, now)
                continue
            true_quality = self.tracker.current(
                taker.node_id, destination, now
            )
            declared = taker.strategy.declared_quality(
                taker.node_id, destination, true_quality, giver.node_id, now
            )
            if declared != true_quality:
                results.record_deviation(taker.node_id, message)
            if not self.tracker.better(declared, labels[msg_id]):
                continue
            # Label both replicas with the (declared) quality of B.
            self._transfer(giver, taker, message)
            labels[msg_id] = declared
            make_room(self.ctx, taker, now)
            taker.store(message, now, results)
            self._labels_of(taker.node_id)[msg_id] = declared
            keep = taker.strategy.keep_relayed_copy(
                taker.node_id, message, giver.node_id, now
            )
            if not keep:
                taker.drop(msg_id, now, results)
                del self._labels[taker.node_id][msg_id]
                results.record_deviation(taker.node_id, message)
