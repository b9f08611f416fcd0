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

from typing import Any

from ..sim.messages import BufferedCopy, Message
from ..sim.node import NodeState
from ..traces.trace import NodeId
from .base import ForwardingProtocol, make_room
from .quality import FRAME_TIMER_TAG, QualityTracker


class DelegationForwarding(ForwardingProtocol):
    """Quality-gated replication, Destination Frequency / Last Contact."""

    family = "delegation"

    def __init__(self, variant: str = "last_contact") -> None:
        super().__init__()
        self.variant = variant
        self.name = f"delegation_{variant}"
        self.tracker: QualityTracker | None = None

    def bind(self, ctx) -> None:
        super().bind(ctx)
        self.tracker = QualityTracker(
            self.variant, ctx.config.quality_timeframe
        )
        self.tracker.schedule_rollover(ctx)

    def on_timer(self, tag: str, payload: Any, now: float) -> None:
        if tag == FRAME_TIMER_TAG:
            self.tracker.handle_frame_timer(self.ctx, payload, now)
        else:
            super().on_timer(tag, payload, now)

    def on_message_generated(self, message: Message, now: float) -> None:
        source = self.ctx.node(message.source)
        quality = self.tracker.current(
            message.source, message.destination, now
        )
        source.store(
            BufferedCopy(message=message, received_at=now, quality=quality),
            now,
            self.ctx.results,
        )
        for peer in list(self.ctx.active_neighbors(message.source)):
            if self.ctx.usable_pair(message.source, peer):
                self._offer(source, self.ctx.node(peer), now)

    def on_contact_start(self, a: NodeId, b: NodeId, now: float) -> None:
        self.ctx.flush_timers(now)
        self.tracker.encounter(a, b, now)
        node_a, node_b = self.ctx.node(a), self.ctx.node(b)
        results = self.ctx.results
        node_a.purge_expired(now, results)
        node_b.purge_expired(now, results)
        for giver, taker in ((node_a, node_b), (node_b, node_a)):
            self._offer(giver, taker, now)

    # -- internals ------------------------------------------------------

    def _transfer(
        self,
        giver: NodeState,
        taker: NodeState,
        copy: BufferedCopy,
        now: float,
        quality: float,
    ) -> None:
        """Account one replica moving from ``giver`` to ``taker``."""
        message = copy.message
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
        for copy in giver.relay_candidates(now, taker.seen):
            message = copy.message
            destination = message.destination
            if taker.node_id == destination:
                self._transfer(giver, taker, copy, now, copy.quality)
                taker.mark_seen(message.msg_id)
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
            if not self.tracker.better(declared, copy.quality):
                continue
            # Label both replicas with the (declared) quality of B.
            self._transfer(giver, taker, copy, now, declared)
            copy.quality = declared
            make_room(self.ctx, taker, now)
            taker.store(
                BufferedCopy(
                    message=message,
                    received_at=now,
                    received_from=giver.node_id,
                    quality=declared,
                ),
                now,
                results,
            )
            keep = taker.strategy.keep_relayed_copy(
                taker.node_id, message, giver.node_id, now
            )
            if not keep:
                taker.drop(message.msg_id, now, results)
                results.record_deviation(taker.node_id, message)
