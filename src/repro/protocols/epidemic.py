"""Vanilla Epidemic Forwarding (Vahdat & Becker, 2000).

"In Epidemic Forwarding, every contact is used as an opportunity to
forward messages.  If node A meets node B, and A has a message that B
does not have, the message is relayed to node B." (Sec. IV)

Epidemic is the paper's benchmark: optimal delay and success rate at
maximal cost.  The TTL (Δ1) bounds relaying; nodes remember handled
message ids (the summary-vector mechanism) so a copy is never pushed
twice to the same node — which also means a selfish dropper does not
re-receive what it silently discarded.
"""

from __future__ import annotations

from ..sim.messages import Message, StoredCopy
from ..sim.node import NodeState
from ..traces.trace import NodeId
from .base import ForwardingProtocol, make_room


class EpidemicForwarding(ForwardingProtocol):
    """Flood every live message to every node that has not seen it."""

    name = "epidemic"
    family = "epidemic"

    def on_message_generated(self, message: Message, now: float) -> None:
        source = self.ctx.node(message.source)
        source.store(
            StoredCopy(message=message, received_at=now), now, self.ctx.results
        )
        # A message born during a contact spreads immediately.
        for peer in list(self.ctx.active_neighbors(message.source)):
            if self.ctx.usable_pair(message.source, peer):
                self._offer(source, self.ctx.node(peer), now)

    def on_contact_start(self, a: NodeId, b: NodeId, now: float) -> None:
        node_a, node_b = self.ctx.node(a), self.ctx.node(b)
        results = self.ctx.results
        node_a.purge_expired(now, results)
        node_b.purge_expired(now, results)
        for giver, taker in ((node_a, node_b), (node_b, node_a)):
            self._offer(giver, taker, now)

    # -- internals ------------------------------------------------------

    def _offer(self, giver: NodeState, taker: NodeState, now: float) -> None:
        """Relay every live copy of ``giver`` that ``taker`` lacks."""
        results = self.ctx.results
        energy = self.ctx.config.energy
        for copy in giver.live_copies(now):
            message = copy.message
            if taker.has_seen(message.msg_id):
                continue
            results.relay_attempts += 1
            results.record_replica(message)
            results.add_energy(
                giver.node_id, energy.transfer_cost(message.size_bytes)
            )
            results.add_energy(
                taker.node_id, energy.receive_cost(message.size_bytes)
            )
            copy.relays.append(taker.node_id)
            if taker.node_id == message.destination:
                taker.seen.add(message.msg_id)
                results.record_delivery(message, now)
                continue
            make_room(self.ctx, taker, now)
            taker.store(
                StoredCopy(
                    message=message,
                    received_at=now,
                    received_from=giver.node_id,
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
