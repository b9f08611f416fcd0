"""BubbleRap: social-based forwarding (Hui, Crowcroft, Yoneki, 2008).

The paper's reference [5] and the source of its community-detection
methodology.  Not part of the Give2Get evaluation, but the natural
social-aware baseline to place beside Delegation Forwarding:

* each node has a **global centrality** and, within its community, a
  **local centrality** (estimated online as the number of distinct
  nodes / community members encountered);
* a message *bubbles up* the global ranking until it reaches a member
  of the destination's community, then bubbles up the local ranking
  inside the community until delivery.

The community structure is taken from the simulation context's
community oracle (a :class:`repro.social.CommunityMap` or the
generator's ground truth).
"""

from __future__ import annotations

from typing import Dict, List, Set, cast

from ..sim.messages import Message
from ..sim.node import NodeState
from ..traces.trace import NodeId
from .base import ForwardingProtocol, make_room


class BubbleRapForwarding(ForwardingProtocol):
    """BubbleRap with online degree-centrality estimation."""

    name = "bubble_rap"
    family = "delegation"

    def __init__(self) -> None:
        super().__init__()
        self._met: Dict[NodeId, Set[NodeId]] = {}

    def bind(self, ctx) -> None:
        super().bind(ctx)
        if ctx.community is None:
            raise ValueError(
                "BubbleRap needs a community oracle in the simulation "
                "context (pass community=... to Simulation)"
            )
        self._met = {node: set() for node in ctx.nodes}

    # -- social metrics ---------------------------------------------------

    def global_centrality(self, node: NodeId) -> int:
        """Distinct nodes ever encountered (online degree)."""
        return len(self._met[node])

    def local_centrality(self, node: NodeId) -> int:
        """Distinct same-community nodes encountered."""
        return sum(
            1
            for peer in self._met[node]
            if self.ctx.community.same_community(node, peer)
        )

    def _in_destination_community(self, node: NodeId, dst: NodeId) -> bool:
        return self.ctx.community.same_community(node, dst)

    def on_message_generated(self, message: Message, now: float) -> None:
        source = self.ctx.node(message.source)
        source.store(message, now, self.ctx.results)
        for peer in list(self.ctx.active_neighbors(message.source)):
            if self.ctx.usable_pair(message.source, peer):
                self._offer(source, self.ctx.node(peer), now)

    def on_contact_start(self, a: NodeId, b: NodeId, now: float) -> None:
        self._met[a].add(b)
        self._met[b].add(a)
        node_a, node_b = self.ctx.node(a), self.ctx.node(b)
        results = self.ctx.results
        node_a.purge_expired(now, results)
        node_b.purge_expired(now, results)
        for giver, taker in ((node_a, node_b), (node_b, node_a)):
            self._offer(giver, taker, now)

    # -- internals ----------------------------------------------------------

    def _should_forward(
        self, giver: NodeId, taker: NodeId, destination: NodeId
    ) -> bool:
        """The bubble rule."""
        taker_in = self._in_destination_community(taker, destination)
        giver_in = self._in_destination_community(giver, destination)
        if taker_in and not giver_in:
            return True  # entering the destination's community
        if taker_in and giver_in:
            return self.local_centrality(taker) > self.local_centrality(giver)
        if giver_in:
            return False  # never bubble back out of the community
        return self.global_centrality(taker) > self.global_centrality(giver)

    def _offer(self, giver: NodeState, taker: NodeState, now: float) -> None:
        results = self.ctx.results
        energy = self.ctx.config.energy
        # Baselines buffer the shared message itself.
        candidates = cast(
            List[Message], giver.relay_candidates(now, taker.seen)
        )
        for message in candidates:
            destination = message.destination
            if taker.node_id != destination and not self._should_forward(
                giver.node_id, taker.node_id, destination
            ):
                continue
            results.relay_attempts += 1
            results.record_replica(message)
            results.add_energy(
                giver.node_id, energy.transfer_cost(message.size_bytes)
            )
            results.add_energy(
                taker.node_id, energy.receive_cost(message.size_bytes)
            )
            if taker.node_id == destination:
                taker.mark_seen(message.msg_id)
                results.record_delivery(message, now)
                continue
            make_room(self.ctx, taker, now)
            taker.store(message, now, results)
            keep = taker.strategy.keep_relayed_copy(
                taker.node_id, message, giver.node_id, now
            )
            if not keep:
                taker.drop(message.msg_id, now, results)
                results.record_deviation(taker.node_id, message)
