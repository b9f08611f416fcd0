"""PRoPHET: Probabilistic Routing using History of Encounters
(Lindgren, Doria, Schelén, 2003).

Not part of the Give2Get paper's evaluation; included as the classic
probabilistic single-copy-gated baseline next to Delegation
Forwarding.  Each node maintains delivery predictabilities
``P(self, x)`` for every other node:

* **direct update** on every encounter with ``b``:
  ``P(a,b) = P + (1 - P) * p_init``;
* **aging** with time: ``P = P * gamma^(dt / age_unit)``;
* **transitivity** on encounter: for every ``c``,
  ``P(a,c) = max(P(a,c), P(a,b) * P(b,c) * beta)``.

A copy is replicated to a peer whose predictability for the
destination exceeds the holder's (the GRTR strategy of the paper).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, cast

from ..sim.messages import Message
from ..sim.node import NodeState
from ..traces.trace import NodeId
from .base import ForwardingProtocol, make_room

#: Canonical parameter values from the PRoPHET paper.
P_INIT = 0.75
GAMMA = 0.98
BETA = 0.25
AGE_UNIT = 60.0  # seconds per aging time unit


@dataclass
class _Predictability:
    """One node's predictability table with lazy aging."""

    table: Dict[NodeId, float] = field(default_factory=dict)
    last_aged: float = 0.0

    def age(self, now: float) -> None:
        """Apply exponential aging up to ``now``."""
        dt = now - self.last_aged
        if dt <= 0:
            return
        factor = GAMMA ** (dt / AGE_UNIT)
        for node in list(self.table):
            self.table[node] *= factor
            if self.table[node] < 1e-6:
                del self.table[node]
        self.last_aged = now

    def get(self, node: NodeId) -> float:
        """Current predictability towards ``node``."""
        return self.table.get(node, 0.0)


class ProphetForwarding(ForwardingProtocol):
    """PRoPHET with the GRTR forwarding strategy."""

    name = "prophet"
    family = "delegation"

    def __init__(self) -> None:
        super().__init__()
        self._predictability: Dict[NodeId, _Predictability] = {}

    def bind(self, ctx) -> None:
        super().bind(ctx)
        self._predictability = {
            node: _Predictability() for node in ctx.nodes
        }

    def predictability(self, a: NodeId, b: NodeId, now: float) -> float:
        """P(a, b) after aging to ``now`` (exposed for tests)."""
        record = self._predictability[a]
        record.age(now)
        return record.get(b)

    def _update_on_encounter(self, a: NodeId, b: NodeId, now: float) -> None:
        pa, pb = self._predictability[a], self._predictability[b]
        pa.age(now)
        pb.age(now)
        pa.table[b] = pa.get(b) + (1.0 - pa.get(b)) * P_INIT
        pb.table[a] = pb.get(a) + (1.0 - pb.get(a)) * P_INIT
        # Transitivity both ways.
        for x, px in ((a, pa), (b, pb)):
            peer_table = pb if x == a else pa
            peer = b if x == a else a
            for c, p_peer_c in list(peer_table.table.items()):
                if c == x:
                    continue
                bridged = px.get(peer) * p_peer_c * BETA
                if bridged > px.get(c):
                    px.table[c] = bridged

    def on_message_generated(self, message: Message, now: float) -> None:
        source = self.ctx.node(message.source)
        source.store(message, now, self.ctx.results)
        for peer in list(self.ctx.active_neighbors(message.source)):
            if self.ctx.usable_pair(message.source, peer):
                self._offer(source, self.ctx.node(peer), now)

    def on_contact_start(self, a: NodeId, b: NodeId, now: float) -> None:
        self._update_on_encounter(a, b, now)
        node_a, node_b = self.ctx.node(a), self.ctx.node(b)
        results = self.ctx.results
        node_a.purge_expired(now, results)
        node_b.purge_expired(now, results)
        for giver, taker in ((node_a, node_b), (node_b, node_a)):
            self._offer(giver, taker, now)

    # -- internals ------------------------------------------------------

    def _offer(self, giver: NodeState, taker: NodeState, now: float) -> None:
        results = self.ctx.results
        energy = self.ctx.config.energy
        # Baselines buffer the shared message itself.
        candidates = cast(
            List[Message], giver.relay_candidates(now, taker.seen)
        )
        for message in candidates:
            destination = message.destination
            if taker.node_id != destination:
                p_taker = self.predictability(taker.node_id, destination, now)
                p_giver = self.predictability(giver.node_id, destination, now)
                if not p_taker > p_giver:
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
