"""Binary Spray and Wait (Spyropoulos, Psounis, Raghavendra, 2005).

Not part of the Give2Get paper's evaluation, but the canonical
bounded-copies DTN baseline and a useful reference point next to the
give-2 rule: Spray and Wait bounds copies *globally* (L tokens minted
at the source, halved at each hand-off), while G2G bounds the
*per-relay fan-out* (2 onward hand-offs each, unbounded depth).

Protocol: a message starts with ``initial_copies`` logical tokens at
the source.  A node holding ``n > 1`` tokens that meets a node without
the message hands over ``floor(n / 2)`` tokens along with a replica
(the *spray* phase).  A node holding a single token only delivers
directly to the destination (the *wait* phase).
"""

from __future__ import annotations

from typing import List, cast

from ..sim.messages import Message
from ..sim.node import NodeState
from ..traces.trace import NodeId
from .base import ForwardingProtocol, make_room

class SprayAndWaitForwarding(ForwardingProtocol):
    """Binary Spray and Wait with configurable initial copy budget."""

    family = "epidemic"

    def __init__(self, initial_copies: int = 8) -> None:
        super().__init__()
        if initial_copies < 1:
            raise ValueError(
                f"initial_copies must be >= 1, got {initial_copies}"
            )
        self.initial_copies = initial_copies
        self.name = f"spray_and_wait_{initial_copies}"
        self._tokens: dict = {}

    def bind(self, ctx) -> None:
        super().bind(ctx)
        self._tokens = {}

    def _token_key(self, node: NodeId, msg_id: int):
        return (node, msg_id)

    def tokens_of(self, node: NodeId, msg_id: int) -> int:
        """Current token count of a node's copy (0 if absent)."""
        return self._tokens.get(self._token_key(node, msg_id), 0)

    def on_message_generated(self, message: Message, now: float) -> None:
        source = self.ctx.node(message.source)
        source.store(message, now, self.ctx.results)
        self._tokens[self._token_key(message.source, message.msg_id)] = (
            self.initial_copies
        )
        for peer in list(self.ctx.active_neighbors(message.source)):
            if self.ctx.usable_pair(message.source, peer):
                self._offer(source, self.ctx.node(peer), now)

    def on_contact_start(self, a: NodeId, b: NodeId, now: float) -> None:
        node_a, node_b = self.ctx.node(a), self.ctx.node(b)
        self._purge_expired(node_a, now)
        self._purge_expired(node_b, now)
        for giver, taker in ((node_a, node_b), (node_b, node_a)):
            self._offer(giver, taker, now)

    # -- internals ------------------------------------------------------

    def _purge_expired(self, node: NodeState, now: float) -> None:
        for msg_id in node.purge_expired(now, self.ctx.results):
            self._tokens.pop(self._token_key(node.node_id, msg_id), None)

    def _offer(self, giver: NodeState, taker: NodeState, now: float) -> None:
        results = self.ctx.results
        energy = self.ctx.config.energy
        # Baselines buffer the shared message itself.
        candidates = cast(
            List[Message], giver.relay_candidates(now, taker.seen)
        )
        for message in candidates:
            tokens = self.tokens_of(giver.node_id, message.msg_id)
            is_destination = taker.node_id == message.destination
            if not is_destination and tokens <= 1:
                continue  # wait phase: direct delivery only
            results.relay_attempts += 1
            results.record_replica(message)
            results.add_energy(
                giver.node_id, energy.transfer_cost(message.size_bytes)
            )
            results.add_energy(
                taker.node_id, energy.receive_cost(message.size_bytes)
            )
            if is_destination:
                taker.mark_seen(message.msg_id)
                results.record_delivery(message, now)
                continue
            handed = tokens // 2
            self._tokens[self._token_key(giver.node_id, message.msg_id)] = (
                tokens - handed
            )
            self._tokens[self._token_key(taker.node_id, message.msg_id)] = (
                handed
            )
            make_room(self.ctx, taker, now)
            taker.store(message, now, results)
            keep = taker.strategy.keep_relayed_copy(
                taker.node_id, message, giver.node_id, now
            )
            if not keep:
                taker.drop(message.msg_id, now, results)
                results.record_deviation(taker.node_id, message)
