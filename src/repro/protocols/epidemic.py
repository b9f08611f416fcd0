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

from typing import List, cast

from ..adversaries.base import Strategy
from ..sim.messages import Message
from ..sim.node import NodeState
from ..traces.trace import NodeId
from .base import ForwardingProtocol, make_room

#: ``cast`` targets, built once: subscripting a generic alias per call
#: costs more than the cast itself.
_Messages = List[Message]


class EpidemicForwarding(ForwardingProtocol):
    """Flood every live message to every node that has not seen it."""

    name = "epidemic"
    family = "epidemic"

    def on_message_generated(self, message: Message, now: float) -> None:
        source = self.ctx.node(message.source)
        source.store(message, now, self.ctx.results)
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
        """Relay every live copy of ``giver`` that ``taker`` lacks.

        The taker's ``seen`` set filters the scan in bulk: inside the
        loop it only gains the id being relayed, so no later candidate
        is affected.  The per-relay bookkeeping is inlined — the
        energy charges use ``transfer_cost``/``receive_cost``'s exact
        expressions, so the ledger floats are unchanged.
        """
        # Baselines buffer the shared message itself.
        candidates = cast(_Messages, giver.relay_candidates(now, taker.seen))
        if not candidates:
            return
        ctx = self.ctx
        results = ctx.results
        config = ctx.config
        energy = config.energy
        transmit_per_kb = energy.transmit_per_kb
        receive_per_kb = energy.receive_per_kb
        energy_acct = results.energy
        energy_get = energy_acct.get
        records = results.messages
        giver_id = giver.node_id
        taker_id = taker.node_id
        bounded = config.buffer_capacity is not None
        strategy = taker.strategy
        # Honest takers keep every copy: skip the hook call for them.
        keep_hook = (
            None
            if type(strategy).keep_relayed_copy is Strategy.keep_relayed_copy
            else strategy.keep_relayed_copy
        )
        for message in candidates:
            msg_id = message.msg_id
            size = message.size_bytes
            results.relay_attempts += 1
            records[msg_id].replicas += 1
            energy_acct[giver_id] = (
                energy_get(giver_id, 0.0) + transmit_per_kb * size / 1024.0
            )
            energy_acct[taker_id] = (
                energy_get(taker_id, 0.0) + receive_per_kb * size / 1024.0
            )
            if taker_id == message.destination:
                taker.mark_seen(msg_id)
                results.record_delivery(message, now)
                continue
            if bounded:
                make_room(ctx, taker, now)
            taker.store(message, now, results)
            if keep_hook is not None and not keep_hook(
                taker_id, message, giver_id, now
            ):
                taker.drop(msg_id, now, results)
                results.record_deviation(taker_id, message)
