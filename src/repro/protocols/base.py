"""Forwarding-protocol interface and the shared simulation context.

A protocol object is bound to one simulation run via
:meth:`ForwardingProtocol.bind` and then driven by the engine through
the event hooks.  Protocols are *network-wide coordinators*: they hold
no per-run state of their own beyond what lives in the per-node
:class:`~repro.sim.node.NodeState` objects, which keeps a single
protocol implementation reusable across runs and makes node state
inspectable in tests.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, Optional, Protocol, Set

import random

from ..core.blacklist import BlacklistService, InstantBlacklist
from ..sim.eventlog import EventLog, EventType
from ..sim.config import SimulationConfig
from ..sim.events import Scheduler, TimerHandle, TimerOwner
from ..sim.messages import Message
from ..sim.node import NodeState
from ..sim.results import SimulationResults
from ..telemetry.run import RunTelemetry
from ..traces.trace import NodeId


class CommunityOracle(Protocol):
    """Structural interface of a community oracle.

    Anything exposing ``same_community`` qualifies — the detected
    :class:`repro.social.CommunityMap`, a synthetic trace's planted
    partition, or a test stub.  It picks and wraps the with-outsiders
    adversaries when a run's population is expanded.
    """

    def same_community(self, a: NodeId, b: NodeId) -> bool:
        """Whether ``a`` and ``b`` belong to one community."""
        ...  # pragma: no cover - protocol declaration


@dataclass
class SimulationContext:
    """Everything a protocol needs during a run.

    Attributes:
        config: run parameters.
        nodes: per-node runtime state.
        results: metrics sink.
        rng: protocol-side randomness (distinct stream from traffic).
        blacklist: PoM propagation service.
        active_contacts: currently open contacts as unordered pairs.
        scheduler: the run scheduler timers route through; None only
            in hand-built contexts that never touch timers.
        telemetry: the run's metrics registry + span recorder; the
            engine folds run totals into it at run end and attaches
            its snapshot to ``results.telemetry``.
        energy_budgets: optional per-node energy budgets (joules);
            empty for the paper's unbounded-battery setting.  A node
            whose cumulative spend reaches its budget is marked
            ``depleted`` at the next :meth:`check_energy` and stops
            participating (see docs/scenarios.md).
        lazy_nodes: True when ``nodes`` is a lazy table over a
            streaming source's universe — protocols must not iterate
            or size it during ``bind`` (it only holds *touched* nodes)
            and should build their own per-node maps lazily too.
    """

    config: SimulationConfig
    nodes: Dict[NodeId, NodeState]
    results: SimulationResults
    rng: random.Random
    blacklist: BlacklistService = field(default_factory=InstantBlacklist)
    active_contacts: Set[frozenset] = field(default_factory=set)
    events: EventLog = field(default_factory=lambda: EventLog(enabled=False))
    scheduler: Optional[Scheduler] = None
    telemetry: RunTelemetry = field(default_factory=RunTelemetry)
    energy_budgets: Dict[NodeId, float] = field(default_factory=dict)
    lazy_nodes: bool = False

    def node(self, node_id: NodeId) -> NodeState:
        """Runtime state of ``node_id``."""
        return self.nodes[node_id]

    # -- scheduler passthroughs ----------------------------------------

    def schedule(
        self,
        time: float,
        tag: str,
        payload: Any = None,
        owner: Optional[TimerOwner] = None,
    ) -> TimerHandle:
        """Register a timer with the run scheduler.

        Without an explicit ``owner`` the dispatch goes to the
        scheduler's default owner (the bound protocol).  In a
        hand-built context with no scheduler the handle comes back
        already cancelled — deferred work simply never fires, matching
        a run that ends before the deadline.
        """
        if self.scheduler is None:
            # g2g: allow(G2G012: inert (born-cancelled) handle; it never enters a queue)
            return TimerHandle(
                time=time, tag=tag, payload=payload, owner=owner,
                cancelled=True,
            )
        return self.scheduler.schedule(time, tag, payload=payload, owner=owner)

    def cancel(self, handle: TimerHandle) -> None:
        """Cancel a pending timer (idempotent)."""
        if self.scheduler is not None:
            self.scheduler.cancel(handle)

    def flush_timers(self, now: float) -> None:
        """Dispatch timers strictly before ``now``.

        Harness hook: protocols call this on entry to their contact
        hooks so tests that drive hooks directly (no engine loop)
        still advance timers.  Under ``Simulation.run()`` it is a
        guaranteed no-op — the loop has already popped everything
        strictly before the event being dispatched.
        """
        if self.scheduler is not None:
            self.scheduler.dispatch_until(now)

    def active_neighbors(self, node_id: NodeId) -> Iterable[NodeId]:
        """Peers currently in contact with ``node_id`` (participating)."""
        for pair in self.active_contacts:
            if node_id in pair:
                a, b = pair
                peer = b if a == node_id else a
                if self.nodes[peer].participating:
                    yield peer

    def usable_pair(self, a: NodeId, b: NodeId) -> bool:
        """True when a session between ``a`` and ``b`` can open.

        Evicted, churned-out, and energy-depleted nodes cannot open
        sessions at all; otherwise each endpoint refuses if it knows
        the peer is convicted.
        """
        node_a, node_b = self.nodes[a], self.nodes[b]
        if not (node_a.participating and node_b.participating):
            return False
        return not (
            self.blacklist.knows(a, b) or self.blacklist.knows(b, a)
        )

    def check_energy(self, node_id: NodeId, now: float) -> None:
        """Deplete ``node_id`` if its spend reached its budget.

        A no-op without budgets (the paper's setting) and for nodes
        without one.  Depletion is checked *between* protocol
        exchanges, never inside one: the handshake that crosses the
        budget still completes — a device does not brown out halfway
        through signing — and the node goes dark afterwards.  The
        buffer is deliberately kept (storage outlives the radio), so
        memory keeps accruing while participation stops.
        """
        budget = self.energy_budgets.get(node_id)
        if budget is None:
            return
        node = self.nodes[node_id]
        if node.depleted:
            return
        if self.results.energy.get(node_id, 0.0) >= budget:
            node.depleted = True
            self.telemetry.registry.inc("run.energy_depletions")
            self.events.log(now, EventType.DEPLETED, actor=node_id)

    def evict(self, offender: NodeId, now: float) -> None:
        """Remove a convicted node from the network.

        With the instant blacklist this is global and final; with
        gossip, the node stays "physically" present but is recorded as
        evicted once conviction becomes network-wide knowledge is not
        required — the simulator considers the first conviction the
        eviction instant for metric purposes.
        """
        node = self.nodes[offender]
        if node.evicted:
            return
        node.evicted = True
        node.flush(now, self.results)
        self.results.record_eviction(offender, now)
        self.events.log(now, EventType.EVICTED, actor=offender)


class ForwardingProtocol(ABC):
    """Base class of all forwarding protocols.

    Lifecycle: ``bind(ctx)`` once per run, then the engine calls
    ``on_message_generated`` / ``on_contact_start`` / ``on_contact_end``
    / ``on_timer`` in event order and ``finalize`` at the end of the
    run.
    """

    #: Human-readable protocol name (used in result tables).
    name: str = "abstract"
    #: TTL family: "epidemic" or "delegation" (selects the paper TTL).
    family: str = "epidemic"

    def __init__(self) -> None:
        self.ctx: Optional[SimulationContext] = None

    def bind(self, ctx: SimulationContext) -> None:
        """Attach the protocol to a run; subclasses extend."""
        self.ctx = ctx

    @abstractmethod
    def on_message_generated(self, message: Message, now: float) -> None:
        """A new message appeared at its source."""

    @abstractmethod
    def on_contact_start(self, a: NodeId, b: NodeId, now: float) -> None:
        """Two nodes came into range."""

    def on_contact_end(self, a: NodeId, b: NodeId, now: float) -> None:
        """Two nodes left range (default: nothing to do)."""

    def on_timer(self, tag: str, payload: Any, now: float) -> None:
        """A timer scheduled for this protocol fired (default: no-op).

        Dispatched by the engine in global event order; ``TIMER``
        events sort after every contact and generation at the same
        instant, so the hook observes the post-contact state of its
        timestamp.
        """

    def finalize(self, now: float) -> None:
        """End-of-run cleanup (default: settle node accounting)."""
        assert self.ctx is not None
        for node in self.ctx.nodes.values():
            node.flush(now, self.ctx.results)


def make_room(ctx: SimulationContext, node: NodeState, now: float) -> None:
    """Enforce the configured buffer capacity before a new store.

    The paper assumes infinite buffers; with a finite
    ``config.buffer_capacity`` the node evicts the buffered body
    closest to its TTL expiry (the copy with the least forwarding
    future).  In G2G runs an evicted body can later cost the node a
    failed storage challenge — the realistic memory-pressure risk the
    finite-buffer ablation quantifies.
    """
    capacity = ctx.config.buffer_capacity
    if capacity is None:
        return
    bodies = [
        entry
        for msg_id, entry in node.buffer.items()
        if not node.body_dropped(msg_id)
    ]
    while len(bodies) >= capacity:
        # Risk-aware victim choice: a node's *own* messages carry no
        # test obligation, so they go first; among relayed bodies the
        # earliest-expiring one has the least forwarding future left.
        victim = min(
            bodies,
            key=lambda entry: (
                entry.source != node.node_id,
                entry.expires_at,
            ),
        )
        node.drop(victim.msg_id, now, ctx.results)
        ctx.results.buffer_evictions += 1
        ctx.events.log(
            now,
            EventType.BUFFER_EVICTED,
            msg_id=victim.msg_id,
            actor=node.node_id,
        )
        bodies.remove(victim)
