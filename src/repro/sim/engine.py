"""The simulation engine: drives a protocol over a contact source.

Usage::

    from repro.sim import Simulation, SimulationConfig
    from repro.protocols import EpidemicForwarding

    sim = Simulation(trace_window, EpidemicForwarding(), config)
    results = sim.run()

The engine is protocol-agnostic: it replays contact events and traffic
demands in time order and forwards them to the bound protocol; all
forwarding/testing/blacklisting logic lives in the protocol classes.

Ingestion goes through :class:`repro.traces.stream.ContactSource`: an
in-memory :class:`~repro.traces.trace.ContactTrace` is wrapped in the
bit-identical ``InMemorySource`` compatibility path, while streaming
sources (synthetic mega-traces, chunked files) are fed incrementally
into the event heap and get their :class:`NodeState` instantiated
lazily on first appearance — the engine's memory footprint follows the
set of *touched* nodes and in-flight events, not the trace size.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Dict, Mapping, Optional, Sequence, Union

if TYPE_CHECKING:  # circular at runtime: protocols.base imports sim
    from ..protocols.base import ForwardingProtocol, SimulationContext

from ..adversaries.base import HONEST, Strategy
from ..core.blacklist import BlacklistService, GossipBlacklist, InstantBlacklist
from ..perf import COUNTERS
from ..traces.stream import ContactSource, ensure_contact_source
from ..traces.trace import ContactTrace, NodeId
from .config import SimulationConfig
from .eventlog import EventLog, EventType
from .events import Event, EventKind, EventQueue, Scheduler
from .messages import Message
from .node import NodeState
from .results import SimulationResults
from .traffic import PoissonTraffic

#: Scheduler tag of churn join/leave timers.
CHURN_TIMER_TAG = "sim.churn"


@dataclass(frozen=True)
class ChurnEvent:
    """One node-level churn transition.

    Attributes:
        time: simulation time of the transition.
        node: the node leaving or (re)joining.
        action: ``"leave"`` or ``"join"``.
    """

    time: float
    node: NodeId
    action: str

    def __post_init__(self) -> None:
        if self.action not in ("leave", "join"):
            raise ValueError(
                f"churn action must be 'leave' or 'join', got {self.action!r}"
            )


class ChurnService:
    """Timer owner applying churn transitions to node state.

    Departures drop the node's buffered relays through
    :meth:`NodeState.depart` (memory settled, TTL timers cancelled);
    rejoins restore participation with a fresh buffer.  Transitions
    ride the run scheduler as ``TIMER`` events, so they dispatch in
    the same deterministic global order as everything else.
    """

    def __init__(self, ctx: "SimulationContext") -> None:
        self.ctx = ctx
        self.departures = 0
        self.rejoins = 0

    def on_timer(self, tag: str, payload: Any, now: float) -> None:
        node_id, action = payload
        node = self.ctx.nodes[node_id]
        if action == "leave":
            if not node.departed and not node.evicted:
                node.depart(now, self.ctx.results)
                self.departures += 1
                self.ctx.events.log(now, EventType.DEPARTED, actor=node_id)
        else:
            if node.departed and not node.evicted:
                node.rejoin(now)
                self.rejoins += 1
                self.ctx.events.log(now, EventType.REJOINED, actor=node_id)


class _NodeTable(Dict[NodeId, NodeState]):
    """Node states created lazily on first access (streaming sources).

    A 1M-node universe must not materialize a million ``NodeState``
    objects up front; the table builds one the first time any event or
    protocol touches the node.  Creation is a pure function of the
    node id (a strategy map lookup), so the lazy table is
    observationally identical to the eager dict for any access sequence.
    """

    def __init__(self, strategies: Mapping[NodeId, Strategy]) -> None:
        super().__init__()
        self._strategies = strategies

    def __missing__(self, node_id: NodeId) -> NodeState:
        node = NodeState(
            node_id=node_id,
            strategy=self._strategies.get(node_id, HONEST),
        )
        self[node_id] = node
        return node


class Simulation:
    """One simulation run binding source + protocol + config + strategies.

    Args:
        trace: the (already windowed) contact trace, or any
            :class:`~repro.traces.stream.ContactSource`; its time
            origin is the run's time origin.
        protocol: a fresh protocol instance (not shared across runs).
        config: run parameters.
        strategies: per-node strategies; nodes absent from the map are
            honest.
        blacklist: PoM propagation service; defaults to instant or
            gossip according to ``config.instant_blacklist``.
        churn: optional join/leave schedule; each transition becomes a
            ``TIMER`` event on the run scheduler.
        energy_budgets: optional per-node energy budgets (joules);
            empty means the paper's unbounded-battery setting.
    """

    def __init__(
        self,
        trace: Union[ContactTrace, ContactSource],
        protocol: "ForwardingProtocol",
        config: SimulationConfig,
        strategies: Optional[Dict[NodeId, Strategy]] = None,
        blacklist: Optional[BlacklistService] = None,
        churn: Optional[Sequence[ChurnEvent]] = None,
        energy_budgets: Optional[Mapping[NodeId, float]] = None,
    ) -> None:
        source = ensure_contact_source(trace, "Simulation")
        if source.num_nodes < 2:
            raise ValueError("simulation needs at least two nodes")
        self.source = source
        #: Backing in-memory trace when the source is materialized
        #: (the paper-scale path); ``None`` for streaming sources.
        self.trace = source.trace
        self.protocol = protocol
        self.config = config
        self.strategies = strategies or {}
        self.churn = tuple(churn or ())
        self.energy_budgets = dict(energy_budgets or {})
        universe = source.universe
        # ``range`` universes test membership in O(1); explicit node
        # tuples go through a set so the checks stay O(1) either way.
        known: Union[range, set] = (
            universe if isinstance(universe, range) else set(universe)
        )
        for transition in self.churn:
            if transition.node not in known:
                raise ValueError(
                    f"churn event for unknown node {transition.node}"
                )
        for node_id in self.energy_budgets:
            if node_id not in known:
                raise ValueError(
                    f"energy budget for unknown node {node_id}"
                )
        if blacklist is None:
            blacklist = (
                InstantBlacklist()
                if config.instant_blacklist
                else GossipBlacklist(
                    round_interval=config.blacklist_round_interval
                )
            )
        self.blacklist = blacklist

    def _build_context(self) -> "SimulationContext":
        from ..protocols.base import SimulationContext

        results = SimulationResults(
            protocol=self.protocol.name,
            trace=self.source.name,
            seed=self.config.seed,
        )
        lazy = not self.source.materialized
        nodes: Dict[NodeId, NodeState]
        if lazy:
            nodes = _NodeTable(self.strategies)
        else:
            nodes = {
                node_id: NodeState(
                    node_id=node_id,
                    strategy=self.strategies.get(node_id, HONEST),
                )
                for node_id in self.source.universe
            }
        events = EventLog(enabled=self.config.track_events)
        results.events = events
        scheduler = Scheduler(
            EventQueue(),
            horizon=self.config.run_length,
            default_owner=self.protocol,
            events=events,
        )
        return SimulationContext(
            config=self.config,
            nodes=nodes,
            results=results,
            rng=random.Random(f"{self.config.seed}|protocol"),
            blacklist=self.blacklist,
            events=events,
            scheduler=scheduler,
            energy_budgets=dict(self.energy_budgets),
            lazy_nodes=lazy,
        )

    def run(self) -> SimulationResults:
        """Execute the run and return its metrics.

        Besides the simulation outcome, the run's telemetry snapshot
        (per-run perf-counter deltas, event-loop dispatch counts,
        protocol-phase spans) is attached as ``results.telemetry`` —
        observability only, never part of the serialized results.
        """
        ops_before = COUNTERS.snapshot()
        ctx = self._build_context()
        self.protocol.bind(ctx)

        scheduler = ctx.scheduler
        assert scheduler is not None  # _build_context always wires one
        queue = scheduler.queue
        horizon = self.config.run_length
        self.blacklist.on_run_start(scheduler, self.source.universe)
        budgeted = bool(self.energy_budgets)
        if self.churn:
            churn_service = ChurnService(ctx)
            for transition in self.churn:
                scheduler.schedule(
                    transition.time,
                    CHURN_TIMER_TAG,
                    payload=(transition.node, transition.action),
                    owner=churn_service,
                )
        # All contact ingestion rides the queue's stream feeder: a
        # materialized trace feeds its (already sorted) contact tuple
        # in the same order the old bulk load pushed it, a streaming
        # source never has more than its pending frontier on the heap.
        # Ends past the horizon are clamped to it by the feeder: a
        # contact still open at run end closes at run end.
        queue.attach_contacts(self.source.iter_contacts(), horizon=horizon)
        for demand in PoissonTraffic(self.source.universe, self.config).demands():
            queue.push(
                # g2g: allow(G2G012: pre-run queue seeding; EventQueue owns ordering)
                Event(
                    time=demand.time,
                    kind=EventKind.MESSAGE_GENERATION,
                    traffic=(demand.source, demand.destination),
                )
            )

        msg_counter = 0
        contact_starts = contact_ends = timer_events = 0
        for event in queue.drain():
            # g2g: allow(G2G012: horizon guard only — ordering (and ties) stay owned by sim/events.py)
            if event.time > horizon:  # defensive: everything is clamped
                break  # pragma: no cover
            now = event.time
            if event.kind == EventKind.CONTACT_START:
                contact_starts += 1
                contact = event.contact
                assert contact is not None
                pair = frozenset((contact.a, contact.b))
                ctx.active_contacts.add(pair)
                if budgeted:
                    ctx.check_energy(contact.a, now)
                    ctx.check_energy(contact.b, now)
                if ctx.usable_pair(contact.a, contact.b):
                    self.blacklist.on_contact(contact.a, contact.b, now)
                    self.protocol.on_contact_start(contact.a, contact.b, now)
            elif event.kind == EventKind.CONTACT_END:
                contact_ends += 1
                contact = event.contact
                assert contact is not None
                ctx.active_contacts.discard(frozenset((contact.a, contact.b)))
                self.protocol.on_contact_end(contact.a, contact.b, now)
            elif event.kind == EventKind.TIMER:
                timer_events += 1
                assert event.timer is not None
                scheduler.fire(event.timer, now)
            else:
                assert event.traffic is not None
                source, destination = event.traffic
                if not ctx.nodes[source].participating:
                    continue  # evicted/departed/depleted: out of the system
                message = Message(
                    msg_id=msg_counter,
                    source=source,
                    destination=destination,
                    created_at=now,
                    ttl=self.config.ttl,
                    size_bytes=self.config.message_size,
                )
                msg_counter += 1
                ctx.results.record_generated(message)
                ctx.events.log(
                    now, EventType.GENERATED, msg_id=message.msg_id,
                    actor=source, subject=destination,
                )
                self.protocol.on_message_generated(message, now)

        self.protocol.finalize(horizon)
        ctx.telemetry.finalize_run(
            COUNTERS.diff(ops_before),
            {
                "contact_starts": contact_starts,
                "contact_ends": contact_ends,
                "timer_events": timer_events,
                "generations": msg_counter,
            },
            ctx.results,
        )
        ctx.results.telemetry = ctx.telemetry.snapshot()
        return ctx.results


def run_simulation(
    trace: Union[ContactTrace, ContactSource],
    protocol: "ForwardingProtocol",
    config: SimulationConfig,
    strategies: Optional[Dict[NodeId, Strategy]] = None,
) -> SimulationResults:
    """One-shot convenience wrapper around :class:`Simulation`."""
    return Simulation(trace, protocol, config, strategies=strategies).run()
