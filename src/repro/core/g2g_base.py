"""Shared machinery of the Give2Get protocols.

Both G2G Epidemic and G2G Delegation are built from the same parts
(Sections IV and VI of the paper):

* **message generation** — the source seals the body to the
  destination's public key and signs the result; relays see the
  destination but never the sender;
* **the relay phase** — the 5-step signed handshake of Fig. 1 (with
  the quality negotiation of Fig. 6 in the delegation variant),
  ending in a Proof of Relay signed by the taker;
* **the give-2 rule** — every holder forwards to at most
  ``config.relay_fanout`` (= 2) other nodes, then may discard the
  body, keeping the proofs until Δ2;
* **the test phase** — when the *source* of a message re-meets one of
  its direct relays in the window (Δ1, Δ2], it demands either the two
  proofs of relay or a heavy-HMAC storage proof; failure yields a
  Proof of Misbehavior, broadcast through the blacklist service.

Subclasses plug in the relay admission rule (epidemic: "has not seen
it"; delegation: the quality negotiation) and the extra checks
(delegation: the cheater chain check in the test by the sender and
the liar check in the test by the destination).
"""

from __future__ import annotations

from array import array
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Set, Tuple, Union, cast

from ..adversaries.base import Strategy
from ..crypto.hashing import HeavyHmac
from ..crypto.keys import Authority, Certificate, NodeIdentity
from ..crypto.provider import CryptoProvider
from ..crypto.tiers import make_provider
from ..perf.counters import COUNTERS
from ..protocols.base import ForwardingProtocol, SimulationContext, make_room
from ..sim.eventlog import EventType
from ..sim.messages import Message, StoredCopy
from ..sim.node import NodeState
from ..sim.results import DetectionRecord
from ..telemetry.spans import (
    SPAN_DESTINATION_TEST,
    SPAN_POM,
    SPAN_RELAY_HANDSHAKE,
    SPAN_SENDER_TEST,
)
from ..traces.trace import NodeId
from .blacklist import ProofOfMisbehavior
from .proofs import (
    make_proof_of_relay,
    make_storage_proof,
    open_message,
    random_seed,
    seal_message,
    verify_proofs_of_relay,
    verify_storage_proof,
)
from .wire import CONTROL_MESSAGE_SIZE, ProofOfRelay, SealedMessage

#: ``cast`` targets, built once: subscripting a generic alias per call
#: costs more than the cast itself.
_StoredCopies = List[StoredCopy]
_MaybeCopy = Optional[StoredCopy]

#: A per-node deadline queue: a sorted ``array('d')`` of deadlines and
#: the parallel list of message ids, maintained with ``bisect``.  The
#: Δ2 purges used to be one scheduler timer per stored copy / audit
#: record; the deadlines are observationally transparent (every read
#: of the purged state is already guarded by the Δ2 window), so they
#: now live in these arrays and are drained at the owning node's next
#: contact — removing two scheduler events per hand-off from the run
#: without changing any observable output.
DeadlineQueue = Tuple[array, List[int]]


def _new_deadline_queue() -> DeadlineQueue:
    """A fresh empty deadline queue (lazy per-node map factory)."""
    return (array("d"), [])


class _LazyIdentities(Dict[NodeId, NodeIdentity]):
    """Identities enrolled on first touch (streaming universes).

    Keypairs draw from the provider's shared seeded RNG, so key
    material depends on enrollment order — first-touch order here,
    which is itself a deterministic function of the event stream.
    Streaming runs are therefore reproducible seed-for-seed; only the
    materialized path keeps the historical universe-order enrollment
    (that order is baked into the goldens).
    """

    def __init__(self, authority: Authority) -> None:
        super().__init__()
        self._authority = authority

    def __missing__(self, node_id: NodeId) -> NodeIdentity:
        identity = self._authority.enroll(node_id)
        self[node_id] = identity
        return identity


class _LazyMap(Dict[NodeId, Any]):
    """Per-node state created on first touch (streaming universes)."""

    def __init__(self, factory: Any) -> None:
        super().__init__()
        self._factory = factory

    def __missing__(self, node_id: NodeId) -> Any:
        value = self._factory()
        self[node_id] = value
        return value


def _enqueue_deadline(
    queue: DeadlineQueue, deadline: float, msg_id: int
) -> None:
    """Insert one (deadline, msg_id) entry keeping the queue sorted.

    Deadlines arrive in near-sorted order (message creation times are
    monotone within a run), so the ``bisect`` lands at or near the end
    and the insert is effectively an append.
    """
    times, ids = queue
    index = bisect_right(times, deadline)
    times.insert(index, deadline)
    ids.insert(index, msg_id)


@dataclass
class RelayPlan:
    """Outcome of the pre-relay negotiation for one (copy, taker) pair.

    ``None`` from :meth:`Give2GetBase._negotiate` means "do not relay";
    otherwise this bundle parameterizes the hand-off.
    """

    quality_subject: Optional[NodeId] = None
    message_quality: Optional[float] = None
    taker_quality: Optional[float] = None
    new_copy_quality: float = 0.0
    attachments: List[Any] = field(default_factory=list)
    declaration: Any = None


#: The all-defaults plan of the unconditional (epidemic) negotiation,
#: built once and shared by every hand-off.  Strictly read-only: the
#: relay path copies non-empty ``attachments`` before storing and never
#: writes a plan field, so one instance can parameterize 40k+ relays
#: without 40k dataclass constructions.
ACCEPT_PLAN = RelayPlan()


@dataclass
class _SourceRecord:
    """What a giver remembers about a message it handed out.

    In the paper only the *source* keeps (and acts on) this record —
    the test phase "is started only by the source of the message".
    The ``testers="any_giver"`` ablation also creates records at
    intermediate relays; ``is_source`` keeps the source-only duties
    (embedding failed declarations) from leaking to relays.
    """

    message: Message
    is_source: bool = True
    takers: List[NodeId] = field(default_factory=list)
    tested: Set[NodeId] = field(default_factory=set)
    # Delegation: taker -> the quality declaration given at hand-off.
    taker_declarations: Dict[NodeId, Any] = field(default_factory=dict)
    # Delegation: the last two candidates that failed, each kept as the
    # unsigned inputs ``(identity, D', value, frame, time)`` of its
    # declaration until a hand-off embeds it, then as the signed
    # declaration.
    failed_declarations: List[Any] = field(default_factory=list)


class Give2GetBase(ForwardingProtocol):
    """Common implementation of the two Give2Get protocols.

    Args:
        provider: crypto provider — an instance, a tier name from
            :data:`repro.crypto.tiers.PROVIDER_TIERS` (``"real"`` /
            ``"simulated"``), or None for the fast simulated default.  Named tiers are constructed at
            :meth:`bind` time over the run's seeded ``ctx.rng``.

    Who initiates test phases is the run's ``config.testers`` (see
    :class:`~repro.sim.config.SimulationConfig`), read at :meth:`bind`.
    """

    family = "epidemic"

    def __init__(
        self,
        provider: Union[None, str, CryptoProvider] = None,
    ) -> None:
        super().__init__()
        self._provider = provider

    def use_provider(self, provider: Union[str, CryptoProvider]) -> None:
        """Select the crypto provider before the run binds the protocol.

        The hook behind ``api.run(provider=...)`` and the CLI's
        ``--provider``: catalog factories take no arguments, so the
        facade constructs the protocol first and injects the provider
        choice here.  Must be called before :meth:`bind`.
        """
        if hasattr(self, "provider"):
            raise RuntimeError("use_provider must be called before bind()")
        self._provider = provider

    # -- lifecycle ------------------------------------------------------

    def bind(self, ctx: SimulationContext) -> None:
        super().bind(ctx)
        provider = self._provider
        if provider is None:
            provider = "simulated"
        if isinstance(provider, str):
            provider = make_provider(provider, ctx.rng)
        self.provider = provider
        self.authority = Authority(provider)
        self.identities: Dict[NodeId, NodeIdentity]
        if ctx.lazy_nodes:
            # Streaming universe: enrolling a million identities up
            # front is exactly the materialization the lazy node table
            # avoids.  Enroll on first touch instead; see
            # _LazyIdentities for the determinism contract.
            self.identities = _LazyIdentities(self.authority)
        else:
            # Eager path: enrollment draws authority RNG state in
            # universe order — part of the bit-identical contract for
            # materialized traces.
            self.identities = {
                node_id: self.authority.enroll(node_id)
                for node_id in ctx.nodes
            }
        self.heavy_hmac = HeavyHmac(ctx.config.heavy_hmac_iterations)
        self._sealed: Dict[int, SealedMessage] = {}
        self._wire_bytes: Dict[int, bytes] = {}
        self._hash: Dict[int, bytes] = {}
        self._sources: Dict[NodeId, Dict[int, _SourceRecord]] = (
            _LazyMap(dict) if ctx.lazy_nodes
            else {node_id: {} for node_id in ctx.nodes}
        )
        # Housekeeping deadlines: every store enqueues ``created_at +
        # Δ2`` on the owning node's deadline queue.  Record purges
        # apply when the queue drains (nothing reads a record past its
        # window); buffer purges drop the copy at the node's next
        # contact with ``deadline < now`` — exactly when the old
        # per-contact sweep (and the timer-based design after it)
        # dropped it, which is what keeps the memory byte-second
        # integral (and the golden results) bit-identical.
        self._purge_queues: Dict[NodeId, DeadlineQueue] = (
            _LazyMap(_new_deadline_queue) if ctx.lazy_nodes
            else {node_id: (array("d"), []) for node_id in ctx.nodes}
        )
        self._record_queues: Dict[NodeId, DeadlineQueue] = (
            _LazyMap(_new_deadline_queue) if ctx.lazy_nodes
            else {node_id: (array("d"), []) for node_id in ctx.nodes}
        )
        # Hot-loop constants: per-run invariants read on every relay.
        config = ctx.config
        energy = config.energy
        self._delta2 = config.delta2
        self._relay_fanout = config.relay_fanout
        self._testers = config.testers
        self._source_fanout = (
            float("inf") if config.source_fanout is None
            else config.source_fanout
        )
        self._sig_cost = energy.signature
        self._ver_cost = energy.verification
        self._bounded_buffers = config.buffer_capacity is not None
        # Scenario runs only: with per-node budgets configured, every
        # exchange is followed by a depletion check.  False (the
        # paper's unbounded-battery setting) keeps the hot path free
        # of budget lookups.
        self._budgeted = bool(ctx.energy_budgets)
        # (transfer, receive) joules per on-air size; message sizes are
        # per-run constants so this dict stays tiny.
        self._xfer_costs: Dict[int, Tuple[float, float]] = {}

    # -- event hooks ----------------------------------------------------

    def on_message_generated(self, message: Message, now: float) -> None:
        source = self.ctx.node(message.source)
        identity = self.identities[message.source]
        destination_cert = self.identities[message.destination].certificate
        body = b"payload-%d" % message.msg_id
        sealed = seal_message(identity, destination_cert, message.msg_id, body)
        self._sealed[message.msg_id] = sealed
        wire = sealed.wire_bytes()
        self._wire_bytes[message.msg_id] = wire
        self._hash[message.msg_id] = sealed.content_hash()
        self._charge_signature(message.source)
        if self._budgeted:
            self.ctx.check_energy(message.source, now)
        self._sources[message.source][message.msg_id] = _SourceRecord(
            message=message
        )
        source.store(
            StoredCopy(message=message,
                       quality=self._initial_quality(message, now)),
            now,
            self.ctx.results,
        )
        purge_at = message.created_at + self._delta2
        _enqueue_deadline(self._purge_queues[message.source], purge_at,
                          message.msg_id)
        _enqueue_deadline(self._record_queues[message.source], purge_at,
                          message.msg_id)
        for peer in list(self.ctx.active_neighbors(message.source)):
            if self.ctx.usable_pair(message.source, peer):
                self._offer(source, self.ctx.node(peer), now)

    def on_contact_start(self, a: NodeId, b: NodeId, now: float) -> None:
        # Advance timers strictly before ``now`` for direct-driven
        # harnesses; a no-op under the engine loop.
        self.ctx.flush_timers(now)
        node_a, node_b = self.ctx.node(a), self.ctx.node(b)
        self._apply_ripe_purges(node_a, now)
        self._apply_ripe_purges(node_b, now)
        # Session establishment: a selfish node may refuse ("shut off
        # the radio") to dodge a test phase — forfeiting everything the
        # contact would have carried, including its own messages.
        if not (
            node_a.strategy.accept_session(
                a, b, now, self._pending_givers_for(node_a, now)
            )
            and node_b.strategy.accept_session(
                b, a, now, self._pending_givers_for(node_b, now)
            )
        ):
            self.ctx.results.session_refusals += 1
            return
        # Test phases first: a pending test settles accounts before new
        # relays open between the same two nodes.
        self._run_tests(node_a, node_b, now)
        if node_a.participating and node_b.participating:
            self._run_tests(node_b, node_a, now)
        for giver, taker in ((node_a, node_b), (node_b, node_a)):
            if not (giver.participating and taker.participating):
                continue
            self._offer(giver, taker, now)

    def _pending_givers_for(self, node: NodeState, now: float) -> frozenset:
        """``_pending_givers``, skipped for strategies that ignore it.

        The base :meth:`Strategy.accept_session` accepts
        unconditionally without reading ``pending_givers``, so the
        O(taken-messages) exposure scan is only worth computing for
        strategies that override the hook (the test dodgers).  Only
        such nodes keep a ``taken`` map (see :meth:`_relay_one`), so
        for every other node the scan would find nothing to read.
        """
        if type(node.strategy).accept_session is Strategy.accept_session:
            return frozenset()
        return self._pending_givers(node, now)

    def _pending_givers(self, node: NodeState, now: float) -> frozenset:
        """Peers this node could not answer a test from right now.

        Derived from the messages the node took (it knows its givers)
        whose Δ2 window is still open and for which it holds neither
        two proofs nor the body — the exact exposure a test-dodging
        strategy would act on.  Honest nodes always have an answer, so
        their set is empty.
        """
        taken = node.extra.get("taken")
        if not taken:
            return frozenset()
        COUNTERS.pending_scans += 1
        fanout = self.ctx.config.relay_fanout
        pending = set()
        for msg_id, (giver, deadline) in list(taken.items()):
            if now > deadline:
                del taken[msg_id]
                continue
            copy = cast(_MaybeCopy, node.buffer.get(msg_id))
            if copy is None:
                pending.add(giver)
            elif node.body_dropped(msg_id) and len(copy.proofs) < fanout:
                pending.add(giver)  # pragma: no cover - defensive
        return frozenset(pending)

    def finalize(self, now: float) -> None:
        super().finalize(now)

    # -- subclass hooks ---------------------------------------------------

    def _initial_quality(self, message: Message, now: float) -> float:
        """Quality label of a freshly generated message (delegation)."""
        return 0.0

    def _negotiate(
        self,
        giver: NodeState,
        taker: NodeState,
        copy: StoredCopy,
        now: float,
    ) -> Optional[RelayPlan]:
        """Decide whether and how to relay ``copy`` to ``taker``.

        The epidemic base relays unconditionally (the seen-check ran
        already); delegation overrides with the quality negotiation.
        """
        return ACCEPT_PLAN

    def _after_relay(
        self,
        giver: NodeState,
        record: Optional[_SourceRecord],
        taker: NodeState,
        plan: RelayPlan,
        declaration: Any,
        now: float,
    ) -> None:
        """Source-side bookkeeping after a successful relay (delegation)."""

    def _chain_violation(
        self,
        record: _SourceRecord,
        taker: NodeId,
        proofs: List[Any],
        now: float,
    ) -> Optional[Any]:
        """Cheater check over the two PoRs (delegation only).

        Returns the incriminating evidence, or None when clean.
        """
        return None

    def _on_delivered(
        self, taker: NodeState, copy_attachments: List[Any], message: Message,
        now: float,
    ) -> None:
        """Destination-side processing (delegation: the liar test)."""

    # -- the relay phase --------------------------------------------------

    def _offer(self, giver: NodeState, taker: NodeState, now: float) -> None:
        """Try to relay every eligible copy of ``giver`` to ``taker``.

        The candidate scan excludes messages the taker has already
        handled (step 1's RELAY_RQST answered in bulk against the
        taker's ``seen`` map), so the signed relay phase only starts
        for hand-offs that can actually happen.  Candidate order is
        the giver's buffer insertion order — identical to the
        pre-index full-buffer filter, keeping RNG draws in the same
        order and the run bit-identical.
        """
        # G2G stores only StoredCopy, so every candidate is one.
        candidates = cast(_StoredCopies, giver.relay_candidates(now, taker.seen))
        if not candidates:
            return
        giver_id = giver.node_id
        relay_fanout = self._relay_fanout
        source_fanout = self._source_fanout
        negotiate = self._negotiate
        # Collect-then-verify: each hand-off appends its PoR here and
        # the whole offer is checked with one batched provider call
        # below.  Deferring is sound because nothing in the loop reads
        # the verification outcome — within the threat model signatures
        # are unforgeable, so an honest taker's PoR cannot fail — while
        # the giver's per-relay verification *energy* is still charged
        # inline, in protocol-step order (see ``_relay_one``).
        pending: List[Tuple[Certificate, ProofOfRelay]] = []
        for copy in candidates:
            cap = (
                source_fanout
                if copy.message.source == giver_id
                else relay_fanout
            )
            if len(copy.proofs) >= cap:
                continue
            # ``participating`` unrolled (it is a property, and two
            # property calls per candidate are measurable here).
            if (
                giver.evicted or giver.departed or giver.depleted
                or taker.evicted or taker.departed or taker.depleted
            ):
                break
            # Steps 1-2: every strategy answers RELAY_RQST truthfully
            # (declining without knowing the destination is never
            # rational, Sec. IV-C), so the seen-filter above stands
            # for it; then the negotiation.  Most delegation
            # candidates are rejected there, so the relay phase
            # proper is entered only on acceptance.
            COUNTERS.relay_entries += 1
            plan = negotiate(giver, taker, copy, now)
            if plan is not None:
                self._relay_one(giver, taker, copy, now, pending, plan)
            if self._budgeted:
                ctx = self.ctx
                ctx.check_energy(giver_id, now)
                ctx.check_energy(taker.node_id, now)
        if pending and not verify_proofs_of_relay(
            self.identities[giver_id], pending
        ):  # pragma: no cover - honest takers always produce valid PoRs
            raise RuntimeError(
                "proof-of-relay batch failed verification: a signature "
                "was forged, which the simulation's threat model forbids"
            )

    def _relay_one(
        self,
        giver: NodeState,
        taker: NodeState,
        copy: StoredCopy,
        now: float,
        pending: List[Tuple[Certificate, ProofOfRelay]],
        plan: RelayPlan,
    ) -> None:
        """Run the relay phase for one copy whose negotiation accepted.

        Called by :meth:`_offer` only, after the seen-filter and
        :meth:`_negotiate`; the giver's PoR check is appended to
        ``pending`` and verified in one provider call per offer.
        """
        ctx = self.ctx
        results = ctx.results
        events = ctx.events
        message = copy.message
        msg_id = message.msg_id
        giver_id = giver.node_id
        taker_id = taker.node_id
        identities = self.identities
        declaration = plan.declaration
        results.relay_attempts += 1
        # The handshake span covers steps 3-5 (body transfer, PoR,
        # key reveal); negotiation rejections in ``_offer`` never
        # open one.
        spans = ctx.telemetry.spans
        relay_span = spans.begin(now)
        # Step 3: RELAY, E_k(m) — the body crosses the air.
        results.record_replica(message)
        size = message.size_bytes + CONTROL_MESSAGE_SIZE
        costs = self._xfer_costs.get(size)
        if costs is None:
            energy = ctx.config.energy
            costs = self._xfer_costs[size] = (
                energy.transfer_cost(size), energy.receive_cost(size)
            )
        # Charges stay separate and in protocol-step order: folding
        # them would change float accumulation order and break
        # bit-identical energy totals.  The per-node ledger updates
        # are inlined (``results.add_energy`` unrolled): four charges
        # per hand-off make the call overhead itself measurable.
        energy_acct = results.energy
        energy_get = energy_acct.get
        energy_acct[giver_id] = energy_get(giver_id, 0.0) + costs[0]
        energy_acct[taker_id] = energy_get(taker_id, 0.0) + costs[1]
        # Step 4: the taker signs the Proof of Relay.
        taker_identity = identities[taker_id]
        por = make_proof_of_relay(
            taker_identity,
            self._hash[msg_id],
            giver_id,
            now,
            quality_subject=plan.quality_subject,
            message_quality=plan.message_quality,
            taker_quality=plan.taker_quality,
        )
        energy_acct[taker_id] = energy_get(taker_id, 0.0) + self._sig_cost
        pending.append((taker_identity.certificate, por))
        energy_acct[giver_id] = energy_get(giver_id, 0.0) + self._ver_cost
        proofs = copy.proofs
        proofs.append(por)
        if (
            message.source != giver_id
            and len(proofs) >= self._relay_fanout
        ):
            # Two proofs collected: the body may be discarded; the
            # proofs stay until Δ2.  The source keeps its own message
            # (it is never tested and wants it delivered).
            giver.drop_body(msg_id, now, results)
        record = self._sources[giver_id].get(msg_id)
        if record is None and self._testers == "any_giver":
            # Ablation mode: intermediate relays also keep audit
            # records for the messages they hand out.
            record = _SourceRecord(message=message, is_source=False)
            self._sources[giver_id][msg_id] = record
            _enqueue_deadline(
                self._record_queues[giver_id],
                message.created_at + self._delta2,
                msg_id,
            )
        if record is not None:
            record.takers.append(taker_id)
        self._after_relay(giver, record, taker, plan, declaration, now)
        # Step 5: the key is revealed; the taker learns whether it is
        # the destination.
        if events.enabled:
            events.log(
                now, EventType.RELAYED, msg_id=msg_id,
                actor=giver_id, subject=taker_id,
            )
        if taker_id == message.destination:
            source_id, opened_id, _body = open_message(
                identities[taker_id], self._sealed[msg_id]
            )
            assert (source_id, opened_id) == (message.source, msg_id)
            taker.mark_seen(msg_id)
            results.record_delivery(message, now)
            if events.enabled:
                events.log(
                    now, EventType.DELIVERED, msg_id=msg_id,
                    actor=giver_id, subject=taker_id,
                )
            dest_span = spans.begin(now)
            self._on_delivered(taker, plan.attachments, message, now)
            spans.end(SPAN_DESTINATION_TEST, dest_span, now)
            COUNTERS.relay_handoffs += 1
            spans.end(SPAN_RELAY_HANDSHAKE, relay_span, now)
            return
        # "Label both messages with the forwarding quality of node B":
        # the giver's surviving copy adopts the taker's declared
        # quality (a no-op for the epidemic variant).
        copy.quality = plan.new_copy_quality
        if self._bounded_buffers:
            make_room(ctx, taker, now)
        # Without attachments (every G2G Epidemic hand-off) the copy
        # shares the empty tuple instead of holding a fresh list.
        attachments = plan.attachments
        taker.store(
            StoredCopy(
                message=message,
                quality=plan.new_copy_quality,
                attachments=list(attachments) if attachments else (),
            ),
            now,
            results,
        )
        purge_at = message.created_at + self._delta2
        taker_strategy = taker.strategy
        if type(taker_strategy).accept_session is not Strategy.accept_session:
            # A test-dodging taker remembers who gave it what, and until
            # when it can be tested: the exposure ``_pending_givers``
            # reads.  No other strategy reads it, so no other taker
            # keeps it.
            taken = taker.extra.get("taken")
            if taken is None:
                taken = taker.extra["taken"] = {}
            taken[msg_id] = (giver_id, purge_at)
        _enqueue_deadline(self._purge_queues[taker_id], purge_at, msg_id)
        COUNTERS.relay_handoffs += 1
        keep = taker_strategy.keep_relayed_copy(
            taker_id, message, giver_id, now
        )
        if not keep:
            taker.drop(msg_id, now, results)
            results.record_deviation(taker_id, message)
            if events.enabled:
                events.log(
                    now, EventType.DROPPED, msg_id=msg_id,
                    actor=taker_id, subject=giver_id,
                )
        spans.end(SPAN_RELAY_HANDSHAKE, relay_span, now)

    # -- the test phase ---------------------------------------------------

    def _run_tests(
        self, source: NodeState, peer: NodeState, now: float
    ) -> None:
        """Test ``peer`` for every message ``source`` handed it directly.

        Only the source initiates tests (relays cannot know whether
        their giver was the source, so they must always be ready, but
        nobody else spends energy checking — the paper's key asymmetry).
        """
        if not (source.participating and peer.participating):
            return
        records = self._sources[source.node_id]
        if not records:
            return
        delta2 = self._delta2
        peer_id = peer.node_id
        for record in records.values():
            message = record.message
            if peer_id == message.destination:
                continue  # the source knows D; a delivery is never tested
            if peer_id not in record.takers:
                continue
            if peer_id in record.tested:
                continue
            if now <= message.expires_at:
                continue  # the test window opens at Δ1
            if now > message.created_at + delta2:
                continue  # the window closed; the relay may have purged
            record.tested.add(peer.node_id)
            spans = self.ctx.telemetry.spans
            test_span = spans.begin(now)
            self._test_one(source, peer, record, now)
            spans.end(SPAN_SENDER_TEST, test_span, now)
            if self._budgeted:
                self.ctx.check_energy(source.node_id, now)
                self.ctx.check_energy(peer_id, now)
                if not source.participating:
                    return
            if not peer.participating:
                return

    def _test_one(
        self,
        source: NodeState,
        peer: NodeState,
        record: _SourceRecord,
        now: float,
    ) -> None:
        """One challenge: two PoRs, a storage proof, or a PoM."""
        ctx = self.ctx
        results = ctx.results
        message = record.message
        results.test_phases += 1
        copy = cast(_MaybeCopy, peer.buffer.get(message.msg_id))
        proofs = list(copy.proofs) if copy is not None else []
        source_identity = self.identities[source.node_id]
        if len(proofs) >= ctx.config.relay_fanout:
            # The handshake choke point of the test phase: both PoRs
            # check in one batched provider call.
            valid = verify_proofs_of_relay(
                source_identity,
                [
                    (self.identities[por.taker].certificate, por)
                    for por in proofs
                ],
            )
            for _ in proofs:
                self._charge_verification(source.node_id)
            if not valid:  # pragma: no cover - unforgeable in-model
                self._issue_pom(
                    peer.node_id, source.node_id, message, "dropper",
                    proofs, now,
                )
                return
            evidence = self._chain_violation(
                record, peer.node_id, proofs, now
            )
            if evidence is not None:
                self._issue_pom(
                    peer.node_id, source.node_id, message, "cheater",
                    evidence, now,
                )
            else:
                ctx.events.log(
                    now, EventType.TEST_PASSED, msg_id=message.msg_id,
                    actor=source.node_id, subject=peer.node_id,
                    detail="proofs_of_relay",
                )
            return
        if copy is not None and not peer.body_dropped(message.msg_id):
            # Storage challenge: the relay proves it still holds the
            # bytes by computing the heavy HMAC over them.
            seed = random_seed(ctx.rng)
            proof = make_storage_proof(
                self.identities[peer.node_id],
                self._hash[message.msg_id],
                self._wire_bytes[message.msg_id],
                seed,
                self.heavy_hmac,
            )
            results.heavy_hmac_runs += 1
            results.add_energy(peer.node_id, ctx.config.energy.heavy_hmac)
            self._charge_signature(peer.node_id)
            ok = verify_storage_proof(
                source_identity,
                self.identities[peer.node_id].certificate,
                proof,
                self._wire_bytes[message.msg_id],
                self.heavy_hmac,
            )
            results.add_energy(source.node_id, ctx.config.energy.heavy_hmac)
            if not ok:  # pragma: no cover - honest storage always verifies
                self._issue_pom(
                    peer.node_id, source.node_id, message, "dropper",
                    None, now,
                )
            else:
                ctx.events.log(
                    now, EventType.TEST_PASSED, msg_id=message.msg_id,
                    actor=source.node_id, subject=peer.node_id,
                    detail="storage_challenge",
                )
            return
        # Neither proofs nor the message: the taker dropped it.  The
        # PoR it signed during the relay phase is the evidence.
        self._issue_pom(
            peer.node_id, source.node_id, message, "dropper", None, now
        )

    # -- misbehavior handling ----------------------------------------------

    def _issue_pom(
        self,
        offender: NodeId,
        detector: NodeId,
        message: Message,
        deviation: str,
        evidence: Any,
        now: float,
    ) -> None:
        """Create, record, and broadcast a Proof of Misbehavior."""
        ctx = self.ctx
        spans = ctx.telemetry.spans
        pom_span = spans.begin(now)
        pom = ProofOfMisbehavior(
            offender=offender,
            detector=detector,
            msg_id=message.msg_id,
            deviation=deviation,
            issued_at=now,
            evidence=evidence,
        )
        ctx.blacklist.publish(pom)
        ctx.events.log(
            now, EventType.TEST_FAILED, msg_id=message.msg_id,
            actor=detector, subject=offender, detail=deviation,
        )
        ctx.events.log(
            now, EventType.POM, msg_id=message.msg_id,
            actor=detector, subject=offender, detail=deviation,
        )
        ctx.results.record_detection(
            DetectionRecord(
                offender=offender,
                detector=detector,
                time=now,
                msg_id=message.msg_id,
                deviation=deviation,
                delay_after_ttl=now - message.expires_at,
            )
        )
        if ctx.config.instant_blacklist:
            ctx.evict(offender, now)
        spans.end(SPAN_POM, pom_span, now)

    # -- housekeeping -------------------------------------------------------

    def _apply_ripe_purges(self, node: NodeState, now: float) -> None:
        """Drain the node's ripe Δ2 deadlines (copies and records).

        Both queues pop strictly-``deadline < now`` entries, which is
        exactly the set the timer-based design applied at this moment:
        a timer at ``created_at + Δ2`` sorted after every contact at
        the same instant, so a contact at exactly the deadline still
        saw the pre-purge state.  Entries for messages dropped earlier
        (strategy drops, body discards, evictions) are simply skipped
        — the buffer stays authoritative, the queue only schedules the
        look.  A message id never re-enters a node's buffer (``seen``
        forbids re-taking), so one entry per store suffices.  A
        test-dodger's ``taken`` entry for the id goes with it: it has
        the same deadline, and :meth:`_pending_givers` discards an
        entry by the same strictly-``deadline < now`` rule.  Record
        removal is unobservable by construction: every read of a
        source record is guarded by its Δ2 window.
        """
        node_id = node.node_id
        times, ids = self._purge_queues[node_id]
        if times and times[0] < now:
            COUNTERS.housekeeping_scans += 1
            count = bisect_left(times, now)
            results = self.ctx.results
            buffer = node.buffer
            taken = node.extra.get("taken")
            for msg_id in ids[:count]:
                if msg_id in buffer:
                    node.drop(msg_id, now, results)
                if taken:
                    taken.pop(msg_id, None)
            del times[:count]
            del ids[:count]
        times, ids = self._record_queues[node_id]
        if times and times[0] < now:
            count = bisect_left(times, now)
            records = self._sources[node_id]
            for msg_id in ids[:count]:
                records.pop(msg_id, None)
            del times[:count]
            del ids[:count]

    # -- energy helpers ------------------------------------------------------

    def _charge_signature(self, node: NodeId) -> None:
        self.ctx.results.add_energy(node, self.ctx.config.energy.signature)

    def _charge_verification(self, node: NodeId) -> None:
        self.ctx.results.add_energy(node, self.ctx.config.energy.verification)
