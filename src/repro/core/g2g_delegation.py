"""G2G Delegation Forwarding (Sections VI-VII of the paper).

Delegation Forwarding made incentive-compatible.  On top of the G2G
relay/test machinery this adds:

* **quality negotiation** (Fig. 6): before handing over a message the
  giver asks the candidate's forwarding quality towards ``D'`` — the
  true destination, or a random camouflage node when the candidate
  *is* the destination, so a node can never tell whether refusing or
  lying would cost it its own message.  Declarations are signed and
  use the quality of the *last completed timeframe*.
* **test by the sender**: besides the dropper check, the source
  verifies the quality chain ``f_AD = f1_m < f_BD = f2_m < f_CD``
  across the two proofs of relay, catching **cheaters** that lowered
  a message's label to dump it faster.  (Proofs signed by the
  message's own destination are exempt: delivery is unconditional, so
  its camouflage declaration does not participate in the chain.)
* **test by the destination**: the source embeds the last two signed
  declarations of *failed* relay candidates into the message; the
  destination — which observes the same encounter history — recomputes
  what each candidate should have declared and convicts **liars**.
"""

from __future__ import annotations

from typing import Any, List, Optional

from ..adversaries.base import Strategy
from ..crypto.provider import CryptoProvider
from ..protocols.base import SimulationContext
from ..protocols.quality import FRAME_TIMER_TAG, QualityTracker
from ..sim.messages import Message, StoredCopy
from ..sim.node import NodeState
from ..traces.trace import NodeId
from .g2g_base import Give2GetBase, RelayPlan, _SourceRecord
from .proofs import (
    QualityDeclaration,
    make_quality_declaration,
    verify_quality_declaration,
)

#: How many failed declarations ride with each message (the paper
#: embeds "the last two").
EMBEDDED_DECLARATIONS = 2

#: Tolerance for comparing declared vs recomputed qualities; both
#: sides see identical encounter events so exact agreement is expected,
#: the epsilon only absorbs float formatting.
QUALITY_TOLERANCE = 1e-9


class G2GDelegationForwarding(Give2GetBase):
    """Give2Get Delegation Forwarding (frequency / last-contact)."""

    family = "delegation"

    def __init__(
        self,
        variant: str = "last_contact",
        provider: Optional[CryptoProvider] = None,
    ) -> None:
        super().__init__(provider=provider)
        self.variant = variant
        self.name = f"g2g_delegation_{variant}"
        self.tracker: Optional[QualityTracker] = None

    def bind(self, ctx: SimulationContext) -> None:
        super().bind(ctx)
        self.tracker = QualityTracker(
            self.variant, ctx.config.quality_timeframe
        )
        self.tracker.schedule_rollover(ctx)
        # Node population is fixed for the run (evictions only flag
        # nodes); built once so every camouflage draw skips an
        # O(nodes) list build while sampling the identical sequence.
        self._node_ids = list(ctx.nodes)

    def on_contact_start(self, a: NodeId, b: NodeId, now: float) -> None:
        self.ctx.flush_timers(now)
        self.tracker.encounter(a, b, now)
        super().on_contact_start(a, b, now)

    def on_timer(self, tag: str, payload: Any, now: float) -> None:
        if tag == FRAME_TIMER_TAG:
            assert self.tracker is not None
            self.tracker.handle_frame_timer(self.ctx, payload, now)
        else:
            super().on_timer(tag, payload, now)

    # -- delegation-specific hooks ----------------------------------------

    def _initial_quality(self, message: Message, now: float) -> float:
        """A new message is labelled with the sender's quality."""
        value, _frame = self.tracker.completed(
            message.source, message.destination, now
        )
        return value

    def _negotiate(
        self,
        giver: NodeState,
        taker: NodeState,
        copy: StoredCopy,
        now: float,
    ) -> Optional[RelayPlan]:
        message = copy.message
        destination = message.destination
        giver_id = giver.node_id
        taker_id = taker.node_id
        results = self.ctx.results
        # D': the true destination, or camouflage when the candidate
        # is the destination itself.
        if taker_id == destination:
            quality_subject = self._camouflage_subject(taker_id)
        else:
            quality_subject = destination
        true_value, frame = self.tracker.completed(
            taker_id, quality_subject, now
        )
        # The base Strategy hooks answer truthfully; checked by type so
        # honest nodes skip the hook calls.
        strategy = taker.strategy
        if type(strategy).declared_quality is Strategy.declared_quality:
            declared_value = true_value
        else:
            declared_value = strategy.declared_quality(
                taker_id, quality_subject, true_value, giver_id, now
            )
            if declared_value != true_value:
                results.record_deviation(taker_id, message)
        # Every candidate signs its FQ_RESP and pays for it here.  The
        # signed object is built only where a giver's record keeps it
        # and reads it (below); signing draws no randomness, so not
        # building the others, or building one later, changes no
        # result.
        energy = results.energy
        energy[taker_id] = energy.get(taker_id, 0.0) + self._sig_cost
        if taker_id == destination:
            # Delivery is unconditional; the camouflage declaration
            # plays no role in the forwarding decision.
            return RelayPlan(
                quality_subject=quality_subject,
                message_quality=copy.quality,
                taker_quality=declared_value,
                attachments=list(copy.attachments),
            )
        # The giver may present a lowered label (the cheat).
        label = copy.quality
        strategy = giver.strategy
        if (
            type(strategy).forwarded_message_quality
            is not Strategy.forwarded_message_quality
        ):
            label = strategy.forwarded_message_quality(
                giver_id, message, label, taker_id, now
            )
            if label != copy.quality:
                results.record_deviation(giver_id, message)
        record = self._sources[giver_id].get(message.msg_id)
        if not self.tracker.better(declared_value, label):
            # Candidate failed.  A *source* keeps the failure for the
            # destination's liar test: only the last two are ever
            # embedded, so it keeps the unsigned inputs of those two
            # and signs them when a hand-off first carries them.
            if (
                record is not None
                and record.is_source
                and declared_value < label
            ):
                failed = record.failed_declarations
                failed.append((
                    self.identities[taker_id],
                    quality_subject,
                    declared_value,
                    frame,
                    now,
                ))
                if len(failed) > EMBEDDED_DECLARATIONS:
                    del failed[0]
            return None
        # The source embeds its latest failed declarations; relays pass
        # through whatever arrived with their copy.
        if record is not None and record.is_source:
            failed = record.failed_declarations
            for index, entry in enumerate(failed):
                if isinstance(entry, tuple):
                    failed[index] = make_quality_declaration(*entry)
            attachments = list(failed)
        else:
            attachments = list(copy.attachments)
        # The giver's record keeps this declaration as the anchor of
        # the cheater check; under ``testers="any_giver"`` every giver
        # gets a record at hand-off.
        declaration: Optional[QualityDeclaration] = None
        if record is not None or self._testers == "any_giver":
            declaration = make_quality_declaration(
                self.identities[taker_id],
                quality_subject,
                declared_value,
                frame,
                now,
            )
        return RelayPlan(
            quality_subject=quality_subject,
            message_quality=label,
            taker_quality=declared_value,
            new_copy_quality=declared_value,
            attachments=attachments,
            declaration=declaration,
        )

    def _after_relay(
        self,
        giver: NodeState,
        record: Optional[_SourceRecord],
        taker: NodeState,
        plan: RelayPlan,
        declaration: Any,
        now: float,
    ) -> None:
        # A source keeps every direct relay's signed declaration — the
        # anchor of the cheater chain check.  Declarations made by the
        # destination are camouflage and never anchor a test.
        if record is not None and taker.node_id != record.message.destination:
            record.taker_declarations[taker.node_id] = declaration

    def _chain_violation(
        self,
        record: _SourceRecord,
        taker: NodeId,
        proofs: List[Any],
        now: float,
    ) -> Optional[Any]:
        """The cheater check: ``f_AD = f1_m < f_BD = f2_m < f_CD``."""
        declaration = record.taker_declarations.get(taker)
        if declaration is None:
            return None  # nothing to anchor the chain on
        expected = declaration.value
        destination = record.message.destination
        for por in sorted(proofs, key=lambda p: p.signed_at):
            if por.taker == destination:
                # Delivery is unconditional; its PoR carries a
                # camouflage quality outside the chain.
                continue
            if por.message_quality is None or por.taker_quality is None:
                return por
            if abs(por.message_quality - expected) > QUALITY_TOLERANCE:
                return por  # the label was tampered with
            if not por.taker_quality > por.message_quality:
                return por  # relayed to a non-qualifying node
            expected = por.taker_quality
        return None

    def _on_delivered(
        self,
        taker: NodeState,
        copy_attachments: List[Any],
        message: Message,
        now: float,
    ) -> None:
        """Test by the destination: convict liars among failed relays."""
        identity = self.identities[taker.node_id]
        for declaration in copy_attachments:
            if declaration.destination != taker.node_id:
                continue  # declaration about someone else; cannot verify
            if declaration.declarant == taker.node_id:
                continue
            if not verify_quality_declaration(
                identity,
                self.identities[declaration.declarant].certificate,
                declaration,
            ):  # pragma: no cover - unforgeable in-model
                continue
            self._charge_verification(taker.node_id)
            own_value = self.tracker.value_at_frame(
                taker.node_id, declaration.declarant, declaration.frame, now
            )
            if own_value is None:
                continue  # outside the retention window; unverifiable
            if abs(own_value - declaration.value) > QUALITY_TOLERANCE:
                self._issue_pom(
                    declaration.declarant,
                    taker.node_id,
                    message,
                    "liar",
                    declaration,
                    now,
                )

    def _camouflage_subject(self, excluded: NodeId) -> NodeId:
        """A random node id different from ``excluded`` (the D' trick)."""
        nodes = self._node_ids
        choice = self.ctx.rng.choice(nodes)
        while choice == excluded:
            choice = self.ctx.rng.choice(nodes)
        return choice
