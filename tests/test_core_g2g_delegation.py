"""Protocol-level tests for G2G Delegation Forwarding.

Scenario construction notes: the quality timeframe is 100 s, so
frame k covers [100k, 100(k+1)).  Declarations report the value at the
end of the *last completed* frame; the destination retains the last
two completed frames for verification.
"""

import pytest

from repro.adversaries import Cheater, Dropper, Liar
from repro.core import G2GDelegationForwarding
from repro.core import g2g_delegation
from repro.core.proofs import verify_quality_declaration
from repro.perf import COUNTERS
from repro.sim import Simulation, SimulationConfig
from repro.sim.messages import Message
from repro.telemetry.spans import SPAN_RELAY_HANDSHAKE
from repro.traces import ContactTrace


def config(**overrides):
    base = dict(
        run_length=10_000.0,
        silent_tail=1000.0,
        mean_interarrival=1e6,
        ttl=400.0,
        delta2_factor=2.0,
        quality_timeframe=100.0,
        heavy_hmac_iterations=2,
        seed=3,
    )
    base.update(overrides)
    return SimulationConfig(**base)


def harness(nodes=8, cfg=None, strategies=None, variant="last_contact"):
    trace = ContactTrace(name="manual", nodes=tuple(range(nodes)), contacts=())
    protocol = G2GDelegationForwarding(variant)
    sim = Simulation(trace, protocol, cfg or config(), strategies=strategies)
    ctx = sim._build_context()
    protocol.bind(ctx)
    return protocol, ctx


def inject(protocol, ctx, source, destination, created, msg_id=0):
    message = Message(
        msg_id=msg_id, source=source, destination=destination,
        created_at=created, ttl=ctx.config.ttl,
    )
    ctx.results.record_generated(message)
    protocol.on_message_generated(message, created)
    return message


def meet(protocol, a, b, t):
    protocol.on_contact_start(a, b, t)


# Node cast used throughout: 0 = source S, 5 = destination D.
S, D = 0, 5


class TestNegotiation:
    def test_low_quality_candidate_declined(self):
        protocol, ctx = harness()
        # S has quality toward D (met at t=20, frame 0 completes at 100)
        meet(protocol, S, D, 20.0)
        inject(protocol, ctx, source=S, destination=D, created=120.0)
        # node 1 never met D: declared 0 < fm=20 -> declined.
        meet(protocol, S, 1, 150.0)
        assert not ctx.node(1).has_copy(0)

    def test_better_candidate_accepted(self):
        protocol, ctx = harness()
        meet(protocol, S, D, 20.0)
        meet(protocol, 1, D, 60.0)  # node 1 saw D more recently
        inject(protocol, ctx, source=S, destination=D, created=120.0)
        meet(protocol, S, 1, 150.0)
        assert ctx.node(1).has_copy(0)
        assert ctx.node(1).buffer[0].quality == pytest.approx(60.0)

    def test_both_copies_relabelled(self):
        protocol, ctx = harness()
        meet(protocol, S, D, 20.0)
        meet(protocol, 1, D, 60.0)
        inject(protocol, ctx, source=S, destination=D, created=120.0)
        meet(protocol, S, 1, 150.0)
        assert ctx.node(S).buffer[0].quality == pytest.approx(60.0)

    def test_delivery_unconditional(self):
        protocol, ctx = harness()
        inject(protocol, ctx, source=S, destination=D, created=120.0)
        # S's quality toward D is 0 and D's camouflage declaration is
        # irrelevant: meeting the destination always delivers.
        meet(protocol, S, D, 150.0)
        assert ctx.results.delivered == 1

    def test_failed_declaration_recorded_at_source(self):
        protocol, ctx = harness()
        meet(protocol, S, D, 20.0)
        inject(protocol, ctx, source=S, destination=D, created=120.0)
        before_signatures = COUNTERS.signatures
        meet(protocol, S, 1, 150.0)  # node 1 fails (0 < 20)
        record = protocol._sources[S][0]
        assert len(record.failed_declarations) == 1
        # Kept as the unsigned declaration inputs until a hand-off
        # embeds it: nothing is signed at failure time.
        declarant, subject, value, frame, declared_at = (
            record.failed_declarations[0]
        )
        assert declarant.node_id == 1
        assert (subject, value, frame, declared_at) == (D, 0.0, 0, 150.0)
        assert COUNTERS.signatures == before_signatures

    def test_rejection_opens_no_relay_handshake(self):
        protocol, ctx = harness()
        meet(protocol, S, D, 20.0)
        inject(protocol, ctx, source=S, destination=D, created=120.0)
        before_entries = COUNTERS.relay_entries
        meet(protocol, S, 1, 150.0)  # node 1 fails (0 < 20)
        assert COUNTERS.relay_entries == before_entries + 1
        assert ctx.results.relay_attempts == 0
        assert SPAN_RELAY_HANDSHAKE not in ctx.telemetry.spans.snapshot()

    def test_failed_declarations_ride_with_message(self):
        protocol, ctx = harness()
        meet(protocol, S, D, 20.0)
        meet(protocol, 2, D, 60.0)
        inject(protocol, ctx, source=S, destination=D, created=120.0)
        meet(protocol, S, 1, 150.0)  # fails
        meet(protocol, S, 2, 160.0)  # succeeds; carries the failure
        attachments = ctx.node(2).buffer[0].attachments
        assert [d.declarant for d in attachments] == [1]

    def test_only_last_two_failures_embedded(self):
        protocol, ctx = harness()
        meet(protocol, S, D, 20.0)
        meet(protocol, 4, D, 60.0)
        inject(protocol, ctx, source=S, destination=D, created=120.0)
        for node, t in ((1, 150.0), (2, 160.0), (3, 170.0)):
            meet(protocol, S, node, t)  # three failures
        meet(protocol, S, 4, 180.0)  # good relay
        attachments = ctx.node(4).buffer[0].attachments
        assert [d.declarant for d in attachments] == [2, 3]


class TestLiarDetection:
    def liar_scenario(self, deliver_at=250.0):
        protocol, ctx = harness(strategies={1: Liar()})
        meet(protocol, S, D, 80.0)     # frame 0: f_SD > 0
        meet(protocol, 1, D, 50.0)     # frame 0: liar truly has quality
        meet(protocol, 2, D, 90.0)     # frame 0: good relay, later contact
        inject(protocol, ctx, source=S, destination=D, created=120.0)
        meet(protocol, S, 1, 150.0)    # liar declares 0 < fm -> failed
        meet(protocol, S, 2, 160.0)    # good relay takes msg + evidence
        meet(protocol, 2, D, deliver_at)  # delivery -> test by destination
        return protocol, ctx

    def test_liar_convicted_by_destination(self):
        protocol, ctx = self.liar_scenario()
        assert len(ctx.results.detections) == 1
        record = ctx.results.detections[0]
        assert record.offender == 1
        assert record.deviation == "liar"
        assert record.detector == D
        assert ctx.node(1).evicted

    def test_conviction_carries_signed_evidence(self):
        protocol, ctx = self.liar_scenario()
        evidence = ctx.blacklist.poms[0].evidence
        assert evidence.declarant == 1
        assert evidence.value == 0.0

    def test_stale_frame_unverifiable_no_conviction(self):
        # Deliver late enough that frame 0 left D's retention window
        # (frame_of(550)=5; retained completed frames are 3 and 4).
        protocol, ctx = self.liar_scenario(deliver_at=550.0)
        # TTL expired at 520 so delivery cannot happen anyway; extend
        # the TTL via a dedicated config to isolate frame retention.
        protocol2, ctx2 = harness(
            strategies={1: Liar()}, cfg=config(ttl=800.0)
        )
        meet(protocol2, S, D, 80.0)
        meet(protocol2, 1, D, 50.0)
        meet(protocol2, 2, D, 90.0)
        inject(protocol2, ctx2, source=S, destination=D, created=120.0)
        meet(protocol2, S, 1, 150.0)
        meet(protocol2, S, 2, 160.0)
        meet(protocol2, 2, D, 550.0)
        assert ctx2.results.delivered == 1
        assert ctx2.results.detections == []

    def test_honest_failed_candidate_not_convicted(self):
        protocol, ctx = harness()
        meet(protocol, S, D, 80.0)
        meet(protocol, 1, D, 50.0)   # honest, lower quality than S
        meet(protocol, 2, D, 90.0)
        inject(protocol, ctx, source=S, destination=D, created=120.0)
        meet(protocol, S, 1, 150.0)  # declares 50 < 80: honest failure
        meet(protocol, S, 2, 160.0)
        meet(protocol, 2, D, 250.0)
        assert ctx.results.delivered == 1
        assert ctx.results.detections == []

    def test_liar_in_first_frame_tells_vacuous_truth(self):
        """Before any frame completes, true completed quality is 0, so
        declaring 0 is not detectable (and not a recorded deviation)."""
        protocol, ctx = harness(strategies={1: Liar()})
        meet(protocol, 1, D, 30.0)
        inject(protocol, ctx, source=S, destination=D, created=50.0)
        meet(protocol, S, 1, 60.0)  # everything still in frame 0
        assert ctx.results.deviation_counts.get(1) is None


class TestCheaterDetection:
    def cheater_scenario(self, strategies=None):
        """A (node 1) takes from S, relays to 2 and 3, then is tested."""
        protocol, ctx = harness(
            strategies=strategies if strategies is not None else {1: Cheater()}
        )
        meet(protocol, 1, D, 30.0)   # f_AD: last contact 30 (frame 0)
        meet(protocol, 2, D, 40.0)
        meet(protocol, 3, D, 50.0)
        inject(protocol, ctx, source=S, destination=D, created=120.0)
        meet(protocol, S, 1, 150.0)  # relay to A: fm=0 -> declared 30 wins
        meet(protocol, 1, 2, 200.0)  # A relays (cheating lowers label)
        meet(protocol, 1, 3, 250.0)
        # Δ1 expires at 520; test window (520, 1040].
        meet(protocol, S, 1, 600.0)
        return protocol, ctx

    def test_cheater_convicted_by_sender(self):
        protocol, ctx = self.cheater_scenario()
        assert len(ctx.results.detections) == 1
        record = ctx.results.detections[0]
        assert record.offender == 1
        assert record.deviation == "cheater"
        assert ctx.node(1).evicted

    def test_honest_chain_passes(self):
        protocol, ctx = self.cheater_scenario(strategies={})
        assert ctx.results.detections == []
        assert ctx.results.test_phases == 1

    def test_cheater_with_body_passes_storage(self):
        """A cheater that found no relays yet answers the storage
        challenge — cheating is unobservable until proofs exist."""
        protocol, ctx = harness(strategies={1: Cheater()})
        meet(protocol, 1, D, 30.0)
        inject(protocol, ctx, source=S, destination=D, created=120.0)
        meet(protocol, S, 1, 150.0)
        meet(protocol, S, 1, 600.0)  # test: node 1 still holds the body
        assert ctx.results.detections == []
        assert ctx.results.heavy_hmac_runs == 1

    def test_por_from_destination_exempt_from_chain(self):
        """Delivering to D consumes a fanout slot whose PoR carries a
        camouflage quality; the chain check must skip it."""
        protocol, ctx = harness()
        meet(protocol, 1, D, 30.0)
        meet(protocol, 2, D, 40.0)
        inject(protocol, ctx, source=S, destination=D, created=120.0)
        meet(protocol, S, 1, 150.0)
        meet(protocol, 1, D, 200.0)   # delivery (PoR from D)
        meet(protocol, 1, 2, 250.0)   # second PoR, honest chain
        meet(protocol, S, 1, 600.0)   # test with both PoRs
        assert ctx.results.delivered == 1
        assert ctx.results.detections == []


class TestLazyDeclaration:
    """Only the FQ_RESP declarations a record reads are signed, a
    source's failed ones when a hand-off first embeds them; every
    negotiation still charges the candidate one signature."""

    @pytest.fixture
    def built(self, monkeypatch):
        made = []
        real = g2g_delegation.make_quality_declaration

        def counting(*args, **kwargs):
            declaration = real(*args, **kwargs)
            made.append(declaration)
            return declaration

        monkeypatch.setattr(g2g_delegation, "make_quality_declaration", counting)
        return made

    def relay_holding_copy(self):
        """Node 1 holds a relayed copy labelled 60; it keeps no record."""
        protocol, ctx = harness()
        meet(protocol, S, D, 20.0)
        meet(protocol, 1, D, 60.0)
        inject(protocol, ctx, source=S, destination=D, created=120.0)
        meet(protocol, S, 1, 150.0)
        assert 0 not in protocol._sources[1]
        return protocol, ctx

    def test_relay_held_failure_builds_nothing_but_charges(self, built):
        protocol, ctx = self.relay_holding_copy()
        relay, candidate = ctx.node(1), ctx.node(2)
        before_energy = ctx.results.energy.get(2, 0.0)
        before_signatures = COUNTERS.signatures
        del built[:]
        # Node 2 never met D: it declares 0 < 60 and fails.
        plan = protocol._negotiate(relay, candidate, relay.buffer[0], 170.0)
        assert plan is None
        assert built == []
        assert COUNTERS.signatures == before_signatures
        assert ctx.results.energy[2] == (
            before_energy + ctx.config.energy.signature
        )

    def test_relay_held_acceptance_builds_nothing(self, built):
        protocol, ctx = self.relay_holding_copy()
        meet(protocol, 2, D, 90.0)
        del built[:]
        relay = ctx.node(1)
        plan = protocol._negotiate(relay, ctx.node(2), relay.buffer[0], 170.0)
        assert plan is not None and plan.declaration is None
        assert built == []

    def test_destination_camouflage_not_built(self, built):
        protocol, ctx = harness()
        inject(protocol, ctx, source=S, destination=D, created=120.0)
        source = ctx.node(S)
        plan = protocol._negotiate(source, ctx.node(D), source.buffer[0], 150.0)
        assert plan is not None and plan.declaration is None
        assert built == []

    def test_source_held_failure_is_signed_and_verifies(self, built):
        protocol, ctx = harness()
        meet(protocol, S, D, 20.0)
        meet(protocol, 2, D, 60.0)
        inject(protocol, ctx, source=S, destination=D, created=120.0)
        before_signatures = COUNTERS.signatures
        meet(protocol, S, 1, 150.0)  # node 1 declares 0 < 20: fails
        assert built == []
        assert COUNTERS.signatures == before_signatures
        meet(protocol, S, 2, 160.0)  # the hand-off embeds the failure
        (declaration,) = ctx.node(2).buffer[0].attachments
        # Signed once, when first embedded; the record now holds it.
        assert [d for d in built if d.declarant == 1] == [declaration]
        assert protocol._sources[S][0].failed_declarations == [declaration]
        assert declaration.declarant == 1
        assert declaration.value < 20.0
        assert declaration.declared_at == 150.0
        assert verify_quality_declaration(
            protocol.identities[D],
            protocol.identities[1].certificate,
            declaration,
        )

    def three_failures_then_hand_off(self):
        """Nodes 1-3 fail at S, then node 4 takes the message."""
        protocol, ctx = harness()
        meet(protocol, S, D, 20.0)
        meet(protocol, 4, D, 60.0)
        meet(protocol, 6, D, 90.0)
        inject(protocol, ctx, source=S, destination=D, created=120.0)
        for node, t in ((1, 150.0), (2, 160.0), (3, 170.0)):
            meet(protocol, S, node, t)
        meet(protocol, S, 4, 180.0)
        return protocol, ctx

    def test_only_embedded_failures_are_signed(self, built):
        protocol, ctx = self.three_failures_then_hand_off()
        attachments = ctx.node(4).buffer[0].attachments
        assert [d.declarant for d in attachments] == [2, 3]
        # The two embedded failures, then the taker's own declaration;
        # node 1's failure is never signed.
        assert [d.declarant for d in built] == [2, 3, 4]
        assert all(a is b for a, b in zip(built, attachments))

    def test_second_hand_off_reuses_signed_failures(self, built):
        protocol, ctx = self.three_failures_then_hand_off()
        first = ctx.node(4).buffer[0].attachments
        del built[:]
        before_signatures = COUNTERS.signatures
        meet(protocol, S, 6, 190.0)  # 90 beats the relabelled 60
        second = ctx.node(6).buffer[0].attachments
        assert len(second) == len(first) == 2
        assert all(a is b for a, b in zip(first, second))
        # Only the taker's declaration and its PoR are signed.
        assert [d.declarant for d in built] == [6]
        assert COUNTERS.signatures == before_signatures + 2

    def test_source_held_acceptance_anchors_chain(self, built):
        protocol, ctx = harness()
        meet(protocol, 1, D, 30.0)
        inject(protocol, ctx, source=S, destination=D, created=120.0)
        meet(protocol, S, 1, 150.0)
        kept = protocol._sources[S][0].taker_declarations[1]
        assert built == [kept]
        assert kept.declarant == 1 and kept.destination == D

    def test_liars_convicted_end_to_end(self, mini_synthetic):
        cfg = SimulationConfig(
            run_length=2 * 3600.0, silent_tail=1800.0,
            mean_interarrival=60.0, ttl=1500.0, seed=4,
            quality_timeframe=600.0, heavy_hmac_iterations=2,
        )
        liars = {3, 7}
        protocol = G2GDelegationForwarding("frequency")
        results = Simulation(
            mini_synthetic.trace, protocol, cfg,
            strategies={node: Liar() for node in liars},
        ).run()
        assert {d.offender for d in results.detections} == liars
        assert {d.deviation for d in results.detections} == {"liar"}
        for pom in protocol.ctx.blacklist.poms:
            assert verify_quality_declaration(
                protocol.identities[pom.detector],
                protocol.identities[pom.offender].certificate,
                pom.evidence,
            )


class TestDropperDetection:
    def test_dropper_convicted(self):
        protocol, ctx = harness(strategies={1: Dropper()})
        meet(protocol, 1, D, 30.0)
        inject(protocol, ctx, source=S, destination=D, created=120.0)
        meet(protocol, S, 1, 150.0)  # relay; dropper discards
        assert not ctx.node(1).has_copy(0)
        meet(protocol, S, 1, 600.0)
        assert len(ctx.results.detections) == 1
        assert ctx.results.detections[0].deviation == "dropper"


class TestFullRun:
    def test_honest_run_clean(self, mini_synthetic):
        cfg = SimulationConfig(
            run_length=2 * 3600.0, silent_tail=1800.0,
            mean_interarrival=30.0, ttl=1500.0, seed=4,
            quality_timeframe=600.0, heavy_hmac_iterations=2,
        )
        results = Simulation(
            mini_synthetic.trace, G2GDelegationForwarding("last_contact"), cfg
        ).run()
        assert results.detections == []
        assert results.delivered > 0

    def test_frequency_variant_runs(self, mini_synthetic):
        cfg = SimulationConfig(
            run_length=2 * 3600.0, silent_tail=1800.0,
            mean_interarrival=60.0, ttl=1500.0, seed=4,
            quality_timeframe=600.0, heavy_hmac_iterations=2,
        )
        results = Simulation(
            mini_synthetic.trace, G2GDelegationForwarding("frequency"), cfg
        ).run()
        assert results.detections == []
        assert results.protocol == "g2g_delegation_frequency"
