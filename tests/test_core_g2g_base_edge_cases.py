"""Edge-case tests of the shared G2G machinery.

Covers corners the scenario tests don't reach: sealed-message
integrity end to end, energy accounting of the handshake, gossip-mode
eviction semantics, re-tests across multiple messages, and interaction
between eviction and in-flight obligations.
"""

import pytest

from repro.adversaries import Dropper
from repro.core import G2GEpidemicForwarding, GossipBlacklist
from repro.sim import Simulation, SimulationConfig
from repro.sim.messages import Message
from repro.traces import ContactTrace


def config(**overrides):
    base = dict(
        run_length=10_000.0,
        silent_tail=1000.0,
        mean_interarrival=1e6,
        ttl=1000.0,
        heavy_hmac_iterations=2,
        seed=3,
    )
    base.update(overrides)
    return SimulationConfig(**base)


def harness(nodes=6, cfg=None, strategies=None, blacklist=None):
    trace = ContactTrace(name="manual", nodes=tuple(range(nodes)), contacts=())
    protocol = G2GEpidemicForwarding()
    sim = Simulation(
        trace, protocol, cfg or config(), strategies=strategies,
        blacklist=blacklist,
    )
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


class TestSealedMessages:
    def test_sender_hidden_from_relays(self):
        protocol, ctx = harness()
        inject(protocol, ctx, source=0, destination=5, created=0.0)
        sealed = protocol._sealed[0]
        # The wire form mentions the destination, not the source.
        assert sealed.destination == 5
        with pytest.raises(Exception):
            # relay 1 cannot decrypt
            from repro.core.proofs import open_message

            open_message(protocol.identities[1], sealed)

    def test_destination_authenticates_source(self):
        protocol, ctx = harness()
        inject(protocol, ctx, source=0, destination=1, created=0.0)
        protocol.on_contact_start(0, 1, 10.0)
        # delivery ran open_message() internally and asserted the
        # (source, msg_id) binding; reaching here means it verified.
        assert ctx.results.delivered == 1


class TestEnergyAccounting:
    def test_relay_charges_both_sides(self):
        protocol, ctx = harness()
        inject(protocol, ctx, source=0, destination=5, created=0.0)
        protocol.on_contact_start(0, 1, 10.0)
        assert ctx.results.energy[0] > 0  # transmit + verification
        assert ctx.results.energy[1] > 0  # receive + signature

    def test_storage_challenge_costs_more_than_relay(self):
        protocol, ctx = harness()
        inject(protocol, ctx, source=0, destination=5, created=0.0)
        protocol.on_contact_start(0, 1, 10.0)
        energy_after_relay = ctx.results.energy[1]
        protocol.on_contact_start(0, 1, 1200.0)  # storage challenge
        challenge_cost = ctx.results.energy[1] - energy_after_relay
        assert challenge_cost > energy_after_relay


class TestGossipMode:
    def test_no_global_eviction_in_gossip_mode(self):
        gossip = GossipBlacklist()
        protocol, ctx = harness(
            cfg=config(instant_blacklist=False),
            strategies={1: Dropper()},
            blacklist=gossip,
        )
        inject(protocol, ctx, source=0, destination=5, created=0.0)
        protocol.on_contact_start(0, 1, 10.0)
        protocol.on_contact_start(0, 1, 1200.0)  # PoM issued
        assert len(ctx.results.detections) == 1
        # gossip: the offender is not globally evicted...
        assert not ctx.node(1).evicted
        # ...but the detector refuses new sessions with it,
        assert not ctx.usable_pair(0, 1)
        # while an uninformed node still would accept.
        assert ctx.usable_pair(1, 2)

    def test_gossip_spreads_on_contact(self):
        gossip = GossipBlacklist()
        protocol, ctx = harness(
            cfg=config(instant_blacklist=False),
            strategies={1: Dropper()},
            blacklist=gossip,
        )
        inject(protocol, ctx, source=0, destination=5, created=0.0)
        protocol.on_contact_start(0, 1, 10.0)
        protocol.on_contact_start(0, 1, 1200.0)
        gossip.on_contact(0, 3, 1300.0)  # engine does this per contact
        assert not ctx.usable_pair(3, 1)


class TestMultiMessageObligations:
    def test_obligations_tracked_per_message(self):
        protocol, ctx = harness(strategies={1: Dropper()})
        inject(protocol, ctx, source=0, destination=5, created=0.0, msg_id=0)
        inject(protocol, ctx, source=0, destination=4, created=5.0, msg_id=1)
        protocol.on_contact_start(0, 1, 10.0)  # node 1 takes (and drops) both
        protocol.on_contact_start(0, 1, 1200.0)
        # Both tests fail, but the node is evicted at the first PoM;
        # at least one detection exists and cites node 1.
        assert ctx.results.detections
        assert all(d.offender == 1 for d in ctx.results.detections)

    def test_second_source_also_tests(self):
        protocol, ctx = harness(strategies={2: Dropper()})
        inject(protocol, ctx, source=0, destination=5, created=0.0, msg_id=0)
        inject(protocol, ctx, source=1, destination=4, created=5.0, msg_id=1)
        protocol.on_contact_start(0, 2, 10.0)
        protocol.on_contact_start(1, 2, 20.0)
        # Only source 1 re-meets the dropper inside the window.
        protocol.on_contact_start(1, 2, 1200.0)
        assert len(ctx.results.detections) == 1
        assert ctx.results.detections[0].detector == 1


class TestEvictionInteractions:
    def test_evicted_source_messages_not_generated(self):
        """Engine-level: once evicted, a node stops sourcing traffic."""
        from repro.traces import make_contact

        trace = ContactTrace(
            name="t",
            nodes=(0, 1, 2, 3),
            contacts=(
                make_contact(0, 1, 10.0, 60.0),
                make_contact(0, 1, 1200.0, 1260.0),
            ),
        )
        cfg = config(mean_interarrival=30.0, run_length=3000.0,
                     silent_tail=100.0)
        results = Simulation(
            trace, G2GEpidemicForwarding(), cfg, strategies={1: Dropper()}
        ).run()
        if 1 in results.evicted_at:
            evicted_at = results.evicted_at[1]
            late_sources = [
                r.message.source
                for r in results.messages.values()
                if r.message.created_at > evicted_at
            ]
            assert 1 not in late_sources

    def test_tests_stop_against_evicted_node(self):
        protocol, ctx = harness(strategies={1: Dropper()})
        inject(protocol, ctx, source=0, destination=5, created=0.0, msg_id=0)
        inject(protocol, ctx, source=0, destination=4, created=0.0, msg_id=1)
        protocol.on_contact_start(0, 1, 10.0)
        protocol.on_contact_start(0, 1, 1200.0)
        # first failing test evicts; the loop must stop immediately.
        assert len(ctx.results.detections) == 1


class TestDodgerMechanics:
    def test_dodger_never_tested(self):
        from repro.adversaries import Dodger

        protocol, ctx = harness(strategies={1: Dodger()})
        inject(protocol, ctx, source=0, destination=5, created=0.0)
        protocol.on_contact_start(0, 1, 10.0)  # take + drop
        assert not ctx.node(1).has_copy(0)
        protocol.on_contact_start(0, 1, 1200.0)  # dodger refuses session
        assert ctx.results.detections == []
        assert ctx.results.session_refusals == 1

    def test_dodger_accepts_unrelated_peers(self):
        from repro.adversaries import Dodger

        protocol, ctx = harness(strategies={1: Dodger()})
        inject(protocol, ctx, source=0, destination=5, created=0.0)
        protocol.on_contact_start(0, 1, 10.0)
        # Node 2 is not a creditor: session opens, dodger even relays
        # nothing (it dropped the copy) but receives new messages.
        protocol.on_contact_start(1, 2, 50.0)
        assert ctx.results.session_refusals == 0

    def test_obligation_expires_after_delta2(self):
        from repro.adversaries import Dodger

        protocol, ctx = harness(strategies={1: Dodger()})
        inject(protocol, ctx, source=0, destination=5, created=0.0)
        protocol.on_contact_start(0, 1, 10.0)
        # Past Δ2 (= 2000) the obligation is gone; sessions resume.
        protocol.on_contact_start(0, 1, 2500.0)
        assert ctx.results.session_refusals == 0

    def test_taken_answers_and_leaves_at_its_delta2_purge(self):
        from repro.adversaries import Dodger

        protocol, ctx = harness(strategies={1: Dodger()})
        dodger = ctx.node(1)
        inject(protocol, ctx, source=0, destination=5, created=0.0, msg_id=0)
        protocol.on_contact_start(0, 1, 10.0)  # take + drop
        inject(protocol, ctx, source=2, destination=4, created=500.0,
               msg_id=1)
        protocol.on_contact_start(2, 1, 600.0)  # 2 is no creditor yet
        assert ctx.results.session_refusals == 0
        # Δ2 = 2 * Δ1 = 2000 s after creation.
        assert dodger.extra["taken"] == {0: (0, 2000.0), 1: (2, 2500.0)}
        assert protocol._pending_givers(dodger, 1000.0) == {0, 2}
        # The window is closed strictly after the deadline.
        assert protocol._pending_givers(dodger, 2000.0) == {0, 2}
        protocol.on_contact_start(1, 3, 2000.0)
        assert set(dodger.extra["taken"]) == {0, 1}
        # The Δ2 purge itself drops the entry, whether or not a
        # session scan follows it.
        protocol._apply_ripe_purges(dodger, 2001.0)
        assert dodger.extra["taken"] == {1: (2, 2500.0)}
        assert protocol._pending_givers(dodger, 2001.0) == {2}
        protocol._apply_ripe_purges(dodger, 2600.0)
        assert dodger.extra["taken"] == {}
        protocol.on_contact_start(1, 3, 2600.0)
        assert protocol._pending_givers(dodger, 2600.0) == frozenset()
        assert ctx.results.session_refusals == 0

    @pytest.mark.parametrize("strategy", [None, Dropper()])
    def test_takers_that_never_dodge_keep_no_taken_map(self, strategy):
        strategies = {1: strategy} if strategy is not None else None
        protocol, ctx = harness(strategies=strategies)
        inject(protocol, ctx, source=0, destination=5, created=0.0)
        protocol.on_contact_start(0, 1, 10.0)
        assert ctx.results.messages[0].replicas == 1
        assert "taken" not in ctx.node(1).extra

    def test_honest_nodes_have_no_pending_givers(self):
        protocol, ctx = harness()
        inject(protocol, ctx, source=0, destination=5, created=0.0)
        protocol.on_contact_start(0, 1, 10.0)
        assert protocol._pending_givers(ctx.node(1), 100.0) == frozenset()
