"""Protocol-level tests for G2G Epidemic Forwarding.

These drive the protocol by hand over explicit contact sequences so
each mechanism — the relay handshake, the give-2 cap, proof
collection, the test phase, PoM issuance — is observable in isolation.
"""

import pytest

from repro.adversaries import Dropper
from repro.core import G2GEpidemicForwarding
from repro.sim import Simulation, SimulationConfig
from repro.sim.messages import Message
from repro.traces import ContactTrace, make_contact


def config(**overrides):
    base = dict(
        run_length=10_000.0,
        silent_tail=1000.0,
        mean_interarrival=1e6,
        ttl=1000.0,
        delta2_factor=2.0,
        heavy_hmac_iterations=2,
        seed=3,
    )
    base.update(overrides)
    return SimulationConfig(**base)


def harness(nodes=6, cfg=None, strategies=None):
    trace = ContactTrace(
        name="manual", nodes=tuple(range(nodes)), contacts=()
    )
    protocol = G2GEpidemicForwarding()
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


class TestRelayPhase:
    def test_handoff_stores_copy_and_proof(self):
        protocol, ctx = harness()
        inject(protocol, ctx, source=0, destination=5, created=0.0)
        meet(protocol, 0, 1, 10.0)
        assert ctx.node(1).has_copy(0)
        assert len(ctx.node(0).buffer[0].proofs) == 1
        assert ctx.results.messages[0].replicas == 1

    def test_proof_signed_by_taker(self):
        protocol, ctx = harness()
        inject(protocol, ctx, source=0, destination=5, created=0.0)
        meet(protocol, 0, 1, 10.0)
        por = ctx.node(0).buffer[0].proofs[0]
        assert por.taker == 1
        assert por.giver == 0
        from repro.core.proofs import verify_proof_of_relay

        assert verify_proof_of_relay(
            protocol.identities[0], protocol.identities[1].certificate, por
        )

    def test_delivery_to_destination(self):
        protocol, ctx = harness()
        inject(protocol, ctx, source=0, destination=1, created=0.0)
        meet(protocol, 0, 1, 10.0)
        assert ctx.results.delivered == 1
        # the destination also signed a PoR during the phase
        assert len(ctx.node(0).buffer[0].proofs) == 1

    def test_seen_prevents_rerelay(self):
        protocol, ctx = harness()
        inject(protocol, ctx, source=0, destination=5, created=0.0)
        meet(protocol, 0, 1, 10.0)
        meet(protocol, 0, 1, 20.0)
        assert ctx.results.messages[0].replicas == 1

    def test_no_relay_after_ttl(self):
        protocol, ctx = harness()
        inject(protocol, ctx, source=0, destination=5, created=0.0)
        meet(protocol, 0, 1, 1500.0)  # ttl is 1000
        assert not ctx.node(1).has_copy(0)


class TestGive2Rule:
    def test_relay_fanout_capped_at_two(self):
        protocol, ctx = harness()
        inject(protocol, ctx, source=0, destination=5, created=0.0)
        meet(protocol, 0, 1, 10.0)
        # node 1 relays onward to 2 and 3, then stops
        meet(protocol, 1, 2, 20.0)
        meet(protocol, 1, 3, 30.0)
        meet(protocol, 1, 4, 40.0)
        assert ctx.node(2).has_copy(0)
        assert ctx.node(3).has_copy(0)
        assert not ctx.node(4).has_copy(0)

    def test_body_dropped_after_two_proofs(self):
        protocol, ctx = harness()
        inject(protocol, ctx, source=0, destination=5, created=0.0)
        meet(protocol, 0, 1, 10.0)
        meet(protocol, 1, 2, 20.0)
        meet(protocol, 1, 3, 30.0)
        copy = ctx.node(1).buffer[0]
        assert ctx.node(1).body_dropped(0)
        assert len(copy.proofs) == 2

    def test_source_exceeds_cap_by_default(self):
        protocol, ctx = harness()
        inject(protocol, ctx, source=0, destination=5, created=0.0)
        for peer in (1, 2, 3, 4):
            meet(protocol, 0, peer, 10.0 * peer)
        assert all(ctx.node(p).has_copy(0) for p in (1, 2, 3, 4))
        assert not ctx.node(0).body_dropped(0)

    def test_source_cap_configurable(self):
        protocol, ctx = harness(cfg=config(source_fanout=2))
        inject(protocol, ctx, source=0, destination=5, created=0.0)
        for peer in (1, 2, 3):
            meet(protocol, 0, peer, 10.0 * peer)
        assert ctx.node(1).has_copy(0)
        assert ctx.node(2).has_copy(0)
        assert not ctx.node(3).has_copy(0)


class TestTestPhase:
    def test_no_test_before_ttl(self):
        protocol, ctx = harness(strategies={1: Dropper()})
        inject(protocol, ctx, source=0, destination=5, created=0.0)
        meet(protocol, 0, 1, 10.0)
        meet(protocol, 0, 1, 900.0)  # before Δ1 expiry
        assert ctx.results.detections == []

    def test_dropper_caught_in_window(self):
        protocol, ctx = harness(strategies={1: Dropper()})
        message = inject(protocol, ctx, source=0, destination=5, created=0.0)
        meet(protocol, 0, 1, 10.0)
        assert not ctx.node(1).has_copy(0)  # dropped post-relay
        meet(protocol, 0, 1, 1200.0)  # inside (1000, 2000]
        assert len(ctx.results.detections) == 1
        record = ctx.results.detections[0]
        assert record.offender == 1
        assert record.deviation == "dropper"
        assert record.delay_after_ttl == pytest.approx(200.0)
        assert ctx.node(1).evicted

    def test_no_test_after_delta2(self):
        protocol, ctx = harness(strategies={1: Dropper()})
        inject(protocol, ctx, source=0, destination=5, created=0.0)
        meet(protocol, 0, 1, 10.0)
        meet(protocol, 0, 1, 2500.0)  # beyond Δ2 = 2000
        assert ctx.results.detections == []

    def test_honest_relay_passes_with_proofs(self):
        protocol, ctx = harness()
        inject(protocol, ctx, source=0, destination=5, created=0.0)
        meet(protocol, 0, 1, 10.0)
        meet(protocol, 1, 2, 20.0)
        meet(protocol, 1, 3, 30.0)
        meet(protocol, 0, 1, 1200.0)
        assert ctx.results.detections == []
        assert ctx.results.test_phases == 1
        assert ctx.results.heavy_hmac_runs == 0

    def test_honest_holder_passes_storage_challenge(self):
        protocol, ctx = harness()
        inject(protocol, ctx, source=0, destination=5, created=0.0)
        meet(protocol, 0, 1, 10.0)  # node 1 finds no further relays
        meet(protocol, 0, 1, 1200.0)
        assert ctx.results.detections == []
        assert ctx.results.heavy_hmac_runs == 1
        # the prover paid the heavy-HMAC energy price
        assert ctx.results.energy[1] > ctx.config.energy.heavy_hmac / 2

    def test_each_taker_tested_once(self):
        protocol, ctx = harness(strategies={1: Dropper()})
        inject(protocol, ctx, source=0, destination=5, created=0.0)
        meet(protocol, 0, 1, 10.0)
        meet(protocol, 0, 1, 1200.0)
        meet(protocol, 0, 1, 1300.0)
        assert len(ctx.results.detections) == 1

    def test_destination_never_tested(self):
        protocol, ctx = harness()
        inject(protocol, ctx, source=0, destination=1, created=0.0)
        meet(protocol, 0, 1, 10.0)  # delivery
        meet(protocol, 0, 1, 1200.0)
        assert ctx.results.test_phases == 0
        assert ctx.results.detections == []

    def test_only_source_tests(self):
        """A relay's giver that is not the source never challenges."""
        protocol, ctx = harness(strategies={2: Dropper()})
        inject(protocol, ctx, source=0, destination=5, created=0.0)
        meet(protocol, 0, 1, 10.0)
        meet(protocol, 1, 2, 20.0)  # node 2 takes from relay 1, drops
        meet(protocol, 1, 2, 1200.0)  # relay 1 does NOT test
        assert ctx.results.detections == []
        meet(protocol, 0, 2, 1300.0)  # the source never gave 2 anything
        assert ctx.results.detections == []


class TestEviction:
    def test_evicted_node_excluded(self):
        protocol, ctx = harness(strategies={1: Dropper()})
        inject(protocol, ctx, source=0, destination=5, created=0.0)
        meet(protocol, 0, 1, 10.0)
        meet(protocol, 0, 1, 1200.0)  # PoM + eviction
        assert ctx.node(1).evicted
        assert not ctx.usable_pair(0, 1)
        # a fresh message never reaches the evicted node
        inject(protocol, ctx, source=0, destination=5, created=1300.0, msg_id=1)
        meet(protocol, 0, 1, 1400.0)
        assert not ctx.node(1).has_copy(1)

    def test_pom_published_to_blacklist(self):
        protocol, ctx = harness(strategies={1: Dropper()})
        inject(protocol, ctx, source=0, destination=5, created=0.0)
        meet(protocol, 0, 1, 10.0)
        meet(protocol, 0, 1, 1200.0)
        assert ctx.blacklist.knows(4, 1)


class TestHousekeeping:
    def test_purge_after_delta2(self):
        protocol, ctx = harness()
        inject(protocol, ctx, source=0, destination=5, created=0.0)
        meet(protocol, 0, 1, 10.0)
        assert ctx.node(1).has_copy(0)
        meet(protocol, 1, 2, 2500.0)  # beyond Δ2: housekeeping purges
        assert not ctx.node(1).has_copy(0)

    def test_source_records_purged(self):
        protocol, ctx = harness()
        inject(protocol, ctx, source=0, destination=5, created=0.0)
        meet(protocol, 0, 1, 10.0)
        assert protocol._sources[0]
        meet(protocol, 0, 2, 2500.0)
        assert not protocol._sources[0]


class TestFullRun:
    def test_honest_run_no_detections(self, mini_synthetic):
        cfg = SimulationConfig(
            run_length=2 * 3600.0, silent_tail=1800.0,
            mean_interarrival=30.0, ttl=1200.0, seed=4,
            heavy_hmac_iterations=2,
        )
        results = Simulation(
            mini_synthetic.trace, G2GEpidemicForwarding(), cfg
        ).run()
        assert results.detections == []
        assert results.evicted_at == {}
        assert results.delivered > 0

    def test_droppers_detected_in_full_run(self, mini_synthetic):
        cfg = SimulationConfig(
            run_length=2 * 3600.0, silent_tail=1800.0,
            mean_interarrival=30.0, ttl=1200.0, seed=4,
            heavy_hmac_iterations=2,
        )
        strategies = {3: Dropper(), 7: Dropper()}
        results = Simulation(
            mini_synthetic.trace, G2GEpidemicForwarding(), cfg,
            strategies=strategies,
        ).run()
        assert results.detection_rate([3, 7]) > 0
        assert results.false_positives([3, 7]) == set()
