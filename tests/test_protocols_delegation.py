"""Protocol-level tests for vanilla Delegation Forwarding."""

import pytest

from repro.adversaries import Dropper, Liar
from repro.protocols import DelegationForwarding
from repro.sim import Simulation, SimulationConfig
from repro.sim.messages import Message
from repro.traces import ContactTrace, make_contact


def harness(trace, variant="last_contact", strategies=None):
    config = SimulationConfig(
        run_length=10_000.0, silent_tail=1000.0, mean_interarrival=1e6,
        ttl=5000.0, quality_timeframe=500.0,
    )
    protocol = DelegationForwarding(variant)
    sim = Simulation(trace, protocol, config, strategies=strategies)
    ctx = sim._build_context()
    protocol.bind(ctx)
    return protocol, ctx


def inject(protocol, ctx, source, destination, created, msg_id=0):
    message = Message(
        msg_id=msg_id, source=source, destination=destination,
        created_at=created, ttl=5000.0,
    )
    ctx.results.record_generated(message)
    protocol.on_message_generated(message, created)
    return message


def quality_ladder_trace():
    """Node 1 keeps meeting the destination 3; node 2 never does.

    0 then meets both 1 and 2: only 1 qualifies as a relay.
    """
    return ContactTrace(
        name="ladder",
        nodes=(0, 1, 2, 3),
        contacts=(
            make_contact(1, 3, 100.0, 150.0),
            make_contact(1, 3, 300.0, 350.0),
            make_contact(0, 2, 1000.0, 1050.0),
            make_contact(0, 1, 2000.0, 2050.0),
            make_contact(1, 3, 3000.0, 3050.0),
        ),
    )


class TestForwardingRule:
    def test_only_better_nodes_get_copies(self):
        trace = quality_ladder_trace()
        protocol, ctx = harness(trace)
        for c in trace.contacts[:2]:
            protocol.on_contact_start(c.a, c.b, c.start)
        inject(protocol, ctx, source=0, destination=3, created=500.0)
        protocol.on_contact_start(0, 2, 1000.0)
        assert not ctx.node(2).has_copy(0)  # 2 has quality 0, msg has 0
        protocol.on_contact_start(0, 1, 2000.0)
        assert ctx.node(1).has_copy(0)  # 1 met 3 twice

    def test_copy_quality_updated_on_forward(self):
        trace = quality_ladder_trace()
        protocol, ctx = harness(trace, variant="frequency")
        for c in trace.contacts[:2]:
            protocol.on_contact_start(c.a, c.b, c.start)
        inject(protocol, ctx, source=0, destination=3, created=500.0)
        protocol.on_contact_start(0, 1, 2000.0)
        # Both copies labelled with node 1's quality (2 encounters).
        assert protocol.quality_of(0, 0) == 2.0
        assert protocol.quality_of(1, 0) == 2.0

    def test_destination_always_delivered(self):
        trace = quality_ladder_trace()
        protocol, ctx = harness(trace)
        for c in trace.contacts[:2]:
            protocol.on_contact_start(c.a, c.b, c.start)
        inject(protocol, ctx, source=0, destination=3, created=500.0)
        protocol.on_contact_start(0, 1, 2000.0)
        protocol.on_contact_start(1, 3, 3000.0)
        assert ctx.results.delivered == 1

    def test_initial_quality_is_senders(self):
        trace = quality_ladder_trace()
        protocol, ctx = harness(trace, variant="frequency")
        inject(protocol, ctx, source=1, destination=3, created=50.0)
        assert protocol.quality_of(1, 0) == 0.0

    def test_variant_in_name(self):
        assert DelegationForwarding("frequency").name == "delegation_frequency"
        assert (
            DelegationForwarding("last_contact").name
            == "delegation_last_contact"
        )


class TestAdversaries:
    def test_liar_never_qualifies(self):
        trace = quality_ladder_trace()
        protocol, ctx = harness(trace, strategies={1: Liar()})
        for c in trace.contacts[:2]:
            protocol.on_contact_start(c.a, c.b, c.start)
        inject(protocol, ctx, source=0, destination=3, created=500.0)
        protocol.on_contact_start(0, 1, 2000.0)
        # Liar declared 0 despite real quality; no relay happens.
        assert not ctx.node(1).has_copy(0)
        assert ctx.results.deviation_counts[1] == 1

    def test_liar_still_receives_as_destination(self):
        trace = ContactTrace(
            name="t", nodes=(0, 1),
            contacts=(make_contact(0, 1, 100.0, 150.0),),
        )
        protocol, ctx = harness(trace, strategies={1: Liar()})
        inject(protocol, ctx, source=0, destination=1, created=0.0)
        protocol.on_contact_start(0, 1, 100.0)
        assert ctx.results.delivered == 1

    def test_dropper_breaks_chain(self):
        trace = quality_ladder_trace()
        protocol, ctx = harness(trace, strategies={1: Dropper()})
        for c in trace.contacts[:2]:
            protocol.on_contact_start(c.a, c.b, c.start)
        inject(protocol, ctx, source=0, destination=3, created=500.0)
        protocol.on_contact_start(0, 1, 2000.0)
        protocol.on_contact_start(1, 3, 3000.0)
        # node 1 accepted the copy then dropped it: no delivery via 1.
        assert ctx.results.delivered == 0


class TestFullRuns:
    def test_delegation_cheaper_than_epidemic(self, mini_synthetic):
        from repro.protocols import EpidemicForwarding

        config = SimulationConfig(
            run_length=2 * 3600.0, silent_tail=1800.0,
            mean_interarrival=30.0, ttl=1800.0, seed=3,
        )
        trace = mini_synthetic.trace
        epidemic = Simulation(trace, EpidemicForwarding(), config).run()
        delegation = Simulation(
            trace, DelegationForwarding("last_contact"), config
        ).run()
        assert delegation.cost < epidemic.cost
        assert delegation.success_rate <= epidemic.success_rate

    def test_variants_differ(self, mini_synthetic):
        config = SimulationConfig(
            run_length=2 * 3600.0, silent_tail=1800.0,
            mean_interarrival=30.0, ttl=1800.0, seed=3,
        )
        trace = mini_synthetic.trace
        freq = Simulation(
            trace, DelegationForwarding("frequency"), config
        ).run()
        last = Simulation(
            trace, DelegationForwarding("last_contact"), config
        ).run()
        assert freq.summary() != last.summary()
