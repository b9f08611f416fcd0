"""Tests for the source-only vs any-giver auditing modes."""

import re

import pytest

from repro.adversaries import Dropper
from repro.core import G2GDelegationForwarding, G2GEpidemicForwarding
from repro.sim import Simulation, SimulationConfig
from repro.sim.messages import Message
from repro.traces import ContactTrace


def config(**overrides):
    base = dict(
        run_length=10_000.0, silent_tail=1000.0, mean_interarrival=1e6,
        ttl=1000.0, heavy_hmac_iterations=2, seed=3,
    )
    base.update(overrides)
    return SimulationConfig(**base)


def harness(testers, strategies=None):
    trace = ContactTrace(name="manual", nodes=tuple(range(6)), contacts=())
    protocol = G2GEpidemicForwarding()
    sim = Simulation(
        trace, protocol, config(testers=testers), strategies=strategies
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


class TestModeValidation:
    def test_unknown_mode_rejected(self):
        with pytest.raises(
            ValueError, match=re.escape("('source', 'any_giver')")
        ):
            SimulationConfig(testers="everyone")

    def test_default_is_source(self):
        assert SimulationConfig().testers == "source"


class TestSourceOnly:
    def test_relay_giver_never_tests(self):
        protocol, ctx = harness("source", strategies={2: Dropper()})
        inject(protocol, ctx, source=0, destination=5, created=0.0)
        protocol.on_contact_start(0, 1, 10.0)   # source -> relay 1
        protocol.on_contact_start(1, 2, 20.0)   # relay 1 -> dropper 2
        protocol.on_contact_start(1, 2, 1200.0)  # 1 is not the source
        assert ctx.results.detections == []


class TestAnyGiver:
    def test_relay_giver_tests_its_takers(self):
        protocol, ctx = harness("any_giver", strategies={2: Dropper()})
        inject(protocol, ctx, source=0, destination=5, created=0.0)
        protocol.on_contact_start(0, 1, 10.0)
        protocol.on_contact_start(1, 2, 20.0)
        protocol.on_contact_start(1, 2, 1200.0)  # relay 1 audits now
        assert len(ctx.results.detections) == 1
        record = ctx.results.detections[0]
        assert record.offender == 2
        assert record.detector == 1

    def test_honest_takers_still_pass(self):
        protocol, ctx = harness("any_giver")
        inject(protocol, ctx, source=0, destination=5, created=0.0)
        protocol.on_contact_start(0, 1, 10.0)
        protocol.on_contact_start(1, 2, 20.0)
        protocol.on_contact_start(1, 2, 1200.0)
        assert ctx.results.detections == []
        assert ctx.results.test_phases == 1

    def test_delegation_source_duties_stay_at_source(self):
        """Intermediate relays must not embed failed declarations."""
        trace = ContactTrace(name="m", nodes=tuple(range(8)), contacts=())
        protocol = G2GDelegationForwarding()
        sim = Simulation(
            trace,
            protocol,
            config(ttl=400.0, quality_timeframe=100.0, testers="any_giver"),
        )
        ctx = sim._build_context()
        protocol.bind(ctx)
        S, D = 0, 5
        protocol.on_contact_start(S, D, 20.0)   # S gains quality to D
        protocol.on_contact_start(1, D, 60.0)
        protocol.on_contact_start(2, D, 80.0)
        message = Message(
            msg_id=0, source=S, destination=D, created_at=120.0, ttl=400.0
        )
        ctx.results.record_generated(message)
        protocol.on_message_generated(message, 120.0)
        protocol.on_contact_start(S, 1, 150.0)  # relay to node 1
        # node 1 (a relay) meets a failing candidate: node 3 declares 0.
        protocol.on_contact_start(1, 3, 200.0)
        record = protocol._sources[1].get(0)
        if record is not None:
            assert not record.is_source
            assert record.failed_declarations == []
