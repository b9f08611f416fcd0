"""Tests for the beyond-paper DTN baselines: Spray and Wait, PRoPHET,
BubbleRap — plus results-digest pins for all five baselines."""

import dataclasses

import pytest

from repro.adversaries import Dropper
from repro.protocols import (
    BubbleRapForwarding,
    DelegationForwarding,
    EpidemicForwarding,
    ProphetForwarding,
    SprayAndWaitForwarding,
)
from repro.protocols.prophet import P_INIT
from repro.sim import Simulation, SimulationConfig
from repro.sim.messages import Message
from repro.traces import ContactTrace, make_contact
from tests.test_determinism_seeds import results_digest


def quick_cfg(**overrides):
    base = dict(
        run_length=10_000.0, silent_tail=1000.0, mean_interarrival=1e6,
        ttl=5000.0, seed=3,
    )
    base.update(overrides)
    return SimulationConfig(**base)


def harness(protocol, nodes=8, community=None):
    trace = ContactTrace(name="m", nodes=tuple(range(nodes)), contacts=())
    sim = Simulation(trace, protocol, quick_cfg(), community=community)
    ctx = sim._build_context()
    protocol.bind(ctx)
    return ctx


def inject(protocol, ctx, source, destination, created, msg_id=0):
    message = Message(
        msg_id=msg_id, source=source, destination=destination,
        created_at=created, ttl=5000.0,
    )
    ctx.results.record_generated(message)
    protocol.on_message_generated(message, created)
    return message


class TestSprayAndWait:
    def test_tokens_halve_on_spray(self):
        protocol = SprayAndWaitForwarding(initial_copies=8)
        ctx = harness(protocol)
        inject(protocol, ctx, source=0, destination=7, created=0.0)
        protocol.on_contact_start(0, 1, 10.0)
        assert protocol.tokens_of(0, 0) == 4
        assert protocol.tokens_of(1, 0) == 4
        protocol.on_contact_start(1, 2, 20.0)
        assert protocol.tokens_of(1, 0) == 2
        assert protocol.tokens_of(2, 0) == 2

    def test_single_token_waits(self):
        protocol = SprayAndWaitForwarding(initial_copies=2)
        ctx = harness(protocol)
        inject(protocol, ctx, source=0, destination=7, created=0.0)
        protocol.on_contact_start(0, 1, 10.0)  # 0:1 token, 1:1 token
        protocol.on_contact_start(1, 2, 20.0)  # 1 must wait
        assert not ctx.node(2).has_copy(0)

    def test_wait_phase_still_delivers(self):
        protocol = SprayAndWaitForwarding(initial_copies=2)
        ctx = harness(protocol)
        inject(protocol, ctx, source=0, destination=7, created=0.0)
        protocol.on_contact_start(0, 1, 10.0)
        protocol.on_contact_start(1, 7, 20.0)  # direct delivery
        assert ctx.results.delivered == 1

    def test_total_tokens_conserved(self):
        protocol = SprayAndWaitForwarding(initial_copies=8)
        ctx = harness(protocol)
        inject(protocol, ctx, source=0, destination=7, created=0.0)
        for a, b, t in ((0, 1, 10.0), (0, 2, 20.0), (1, 3, 30.0)):
            protocol.on_contact_start(a, b, t)
        total = sum(protocol.tokens_of(n, 0) for n in range(8))
        assert total == 8

    def test_invalid_budget(self):
        with pytest.raises(ValueError):
            SprayAndWaitForwarding(initial_copies=0)

    def test_cost_bounded_by_budget(self, mini_synthetic):
        config = SimulationConfig(
            run_length=2 * 3600.0, silent_tail=1800.0,
            mean_interarrival=30.0, ttl=1800.0, seed=5,
        )
        budget = 4
        results = Simulation(
            mini_synthetic.trace, SprayAndWaitForwarding(budget), config
        ).run()
        # Each hand-off moves tokens: at most budget replicas total
        # per message (including delivery).
        for record in results.messages.values():
            assert record.replicas <= budget


class TestProphet:
    def test_encounter_raises_predictability(self):
        protocol = ProphetForwarding()
        ctx = harness(protocol)
        protocol.on_contact_start(0, 1, 10.0)
        assert protocol.predictability(0, 1, 10.0) == pytest.approx(P_INIT)
        protocol.on_contact_start(0, 1, 11.0)
        assert protocol.predictability(0, 1, 11.0) > P_INIT

    def test_aging_decays(self):
        protocol = ProphetForwarding()
        ctx = harness(protocol)
        protocol.on_contact_start(0, 1, 10.0)
        early = protocol.predictability(0, 1, 10.0)
        late = protocol.predictability(0, 1, 5000.0)
        assert late < early

    def test_transitivity(self):
        protocol = ProphetForwarding()
        ctx = harness(protocol)
        protocol.on_contact_start(1, 2, 10.0)  # 1 knows 2
        protocol.on_contact_start(0, 1, 20.0)  # 0 learns about 2 via 1
        assert protocol.predictability(0, 2, 20.0) > 0.0

    def test_forwards_only_to_better_carrier(self):
        protocol = ProphetForwarding()
        ctx = harness(protocol)
        # node 1 frequently meets destination 7.
        protocol.on_contact_start(1, 7, 10.0)
        inject(protocol, ctx, source=0, destination=7, created=20.0)
        protocol.on_contact_start(0, 2, 30.0)  # 2 knows nothing of 7
        assert not ctx.node(2).has_copy(0)
        protocol.on_contact_start(0, 1, 40.0)
        assert ctx.node(1).has_copy(0)


class FakeCommunity:
    def same_community(self, a, b):
        return (a < 4) == (b < 4)


class TestBubbleRap:
    def test_requires_community(self):
        protocol = BubbleRapForwarding()
        with pytest.raises(ValueError):
            harness(protocol, community=None)

    def test_bubbles_up_local_rank_inside_community(self):
        protocol = BubbleRapForwarding()
        ctx = harness(protocol, community=FakeCommunity())
        # node 5 builds local centrality inside community B (nodes 4-7).
        protocol.on_contact_start(5, 6, 1.0)
        # message from 4 (community B) to 7 (community B), carried by 4
        # (local centrality 0 towards B beyond the contact below):
        inject(protocol, ctx, source=4, destination=7, created=10.0)
        # 5's local centrality (1) exceeds 4's (0): bubble up locally.
        protocol.on_contact_start(4, 5, 20.0)
        assert ctx.node(5).has_copy(0)

    def test_enters_destination_community(self):
        protocol = BubbleRapForwarding()
        ctx = harness(protocol, community=FakeCommunity())
        inject(protocol, ctx, source=0, destination=7, created=0.0)
        # node 0 (community A) meets node 4 (community B = dst's):
        protocol.on_contact_start(0, 4, 10.0)
        assert ctx.node(4).has_copy(0)

    def test_never_bubbles_out_of_community(self):
        protocol = BubbleRapForwarding()
        ctx = harness(protocol, community=FakeCommunity())
        # give node 0 (community A) high global centrality
        for peer, t in ((1, 1.0), (2, 2.0), (3, 3.0)):
            protocol.on_contact_start(0, peer, t)
        # message held by 5 (community B) for 7 (community B):
        inject(protocol, ctx, source=5, destination=7, created=10.0, msg_id=1)
        protocol.on_contact_start(5, 0, 20.0)
        assert not ctx.node(0).has_copy(1)

    def test_full_run_with_detected_communities(self, mini_synthetic):
        from repro.social import CommunityMap

        community = CommunityMap.detect(
            mini_synthetic.trace, k=3, edge_quantile=0.7
        )
        config = SimulationConfig(
            run_length=2 * 3600.0, silent_tail=1800.0,
            mean_interarrival=30.0, ttl=1800.0, seed=5,
        )
        epidemic = Simulation(
            mini_synthetic.trace, EpidemicForwarding(), config,
            community=community,
        ).run()
        bubble = Simulation(
            mini_synthetic.trace, BubbleRapForwarding(), config,
            community=community,
        ).run()
        assert bubble.delivered > 0
        assert bubble.cost < epidemic.cost


#: ``results_to_dict`` sha256 of each baseline on mini_synthetic x
#: quick_config.  The buffer-scan and relay-loop fast paths must leave
#: every one of them unchanged: a moved digest means an optimisation
#: changed which copy moved, in what order, or what it cost.
BASELINE_DIGESTS = {
    "bubble_rap": (
        "80998c9c8b744918f8826e9a39148a0570a7ebb300393a2b12937f9d9352de2d"
    ),
    "delegation_last_contact": (
        "1e0704ecf239c24564a3df977b5bf5f535da998e4aab88379b186591b0fa092c"
    ),
    "epidemic": (
        "0d8c30901b3c93d999d6fb3a31e2421cc2603db902b6cbc8b42eefc5b00df1bd"
    ),
    "epidemic_capacity_2": (
        "dbbd643fecbc22a4ff2483c9e6d36656d4c6acc1aa3173a5c6eff62d79579c63"
    ),
    "epidemic_droppers": (
        "e4d69359aef9054203d2c974e474781e8b46b62d56356883167ac9d1ccb21e39"
    ),
    "prophet": (
        "382e7fafffa3e6e11948cae7b72838de4ed7d165cdc553c3adc68b554c42ee04"
    ),
    "spray_and_wait_8": (
        "45856b95b25553e5c3fe96f07fab5ca7b8a05d5cbed682250f4c9e8320448686"
    ),
}

#: Nodes that silently drop what they relay (``epidemic_droppers``).
DROPPERS = (1, 6)


def baseline_run(case, trace, config, assignment):
    strategies = None
    community = None
    if case == "epidemic":
        protocol = EpidemicForwarding()
    elif case == "delegation_last_contact":
        protocol = DelegationForwarding("last_contact")
    elif case == "prophet":
        protocol = ProphetForwarding()
    elif case == "bubble_rap":
        protocol = BubbleRapForwarding()
        community = assignment
    elif case == "spray_and_wait_8":
        protocol = SprayAndWaitForwarding(8)
    elif case == "epidemic_droppers":
        protocol = EpidemicForwarding()
        strategies = {node: Dropper() for node in DROPPERS}
    else:
        assert case == "epidemic_capacity_2"
        protocol = EpidemicForwarding()
        config = dataclasses.replace(config, buffer_capacity=2)
    return Simulation(
        trace, protocol, config, strategies=strategies, community=community
    ).run()


class TestBaselineDigests:
    @pytest.mark.parametrize("case", sorted(BASELINE_DIGESTS))
    def test_digest_pinned(self, case, mini_synthetic, quick_config):
        results = baseline_run(
            case, mini_synthetic.trace, quick_config,
            mini_synthetic.assignment,
        )
        assert results.relay_attempts > 0
        if case == "epidemic_droppers":
            # The keep_relayed_copy path actually ran.
            assert set(results.deviation_counts) <= set(DROPPERS)
            assert results.deviation_counts
        if case == "epidemic_capacity_2":
            # The make_room path actually evicted.
            assert results.buffer_evictions > 0
        assert results_digest(results) == BASELINE_DIGESTS[case]
