"""Memory budgets of streamed epidemic and G2G runs (tracemalloc).

Epidemic floods every live copy to every node that has not handled it,
so per-copy and per-node handled-message state is what a streamed run's
memory is made of; G2G adds, per hand-off, the taker's copy and the
proof of relay the giver keeps until Δ2.  The budgets below pin how
small that state stays: ``tracemalloc`` counts Python allocations
exactly, so the peak is the same on every machine and run, unlike RSS.
"""

import pytest

from repro.core import G2GEpidemicForwarding
from repro.perf import measure_peak_alloc
from repro.protocols import (
    BubbleRapForwarding,
    DelegationForwarding,
    EpidemicForwarding,
    ProphetForwarding,
    SprayAndWaitForwarding,
)
from repro.sim import Simulation, SimulationConfig
from repro.sim.messages import Message
from repro.social import CommunityMap
from repro.traces import ContactTrace
from repro.traces.stream import StreamModelConfig, SyntheticStreamSource

#: The benchmark's ``tiny`` stream: a 2k-node universe over two hours,
#: 8 contacts per node, 200 messages; trace seed 0, traffic seed 0.
NODES = 2_000
DURATION = 7_200.0
CONTACTS_PER_NODE = 8.0
MESSAGES = 200

#: Traced peak of one run, in bytes.  Buffering the shared message
#: (no per-copy object) with an id-array relay index peaks at 4.98 MB;
#: one slim copy object per holder with a dict relay index peaked at
#: 7.6 MB, and per-copy relay lists with per-node ``seen`` sets at
#: 15.2 MB.
PEAK_BUDGET = 5_500_000


#: Traced peak of one honest G2G Epidemic run over the same stream
#: with 500 nodes, in bytes.  Slotted messages, records and proofs of
#: relay, no per-copy relay list, a shared empty attachment sequence and
#: no ``taken`` map at honest takers peak at 5,880,292 B; a dict per
#: message, record and proof plus those per-copy lists peaked at
#: 9,018,908 B.
G2G_NODES = 500
G2G_PEAK_BUDGET = 6_500_000


def tiny_stream_run(protocol=None, nodes=NODES):
    source = SyntheticStreamSource(StreamModelConfig(
        nodes=nodes,
        duration=DURATION,
        seed=0,
        contacts_per_node=CONTACTS_PER_NODE,
    ))
    silent_tail = DURATION / 4.0
    config = SimulationConfig(
        run_length=DURATION,
        silent_tail=silent_tail,
        mean_interarrival=(DURATION - silent_tail) / MESSAGES,
        ttl=DURATION / 2.0,
        seed=0,
        track_memory=False,
    )
    return Simulation(
        source, protocol or EpidemicForwarding(), config
    ).run()


class TestStreamedEpidemicBudget:
    def test_traced_peak_within_budget(self):
        results, peak = measure_peak_alloc(tiny_stream_run)
        assert results.delivered > 0
        assert peak < PEAK_BUDGET, (
            f"streamed epidemic peaked at {peak / 1e6:.1f} MB of Python "
            f"allocations, over the {PEAK_BUDGET / 1e6:.0f} MB budget"
        )


class TestStreamedG2GBudget:
    def test_traced_peak_within_budget(self):
        results, peak = measure_peak_alloc(
            lambda: tiny_stream_run(G2GEpidemicForwarding(), G2G_NODES)
        )
        assert results.delivered > 0 and results.relay_attempts > 0
        assert peak < G2G_PEAK_BUDGET, (
            f"streamed G2G Epidemic peaked at {peak / 1e6:.2f} MB of "
            f"Python allocations, over the "
            f"{G2G_PEAK_BUDGET / 1e6:.1f} MB budget"
        )


#: The five baselines, each with the contact that makes node 0 relay
#: the message to node 1 (destination 2): epidemic and spray-and-wait
#: relay on any contact; delegation and PRoPHET once node 1 has met
#: the destination; BubbleRap because node 1 is in its community.
BASELINES = {
    EpidemicForwarding: (),
    DelegationForwarding: ((1, 2),),
    ProphetForwarding: ((1, 2),),
    SprayAndWaitForwarding: (),
    BubbleRapForwarding: (),
}


def harness(protocol):
    trace = ContactTrace(name="m", nodes=(0, 1, 2), contacts=())
    config = SimulationConfig(
        run_length=4000.0, silent_tail=1000.0, mean_interarrival=1e6,
        ttl=2000.0,
    )
    community = CommunityMap.from_communities(
        [frozenset({0}), frozenset({1, 2})], universe=(0, 1, 2)
    )
    ctx = Simulation(
        trace, protocol, config, community=community
    )._build_context()
    protocol.bind(ctx)
    return ctx


def inject(protocol, ctx):
    message = Message(
        msg_id=0, source=0, destination=2, created_at=0.0, ttl=2000.0
    )
    ctx.results.record_generated(message)
    protocol.on_message_generated(message, 0.0)
    return message


class TestSlimBaselineCopies:
    """Baselines buffer the run's shared message: no per-copy object."""

    @pytest.mark.parametrize("make", list(BASELINES))
    def test_source_copy_is_slim(self, make):
        protocol = make()
        ctx = harness(protocol)
        message = inject(protocol, ctx)
        assert ctx.node(0).buffer[0] is message

    def test_relayed_copy_is_slim(self):
        for make, warmup in BASELINES.items():
            protocol = make()
            ctx = harness(protocol)
            message = inject(protocol, ctx)
            for a, b in warmup:
                protocol.on_contact_start(a, b, 5.0)
            protocol.on_contact_start(0, 1, 10.0)
            assert ctx.results.messages[0].replicas == 1, make.__name__
            assert ctx.node(0).buffer[0] is message, make.__name__
            assert ctx.node(1).buffer[0] is message, make.__name__
