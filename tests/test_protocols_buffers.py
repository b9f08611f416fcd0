"""Tests for finite-buffer behavior (the paper assumes infinite)."""

import pytest

from repro.core import G2GEpidemicForwarding
from repro.protocols import EpidemicForwarding
from repro.protocols.base import make_room
from repro.sim import Simulation, SimulationConfig
from repro.sim.messages import Message, StoredCopy
from repro.sim.node import NodeState
from repro.sim.results import SimulationResults
from repro.traces import ContactTrace


def msg(i, source=0, created=0.0):
    return Message(
        msg_id=i, source=source, destination=9, created_at=created,
        ttl=600.0 + i,  # staggered expiry for deterministic victims
    )


class FakeCtx:
    def __init__(self, capacity):
        from repro.sim.eventlog import EventLog

        self.config = SimulationConfig(buffer_capacity=capacity)
        self.results = SimulationResults()
        self.events = EventLog(enabled=False)


class TestMakeRoom:
    def test_no_capacity_no_eviction(self):
        ctx = FakeCtx(None)
        node = NodeState(node_id=1)
        for i in range(5):
            node.store(StoredCopy(message=msg(i)), 0.0,
                       ctx.results)
        make_room(ctx, node, 1.0)
        assert len(node.buffer) == 5
        assert ctx.results.buffer_evictions == 0

    def test_evicts_earliest_expiring(self):
        ctx = FakeCtx(3)
        node = NodeState(node_id=1)
        for i in range(3):
            node.store(StoredCopy(message=msg(i)), 0.0,
                       ctx.results)
        make_room(ctx, node, 1.0)
        # msg 0 expires first -> evicted
        assert not node.has_copy(0)
        assert node.has_copy(1) and node.has_copy(2)
        assert ctx.results.buffer_evictions == 1

    def test_own_messages_evicted_first(self):
        ctx = FakeCtx(3)
        node = NodeState(node_id=1)
        # Relayed copies expire earlier than the node's own message,
        # but the own message is risk-free so it must go first.
        node.store(StoredCopy(message=msg(0, source=0)),
                   0.0, ctx.results)
        node.store(StoredCopy(message=msg(1, source=0)),
                   0.0, ctx.results)
        node.store(StoredCopy(message=msg(5, source=1)),
                   0.0, ctx.results)
        make_room(ctx, node, 1.0)
        assert not node.has_copy(5)  # own-sourced victim
        assert node.has_copy(0) and node.has_copy(1)

    def test_proofs_only_records_do_not_count(self):
        ctx = FakeCtx(2)
        node = NodeState(node_id=1)
        for i in range(3):
            node.store(StoredCopy(message=msg(i)), 0.0,
                       ctx.results)
        node.drop_body(0, 0.5, ctx.results)
        node.drop_body(1, 0.5, ctx.results)
        make_room(ctx, node, 1.0)
        # only one body (msg 2) is buffered: under capacity 2, evict
        # nothing... capacity check is >=, so one body < 2 keeps all.
        assert node.has_copy(2)
        assert ctx.results.buffer_evictions == 0


class TestFullRuns:
    def small_trace(self, mini):
        return mini.trace

    def test_capacity_reduces_delivery(self, mini_synthetic):
        trace = mini_synthetic.trace
        base = dict(
            run_length=2 * 3600.0, silent_tail=1800.0,
            mean_interarrival=20.0, ttl=1200.0, seed=4,
        )
        unbounded = Simulation(
            trace, EpidemicForwarding(), SimulationConfig(**base)
        ).run()
        tiny = Simulation(
            trace, EpidemicForwarding(),
            SimulationConfig(buffer_capacity=3, **base),
        ).run()
        assert tiny.success_rate < unbounded.success_rate
        assert tiny.buffer_evictions > 0

    def test_memory_pressure_can_convict_honest_g2g_nodes(
        self, mini_synthetic
    ):
        trace = mini_synthetic.trace
        config = SimulationConfig(
            run_length=2 * 3600.0, silent_tail=1800.0,
            mean_interarrival=15.0, ttl=1200.0, seed=4,
            heavy_hmac_iterations=2, buffer_capacity=2,
        )
        results = Simulation(trace, G2GEpidemicForwarding(), config).run()
        # All nodes are honest; any conviction is a memory-pressure
        # false positive — the documented failure mode.
        assert results.buffer_evictions > 0
        # (no assertion that convictions MUST happen on this small
        # trace; the ablation benchmark demonstrates it at scale)

    def test_unbounded_never_convicts_honest(self, mini_synthetic):
        trace = mini_synthetic.trace
        config = SimulationConfig(
            run_length=2 * 3600.0, silent_tail=1800.0,
            mean_interarrival=15.0, ttl=1200.0, seed=4,
            heavy_hmac_iterations=2,
        )
        results = Simulation(trace, G2GEpidemicForwarding(), config).run()
        assert results.detections == []
        assert results.buffer_evictions == 0
