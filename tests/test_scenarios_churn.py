"""Churn regression suite: clean departures, fresh rejoins, determinism.

A departing node must drop its buffered relays without leaving the
TTL-expiry index or the scheduler holding stale state, a rejoining
node must come back with a fresh buffer (and its ``seen`` memory
intact), and a full cambridge06 run under a nontrivial churn schedule
must stay bit-identical across executions.
"""

import pytest

from repro.sim import ChurnEvent, Simulation, SimulationResults
from repro.sim.engine import CHURN_TIMER_TAG
from repro.sim.events import EventQueue, Scheduler
from repro.sim.messages import Message, StoredCopy
from repro.sim.node import NodeState
from repro.experiments.parallel import (
    RunRequest,
    execute_request,
    expand_population,
)
from repro.scenarios import churn_events_for
from tests.test_determinism_seeds import QUICK, results_digest

#: Two leave waves, one of which returns — enough to exercise both
#: transition kinds and the disjoint-cohort sampling.
CHURN = ((0.2, 600.0, 1200.0), (0.1, 900.0, None))


def _stored(msg_id: int, now: float = 0.0, ttl: float = 600.0) -> StoredCopy:
    message = Message(
        msg_id=msg_id, source=98, destination=99,
        created_at=now, ttl=ttl, size_bytes=64,
    )
    return StoredCopy(message=message)


class TestChurnEvents:
    def test_actions_validated(self):
        with pytest.raises(ValueError):
            ChurnEvent(10.0, 1, "nap")

    def test_unknown_churn_node_rejected(self):
        from repro.experiments.setting import evaluation_trace
        from repro.protocols.epidemic import EpidemicForwarding
        from repro.sim.config import config_for

        trace = evaluation_trace("cambridge06")
        with pytest.raises(ValueError):
            Simulation(
                trace,
                EpidemicForwarding(),
                config_for("cambridge06", "epidemic"),
                churn=[ChurnEvent(10.0, 10_000, "leave")],
            )

    def test_expansion_deterministic_and_disjoint(self):
        nodes = tuple(range(30))
        first = churn_events_for(nodes, CHURN, seed=5)
        second = churn_events_for(nodes, CHURN, seed=5)
        assert first == second
        leavers = [e.node for e in first if e.action == "leave"]
        assert len(leavers) == len(set(leavers))  # cohorts are disjoint
        # 20% + 10% of 30 nodes: 6 + 3 leavers, 6 rejoins.
        assert len(leavers) == 9
        assert sum(1 for e in first if e.action == "join") == 6

    def test_expansion_varies_with_seed(self):
        nodes = tuple(range(30))
        one = churn_events_for(nodes, CHURN, seed=1)
        other = churn_events_for(nodes, CHURN, seed=2)
        assert one != other

    @pytest.mark.parametrize(
        "cohort, fix",
        [
            ((1.5, 600.0, 1200.0), r"fraction must lie in \[0, 1\]"),
            ((0.2, -5.0, None), "leave time must be non-negative"),
            ((0.2, 600.0, 600.0), "rejoin time must come after the leave"),
        ],
        ids=["fraction-above-one", "negative-leave", "rejoin-not-after-leave"],
    )
    def test_bad_cohort_rejected_outside_scenario_spec(self, cohort, fix):
        """Every path that expands churn validates its cohorts."""
        with pytest.raises(ValueError, match=fix):
            churn_events_for(range(10), [cohort], seed=1)
        with pytest.raises(ValueError, match=fix):
            expand_population(range(10), 1, churn=[cohort])


class TestDepartRejoin:
    def test_depart_drops_buffer_and_ttl_state(self):
        results = SimulationResults()
        scheduler = Scheduler(EventQueue(), horizon=3600.0)
        node = NodeState(node_id=1)
        node.store(_stored(1), 0.0, results)
        node.store(_stored(2), 0.0, results)

        def offered(now):
            return [c.msg_id for c in node.relay_candidates(now, bytearray())]

        assert offered(0.0) == [1, 2]
        node.depart(100.0, results)
        assert node.departed and not node.participating
        assert node.buffer == {}
        # The relay index and its TTL-expiry sidecar (the sorted array
        # that replaced the per-copy scheduler timers) clear with the
        # buffer: nothing is offered and nothing is left to purge.
        assert offered(100.0) == []
        assert node.purge_expired(700.0, results) == []
        # The node registers nothing on the scheduler, so a later
        # drain has nothing to corrupt.
        scheduler.dispatch_until(1200.0)
        assert node.buffer == {} and offered(1200.0) == []
        # A fresh store after rejoining is the only candidate, and
        # expires on its own TTL.
        node.rejoin(1300.0)
        node.store(_stored(2, now=1300.0), 1300.0, results)
        assert offered(1300.0) == [2]
        assert offered(1900.0) == []
        assert node.purge_expired(1900.0, results) == [2]

    def test_depart_is_idempotent_and_keeps_seen(self):
        results = SimulationResults()
        node = NodeState(node_id=1)
        node.store(_stored(7), 0.0, results)
        node.depart(10.0, results)
        node.depart(20.0, results)
        assert node.departed
        assert node.has_seen(7)  # memory of handled messages survives

    def test_rejoin_restores_participation_with_fresh_buffer(self):
        results = SimulationResults()
        node = NodeState(node_id=1)
        node.store(_stored(3), 0.0, results)
        node.depart(10.0, results)
        node.rejoin(50.0)
        assert node.participating and not node.departed
        assert node.buffer == {}  # fresh buffer, nothing resurrected
        assert node.has_seen(3)

    def test_engine_applies_churn_timers(self):
        from repro.experiments.setting import evaluation_trace
        from repro.protocols.epidemic import EpidemicForwarding
        from repro.sim.config import config_for

        trace = evaluation_trace("cambridge06")
        victim = trace.nodes[0]
        config = config_for("cambridge06", "epidemic", **dict(QUICK))
        sim = Simulation(
            trace,
            EpidemicForwarding(),
            config,
            churn=[
                ChurnEvent(300.0, victim, "leave"),
                ChurnEvent(900.0, victim, "join"),
            ],
        )
        sim.run()  # must complete; stale timer state would blow up here
        assert CHURN_TIMER_TAG == "sim.churn"


class TestChurnRunDeterminism:
    def _request(self, seed: int = 1) -> RunRequest:
        return RunRequest(
            trace_name="cambridge06",
            family="epidemic",
            protocol_name="g2g_epidemic",
            seed=seed,
            overrides=QUICK,
            mix=(("dropper", 0.2),),
            churn=CHURN,
        )

    def test_double_run_digest_equality(self):
        request = self._request()
        assert results_digest(execute_request(request)) == results_digest(
            execute_request(request)
        )

    def test_churn_changes_the_run(self):
        churned = results_digest(execute_request(self._request()))
        calm = results_digest(
            execute_request(
                RunRequest(
                    trace_name="cambridge06",
                    family="epidemic",
                    protocol_name="g2g_epidemic",
                    seed=1,
                    overrides=QUICK,
                    mix=(("dropper", 0.2),),
                )
            )
        )
        assert churned != calm

    def test_churn_requests_have_distinct_cache_keys(self):
        assert self._request().cache_key() != RunRequest(
            trace_name="cambridge06",
            family="epidemic",
            protocol_name="g2g_epidemic",
            seed=1,
            overrides=QUICK,
            mix=(("dropper", 0.2),),
        ).cache_key()
