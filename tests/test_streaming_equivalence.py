"""Streaming-equivalence tests for the ContactSource engine refactor.

The refactor moved *every* run — goldens included — onto the
:class:`~repro.traces.InMemorySource` path, so its correctness
contract is identity: wrapping an evaluation trace in a source
explicitly must reproduce the standard ``execute_request`` digests
byte for byte, and source-backed requests must stay bit-identical
across worker counts and repeated executions (the streaming generator
draws only from per-chunk seeded RNGs).
"""

import dataclasses
import os

import pytest

from repro.experiments import (
    ExecutionOptions,
    PROTOCOLS,
    RunRequest,
    run_requests,
)
from repro.experiments.parallel import execute_request
from repro.experiments.setting import evaluation_trace
from repro.sim.engine import Simulation
from repro.sim.serialize import results_digest as digest
from repro.traces import InMemorySource, StreamModelConfig, SyntheticStreamSource

_env_workers = os.environ.get("REPRO_TEST_WORKERS")
POOL_WORKERS = int(_env_workers) if _env_workers else 4

QUICK = (
    ("run_length", 1800.0),
    ("silent_tail", 600.0),
    ("mean_interarrival", 60.0),
    ("ttl", 600.0),
    ("heavy_hmac_iterations", 4),
)

#: Source runs carry their full config in overrides (no preset TTL
#: table exists for synthetic universes).
STREAM_OVERRIDES = (
    ("run_length", 1_200.0),
    ("silent_tail", 300.0),
    ("mean_interarrival", 30.0),
    ("ttl", 600.0),
)

STREAM_SPEC = SyntheticStreamSource(
    StreamModelConfig(nodes=300, duration=1_200.0, seed=3, chunk_seconds=300.0)
).spec()


class TestInMemorySourceIsTheIdentityPath:
    # Both evaluation traces: the goldens and determinism digests all
    # run through this wrapper now, so any divergence here would show
    # up as a golden break with no code touching the figures.
    @pytest.mark.parametrize("trace_name", ["cambridge06", "infocom05"])
    def test_explicit_source_matches_standard_run(self, trace_name):
        request = RunRequest(
            trace_name=trace_name,
            family="epidemic",
            protocol_name="g2g_epidemic",
            seed=1,
            overrides=QUICK,
        )
        standard = execute_request(request)
        _, factory = PROTOCOLS["g2g_epidemic"]
        via_source = Simulation(
            InMemorySource(evaluation_trace(trace_name)),
            factory(),
            request.config(),
        ).run()
        assert digest(standard) == digest(via_source)


class TestSourceRequestDeterminism:
    def _request(self, seed: int) -> RunRequest:
        return RunRequest(
            trace_name="stream-300n-s3",
            family="epidemic",
            protocol_name="epidemic",
            seed=seed,
            overrides=STREAM_OVERRIDES,
            source=STREAM_SPEC,
        )

    def test_repeated_execution_identical(self):
        request = self._request(1)
        assert digest(execute_request(request)) == digest(
            execute_request(request)
        )

    def test_workers_pool_matches_sequential(self):
        requests = [self._request(seed) for seed in (1, 2, 3, 4)]
        sequential = run_requests(requests)
        pooled = run_requests(
            requests, ExecutionOptions(workers=POOL_WORKERS)
        )
        assert [digest(r) for r in sequential] == [
            digest(r) for r in pooled
        ]


class TestSourceRequestAdversaries:
    """Source requests plant adversaries exactly as ``api.run`` does."""

    OVERRIDES = STREAM_OVERRIDES + (("heavy_hmac_iterations", 4),)

    def _request(self, seed: int) -> RunRequest:
        return RunRequest(
            trace_name="stream-300n-s3",
            family="epidemic",
            protocol_name="g2g_epidemic",
            seed=seed,
            deviation="dropper",
            deviation_count=30,
            overrides=self.OVERRIDES,
            source=STREAM_SPEC,
        )

    def test_matches_api_run_on_the_same_source(self):
        from repro import api
        from repro.traces.stream import source_from_spec

        request = self._request(1)
        direct = api.run(
            source_from_spec(STREAM_SPEC),
            "g2g_epidemic",
            dict(self.OVERRIDES),
            seed=1,
            adversary="dropper",
            adversary_count=30,
        )
        planted = digest(execute_request(request))
        assert planted == digest(direct)
        honest = dataclasses.replace(request, deviation=None, deviation_count=0)
        assert planted != digest(execute_request(honest))
        misbehaving = request.misbehaving()
        assert len(misbehaving) == 30
        assert all(0 <= node < 300 for node in misbehaving)

    def test_workers_pool_matches_sequential(self):
        requests = [self._request(seed) for seed in (1, 2)]
        sequential = run_requests(requests)
        pooled = run_requests(
            requests, ExecutionOptions(workers=POOL_WORKERS)
        )
        assert [digest(r) for r in sequential] == [
            digest(r) for r in pooled
        ]

    def test_deviation_and_mix_together_still_rejected(self):
        bad = dataclasses.replace(self._request(1), mix=(("liar", 0.1),))
        with pytest.raises(ValueError, match="not both"):
            execute_request(bad)


class TestPinnedStreamDigest:
    #: ``results_to_dict`` sha256 of the ``STREAM_SPEC`` epidemic run
    #: at seed 1.  Pins streamed results across refactors of the node
    #: buffer and the engine: any change to what a streamed run
    #: observes or records moves this value.
    EPIDEMIC_SEED1 = (
        "d814d200a14536bf81b912a19a11bbba58129f2ddfe10908c0ad9b27c23ae8d7"
    )

    def test_epidemic_stream_digest_is_pinned(self):
        from repro.sim.config import SimulationConfig
        from repro.traces.stream import source_from_spec

        _, factory = PROTOCOLS["epidemic"]
        config = SimulationConfig(seed=1, **dict(STREAM_OVERRIDES))
        results = Simulation(
            source_from_spec(STREAM_SPEC), factory(), config
        ).run()
        assert digest(results) == self.EPIDEMIC_SEED1
