"""Tests for the streaming ContactSource layer (repro.traces.stream).

Three properties carry the scale axis: the source contract (a declared
universe plus a time-ordered chunk stream), determinism of the lazy
synthetic generator (same config, same stream — and any chunk
regenerable in isolation), and lossless round-trips through the packed
chunked file format.
"""

import pytest

from repro.perf import COUNTERS
from repro.traces import (
    ChunkedFileSource,
    ContactSource,
    ContactTrace,
    InMemorySource,
    StreamModelConfig,
    SyntheticStreamSource,
    ensure_contact_source,
    iter_chunked_contacts,
    make_contact,
    read_chunked_universe,
    source_from_spec,
    write_chunked_contacts,
)

SMALL = StreamModelConfig(
    nodes=200, duration=1_200.0, seed=7, chunk_seconds=300.0
)


@pytest.fixture
def trace():
    return ContactTrace(
        name="t",
        nodes=(0, 1, 2, 3),
        contacts=(
            make_contact(0, 1, 10.0, 20.0),
            make_contact(1, 2, 15.0, 30.0),
            make_contact(2, 3, 40.0, 55.0),
        ),
    )


class TestInMemorySource:
    def test_wraps_trace_bit_identically(self, trace):
        source = InMemorySource(trace)
        assert source.materialized
        assert source.trace is trace
        assert source.name == "t"
        assert source.universe == trace.nodes
        assert source.num_nodes == 4
        assert list(source.iter_contacts()) == list(trace.contacts)

    def test_spec_is_none(self, trace):
        # Ad-hoc traces cannot be reconstructed from a spec, so they
        # must never be folded into a cache key.
        assert InMemorySource(trace).spec() is None

    def test_iter_contacts_counts_ops(self, trace):
        source = InMemorySource(trace)
        before = COUNTERS.snapshot()
        list(source.iter_contacts())
        ops = COUNTERS.diff(before)
        assert ops["stream_chunks"] == 1
        assert ops["stream_contacts"] == 3


class TestEnsureContactSource:
    def test_passthrough(self, trace):
        source = InMemorySource(trace)
        assert ensure_contact_source(source, "test") is source

    def test_wraps_trace_and_bundle(self, trace):
        assert ensure_contact_source(trace, "test").trace is trace

        class Bundle:
            pass

        bundle = Bundle()
        bundle.trace = trace
        assert ensure_contact_source(bundle, "test").trace is trace

    def test_rejects_junk(self):
        with pytest.raises(TypeError, match="caller-name expected"):
            ensure_contact_source(42, "caller-name")


class TestSyntheticStreamSource:
    def test_universe_is_a_range(self):
        source = SyntheticStreamSource(SMALL)
        assert source.universe == range(200)
        assert source.num_nodes == 200

    def test_stream_is_time_ordered_and_valid(self):
        source = SyntheticStreamSource(SMALL)
        contacts = list(source.iter_contacts())
        assert contacts, "default config must produce contacts"
        starts = [c.start for c in contacts]
        assert starts == sorted(starts)
        for c in contacts:
            assert 0 <= c.a < c.b < 200
            assert c.end > c.start >= 0.0

    def test_same_config_same_stream(self):
        first = list(SyntheticStreamSource(SMALL).iter_contacts())
        second = list(SyntheticStreamSource(SMALL).iter_contacts())
        assert first == second

    def test_seed_changes_stream(self):
        import dataclasses

        other = dataclasses.replace(SMALL, seed=8)
        assert list(SyntheticStreamSource(SMALL).iter_contacts()) != list(
            SyntheticStreamSource(other).iter_contacts()
        )

    def test_chunks_regenerable_out_of_order(self):
        # Each chunk is seeded independently, so reading chunk 2 first
        # must not perturb chunk 0 — the property spill/replay rests on.
        source = SyntheticStreamSource(SMALL)
        in_order = list(source.iter_chunks())
        assert source._chunk(2) == in_order[2]
        assert source._chunk(0) == in_order[0]

    def test_materialize_matches_stream(self):
        source = SyntheticStreamSource(SMALL)
        trace = source.materialize()
        assert trace.nodes == tuple(range(200))
        assert list(trace.contacts) == sorted(source.iter_contacts())

    def test_spec_round_trip(self):
        source = SyntheticStreamSource(SMALL)
        rebuilt = source_from_spec(source.spec())
        assert isinstance(rebuilt, SyntheticStreamSource)
        assert rebuilt.config == SMALL
        assert list(rebuilt.iter_contacts()) == list(source.iter_contacts())

    def test_config_validation(self):
        with pytest.raises(ValueError):
            StreamModelConfig(nodes=1)
        with pytest.raises(ValueError):
            StreamModelConfig(duration=0.0)
        with pytest.raises(ValueError):
            StreamModelConfig(p_leaf=0.9, p_parent=0.2)

    @pytest.mark.parametrize(
        "field,kwargs",
        [
            ("mean_contact_duration", {"mean_contact_duration": 0.0}),
            ("mean_contact_duration", {"mean_contact_duration": -5.0}),
            ("contacts_per_node", {"contacts_per_node": -1.0}),
            ("p_leaf", {"p_leaf": -0.5, "p_parent": 1.0}),
            ("p_parent", {"p_leaf": 1.0, "p_parent": -0.5}),
            ("p_leaf", {"p_leaf": 1.5, "p_parent": 0.0}),
        ],
    )
    def test_bad_model_rejected_at_construction(self, field, kwargs):
        # Each used to fail late (a ZeroDivisionError or an unrelated
        # Contact error inside the chunk generator) or not at all (a
        # negative rate silently streamed nothing).
        with pytest.raises(ValueError, match=field):
            StreamModelConfig(**kwargs)

    def test_zero_contacts_per_node_streams_nothing(self):
        source = SyntheticStreamSource(StreamModelConfig(
            nodes=100, duration=600.0, contacts_per_node=0.0
        ))
        assert list(source.iter_contacts()) == []


class TestChunkedFileFormat:
    def test_round_trip_preserves_chunks(self, tmp_path, trace):
        path = str(tmp_path / "t.g2gc")
        chunks = [list(trace.contacts[:2]), [], list(trace.contacts[2:])]
        written = write_chunked_contacts(path, trace.nodes, chunks)
        assert written == 3
        assert read_chunked_universe(path) == list(trace.nodes)
        # Empty chunks are skipped on write; the others come back with
        # their boundaries intact.
        assert [len(c) for c in iter_chunked_contacts(path)] == [2, 1]
        flat = [c for chunk in iter_chunked_contacts(path) for c in chunk]
        assert flat == list(trace.contacts)

    def test_range_universe_round_trips_compactly(self, tmp_path):
        path = str(tmp_path / "r.g2gc")
        write_chunked_contacts(path, range(1_000_000), [])
        universe = read_chunked_universe(path)
        assert universe == range(1_000_000)

    def test_file_source(self, tmp_path):
        source = SyntheticStreamSource(SMALL)
        path = str(tmp_path / "stream.g2gc")
        write_chunked_contacts(path, source.universe, source.iter_chunks())
        replay = ChunkedFileSource(path)
        assert isinstance(replay, ContactSource)
        assert replay.name == "stream"
        assert replay.universe == range(200)
        assert replay.spec() is None
        assert list(replay.iter_contacts()) == list(source.iter_contacts())
