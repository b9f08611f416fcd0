"""Tests for trace parsing and serialization."""

import pytest

from repro.traces import (
    TraceFormatError,
    dump_trace,
    load_trace,
    make_contact,
    parse_trace,
    save_trace,
)
from repro.traces.trace import ContactTrace

SAMPLE = """
# comment line
0 1 10.0 20.0
2 1 30.5 42.0 extra columns ignored
0 2 50 60
"""


class TestParse:
    def test_basic(self):
        trace = parse_trace(SAMPLE, name="sample")
        assert trace.name == "sample"
        assert trace.num_nodes == 3
        assert len(trace) == 3

    def test_normalizes_endpoints(self):
        trace = parse_trace("5 2 0 10\n")
        c = trace.contacts[0]
        assert (c.a, c.b) == (2, 5)

    def test_comments_and_blanks_skipped(self):
        trace = parse_trace("# x\n\n0 1 0 1\n")
        assert len(trace) == 1

    def test_self_contacts_skipped_but_node_kept(self):
        trace = parse_trace("3 3 0 10\n0 1 0 1\n")
        assert 3 in trace.nodes
        assert len(trace) == 1

    def test_min_duration_filter(self):
        trace = parse_trace("0 1 0 5\n0 1 10 100\n", min_duration=6.0)
        assert len(trace) == 1

    def test_too_few_columns(self):
        with pytest.raises(TraceFormatError):
            parse_trace("0 1 5\n")

    def test_non_numeric(self):
        with pytest.raises(TraceFormatError):
            parse_trace("a b c d\n")

    def test_error_reports_line_number(self):
        with pytest.raises(TraceFormatError, match="line 2"):
            parse_trace("0 1 0 1\nbroken\n")


class TestRoundtrip:
    def test_dump_parse_identity(self, line_trace):
        text = dump_trace(line_trace)
        again = parse_trace(text, name=line_trace.name)
        assert again.contacts == line_trace.contacts

    def test_file_roundtrip(self, tmp_path, line_trace):
        path = tmp_path / "trace.txt"
        save_trace(line_trace, path)
        loaded = load_trace(path, name="line")
        assert loaded.contacts == line_trace.contacts
        assert loaded.name == "line"

    def test_name_defaults_to_stem(self, tmp_path, line_trace):
        path = tmp_path / "mytrace.txt"
        save_trace(line_trace, path)
        assert load_trace(path).name == "mytrace"

    def test_universe_header_restores_isolated_nodes(self, tmp_path):
        trace = ContactTrace(
            name="u",
            nodes=(0, 1, 2, 7),
            contacts=(make_contact(0, 1, 0.0, 1.0),),
        )
        path = tmp_path / "u.txt"
        save_trace(trace, path)
        loaded = load_trace(path)
        assert loaded.nodes == (0, 1, 2, 7)
        assert loaded.contacts == trace.contacts

    def test_bad_universe_header(self):
        with pytest.raises(TraceFormatError, match="line 1"):
            parse_trace("# nodes: 0 x\n0 1 0 1\n")
