"""Reading and writing contact traces in a CRAWDAD-like text format.

The real evaluation traces (CRAWDAD ``cambridge/haggle/imote/infocom``
and ``upmc/content/imote/cambridge``) are distributed as whitespace-
separated contact tables.  We read the common layout::

    <node_a> <node_b> <start_seconds> <end_seconds> [ignored columns...]

Lines starting with ``#`` (or blank) are skipped, except the
``# nodes:`` header that :func:`dump_trace` writes: its ids join the
node universe, so nodes without contacts survive a round-trip.
Writing emits the same four columns, so traces round-trip exactly.
When the genuine CRAWDAD files are available they load through
:func:`load_trace` unchanged; the shipped experiments use the
synthetic stand-ins from :mod:`repro.traces.synthetic` (see DESIGN.md
§3).
"""

from __future__ import annotations

import io as _io
import struct
from pathlib import Path
from typing import Iterable, Iterator, List, Sequence, Union

from .trace import Contact, ContactTrace, make_contact

PathLike = Union[str, Path]


#: The header comment listing the node universe (see :func:`dump_trace`).
_NODES_HEADER = "# nodes:"


class TraceFormatError(Exception):
    """Raised when a trace file cannot be parsed."""


def parse_trace(
    text: str, name: str = "trace", min_duration: float = 0.0
) -> ContactTrace:
    """Parse a contact table from a string.

    Args:
        text: the file contents.
        name: label for the resulting trace.
        min_duration: drop contacts shorter than this many seconds
            (some raw traces contain zero-length artifacts).

    Raises:
        TraceFormatError: on a malformed row or node header.
    """
    contacts: List[Contact] = []
    nodes: set = set()
    for lineno, raw in enumerate(_io.StringIO(text), start=1):
        line = raw.strip()
        if line.startswith(_NODES_HEADER):
            try:
                nodes.update(int(n) for n in line[len(_NODES_HEADER) :].split())
            except ValueError as err:
                raise TraceFormatError(f"line {lineno}: {err}") from err
            continue
        if not line or line.startswith("#"):
            continue
        fields = line.split()
        if len(fields) < 4:
            raise TraceFormatError(
                f"line {lineno}: expected >= 4 columns, got {len(fields)}"
            )
        try:
            a, b = int(fields[0]), int(fields[1])
            start, end = float(fields[2]), float(fields[3])
        except ValueError as err:
            raise TraceFormatError(f"line {lineno}: {err}") from err
        nodes.add(a)
        nodes.add(b)
        if a == b:
            # Some raw logs contain self-sightings; skip but keep node.
            continue
        if end - start <= min_duration:
            continue
        contacts.append(make_contact(a, b, start, end))
    return ContactTrace(name=name, nodes=tuple(nodes), contacts=tuple(contacts))


def load_trace(
    path: PathLike, name: str | None = None, min_duration: float = 0.0
) -> ContactTrace:
    """Load a trace from a file; the name defaults to the file stem."""
    path = Path(path)
    label = name if name is not None else path.stem
    return parse_trace(
        path.read_text(), name=label, min_duration=min_duration
    )


def dump_trace(trace: ContactTrace) -> str:
    """Serialize a trace to the four-column text format.

    Nodes without contacts are recorded in a header comment so the node
    universe survives a round-trip.
    """
    lines = [
        f"# trace: {trace.name}",
        f"{_NODES_HEADER} {' '.join(str(n) for n in trace.nodes)}",
        "# a b start end",
    ]
    for contact in trace.contacts:
        # repr() round-trips floats exactly, so load(dump(trace))
        # reproduces the contacts bit-for-bit.
        lines.append(
            f"{contact.a} {contact.b} {contact.start!r} {contact.end!r}"
        )
    return "\n".join(lines) + "\n"


def save_trace(trace: ContactTrace, path: PathLike) -> None:
    """Write a trace to disk in the text format."""
    Path(path).write_text(dump_trace(trace))


# ---------------------------------------------------------------------------
# Chunked binary spill format (streaming sources)
# ---------------------------------------------------------------------------
#
# The text format above is fine for 41-node traces; a 100k-node stream
# needs something a file-backed source can replay chunk by chunk
# without parsing floats.  Layout (all little-endian):
#
#   header:  magic b"G2GC" | u16 version | u8 universe_kind
#            kind 0 (dense range):  i64 start | i64 stop
#            kind 1 (explicit ids): u32 count | count * i64
#   chunks:  u32 record_count | record_count * <ddqq>  (start, end, a, b)
#            ... repeated until EOF
#
# Chunks preserve the writer's chunking, so a replayed stream has the
# same chunk boundaries (and stream_chunks counter values) it was
# written with.

CHUNK_MAGIC = b"G2GC"
CHUNK_VERSION = 1
_RECORD = struct.Struct("<ddqq")
_HEADER = struct.Struct("<4sHB")
_U32 = struct.Struct("<I")
_I64 = struct.Struct("<q")


def _read_exact(handle: _io.BufferedReader, size: int, what: str) -> bytes:
    data = handle.read(size)
    if len(data) != size:
        raise TraceFormatError(f"truncated chunked trace: short {what}")
    return data


def _write_universe(handle: _io.BufferedWriter, universe: Sequence[int]) -> None:
    if isinstance(universe, range) and universe.step == 1:
        handle.write(_HEADER.pack(CHUNK_MAGIC, CHUNK_VERSION, 0))
        handle.write(_I64.pack(universe.start))
        handle.write(_I64.pack(universe.stop))
        return
    nodes = list(universe)
    handle.write(_HEADER.pack(CHUNK_MAGIC, CHUNK_VERSION, 1))
    handle.write(_U32.pack(len(nodes)))
    for node in nodes:
        handle.write(_I64.pack(node))


def _read_universe(handle: _io.BufferedReader) -> Sequence[int]:
    magic, version, kind = _HEADER.unpack(
        _read_exact(handle, _HEADER.size, "header")
    )
    if magic != CHUNK_MAGIC:
        raise TraceFormatError("not a chunked trace (bad magic)")
    if version != CHUNK_VERSION:
        raise TraceFormatError(f"unsupported chunked trace version {version}")
    if kind == 0:
        (start,) = _I64.unpack(_read_exact(handle, _I64.size, "universe"))
        (stop,) = _I64.unpack(_read_exact(handle, _I64.size, "universe"))
        return range(start, stop)
    if kind == 1:
        (count,) = _U32.unpack(_read_exact(handle, _U32.size, "universe"))
        return [
            _I64.unpack(_read_exact(handle, _I64.size, "universe"))[0]
            for _ in range(count)
        ]
    raise TraceFormatError(f"unknown universe kind {kind}")


def write_chunked_contacts(
    path: PathLike,
    universe: Sequence[int],
    chunks: Iterable[Sequence[Contact]],
) -> int:
    """Write a chunked stream to disk; returns total contacts written."""
    total = 0
    with open(Path(path), "wb") as handle:
        _write_universe(handle, universe)
        for chunk in chunks:
            if not chunk:
                continue
            handle.write(_U32.pack(len(chunk)))
            for contact in chunk:
                handle.write(
                    _RECORD.pack(contact.start, contact.end, contact.a, contact.b)
                )
            total += len(chunk)
    return total


def read_chunked_universe(path: PathLike) -> Sequence[int]:
    """Read only the node universe from a chunked trace file."""
    with open(Path(path), "rb") as handle:
        return _read_universe(handle)


def iter_chunked_contacts(path: PathLike) -> Iterator[List[Contact]]:
    """Replay the chunks of a chunked trace file, one list at a time."""
    with open(Path(path), "rb") as handle:
        _read_universe(handle)
        while True:
            header = handle.read(_U32.size)
            if not header:
                return
            if len(header) != _U32.size:
                raise TraceFormatError("truncated chunked trace: short count")
            (count,) = _U32.unpack(header)
            payload = _read_exact(
                handle, count * _RECORD.size, f"chunk of {count} records"
            )
            chunk: List[Contact] = []
            for offset in range(0, len(payload), _RECORD.size):
                start, end, a, b = _RECORD.unpack_from(payload, offset)
                chunk.append(Contact(start=start, end=end, a=a, b=b))
            yield chunk
