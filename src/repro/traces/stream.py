"""Streaming contact sources: the engine's single ingestion choke point.

The paper's traces (36–41 nodes) fit comfortably in memory as a
:class:`~repro.traces.trace.ContactTrace`, but the ROADMAP's scale axis
— 10k to 1M nodes — does not: a million-node day of contacts is tens of
gigabytes of `Contact` objects.  This module abstracts *where contacts
come from* behind :class:`ContactSource`, a time-ordered chunked
iterator with a declared node universe:

* :class:`InMemorySource` wraps an existing ``ContactTrace`` — the
  bit-identical compatibility path every golden and determinism digest
  runs through.
* :class:`SyntheticStreamSource` extends the community-structured
  generator to mega-scale: hierarchical communities (leaf groups nested
  in parent districts by plain id arithmetic) and power-law per-node
  contact rates, generated lazily chunk by chunk from per-chunk seeded
  RNG streams.  Memory is O(chunk), never O(trace).
* :class:`ChunkedFileSource` replays the packed binary spill format
  written by :func:`repro.traces.io.write_chunked_contacts`.

The engine (``sim.engine``) pulls contacts through
:meth:`ContactSource.iter_contacts` into the event heap via the
feeder attached with ``EventQueue.attach_contacts`` — no caller
outside ``repro.traces`` materializes ``.contacts`` anymore (lint
rule G2G013 fences this).
"""

from __future__ import annotations

import math
import random
from dataclasses import asdict, dataclass
from typing import Iterator, List, Optional, Sequence, Tuple, Union

from ..perf.counters import COUNTERS
from .trace import Contact, ContactTrace, NodeId

#: A cache-key-friendly description of a source: sorted (field, value)
#: pairs, hashable and JSON-serializable.  ``None`` marks a source that
#: cannot be reconstructed from a spec (ad-hoc traces, open files).
SourceSpec = Tuple[Tuple[str, Union[int, float, str]], ...]


class ContactSource:
    """Abstract time-ordered contact stream with a declared universe.

    Contract:

    * :attr:`universe` enumerates every node id that may appear, as a
      cheap sequence (``range`` for synthetic universes — membership
      and ``len`` are O(1) without materializing a million-entry set).
    * :meth:`iter_chunks` yields lists of contacts; concatenated they
      are non-decreasing in ``start`` time.
    * :attr:`trace` is the backing :class:`ContactTrace` when the
      source is materialized (``materialized`` True), else ``None`` —
      the engine uses this to keep the eager, bit-identical node-table
      path for paper-scale runs.
    """

    name: str = "source"
    materialized: bool = False

    @property
    def trace(self) -> Optional[ContactTrace]:
        """Backing in-memory trace, when one exists."""
        return None

    @property
    def universe(self) -> Sequence[NodeId]:
        """Every node id that may appear in the stream."""
        raise NotImplementedError

    @property
    def num_nodes(self) -> int:
        """Size of the node universe."""
        return len(self.universe)

    def iter_chunks(self) -> Iterator[List[Contact]]:
        """Yield chunks of contacts, time-ordered across chunks."""
        raise NotImplementedError

    def iter_contacts(self) -> Iterator[Contact]:
        """Flatten :meth:`iter_chunks` into one contact stream."""
        for chunk in self.iter_chunks():
            COUNTERS.stream_chunks += 1
            COUNTERS.stream_contacts += len(chunk)
            yield from chunk

    def spec(self) -> Optional[SourceSpec]:
        """Cache-key spec reconstructing this source, or ``None``."""
        return None


class InMemorySource(ContactSource):
    """A :class:`ContactTrace` exposed through the source interface.

    The compatibility path: the engine consumes the same sorted
    contact tuple in the same order as the old bulk load, so every
    golden, digest, and perf budget is bit-identical.
    """

    materialized = True

    def __init__(self, trace: ContactTrace) -> None:
        self._trace = trace
        self.name = trace.name

    @property
    def trace(self) -> ContactTrace:
        return self._trace

    @property
    def universe(self) -> Sequence[NodeId]:
        return self._trace.nodes

    @property
    def num_nodes(self) -> int:
        return self._trace.num_nodes

    def iter_chunks(self) -> Iterator[List[Contact]]:
        yield list(self._trace.contacts)


@dataclass(frozen=True)
class StreamModelConfig:
    """Parameters of the mega-scale synthetic contact stream.

    The model scales the community-structured generator
    (:mod:`repro.traces.synthetic`) along the node axis:

    * **Hierarchical communities** by id arithmetic: node ``i`` belongs
      to leaf community ``i // leaf_size``; ``branching`` leaves form a
      parent district.  A contact initiator picks its partner from its
      leaf with probability ``p_leaf``, from its district with
      ``p_parent``, else uniformly from the whole universe.
    * **Power-law contact rates**: initiators are drawn with density
      ∝ 1/(rank+1) (Zipf-like), so a small core of hubs originates a
      disproportionate share of contacts — matching the heavy-tailed
      degree distributions of the CRAWDAD traces (DESIGN.md §3).
    * **Lazy seeded chunks**: chunk *i* covering
      ``[i*chunk_seconds, (i+1)*chunk_seconds)`` is generated entirely
      from ``Random(f"{seed}|g2g-stream|{i}")`` — any chunk can be
      regenerated independently, and memory stays O(chunk).

    ``contacts_per_node`` is the expected number of contacts each node
    *participates in* over the full duration (each contact counts for
    both endpoints), so total contacts ≈ ``nodes*contacts_per_node/2``.
    """

    nodes: int = 10_000
    duration: float = 43_200.0  # half a day of trace time
    seed: int = 0
    contacts_per_node: float = 4.0
    mean_contact_duration: float = 120.0
    leaf_size: int = 50
    branching: int = 10
    p_leaf: float = 0.6
    p_parent: float = 0.25
    chunk_seconds: float = 3_600.0

    def __post_init__(self) -> None:
        if self.nodes < 2:
            raise ValueError("stream model needs at least 2 nodes")
        if self.duration <= 0 or self.chunk_seconds <= 0:
            raise ValueError("duration and chunk_seconds must be positive")
        if self.contacts_per_node < 0:
            raise ValueError(
                f"contacts_per_node must be >= 0, got {self.contacts_per_node}"
            )
        if self.mean_contact_duration <= 0:
            raise ValueError(
                f"mean_contact_duration must be positive, "
                f"got {self.mean_contact_duration}"
            )
        if self.leaf_size < 2 or self.branching < 1:
            raise ValueError("leaf_size must be >= 2 and branching >= 1")
        for name in ("p_leaf", "p_parent"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1], got {value}")
        if self.p_leaf + self.p_parent > 1.0:
            raise ValueError("p_leaf + p_parent must lie in [0, 1]")


def _poisson(rng: random.Random, lam: float) -> int:
    """Seeded Poisson draw: Knuth for small λ, normal approx above."""
    if lam <= 0.0:
        return 0
    if lam > 64.0:
        draw = rng.normalvariate(lam, math.sqrt(lam))
        return max(0, int(round(draw)))
    threshold = math.exp(-lam)
    count = 0
    product = rng.random()
    while product > threshold:
        count += 1
        product *= rng.random()
    return count


class SyntheticStreamSource(ContactSource):
    """Lazily generated mega-scale community contact stream."""

    def __init__(self, config: StreamModelConfig) -> None:
        self.config = config
        self.name = f"stream-{config.nodes}n-s{config.seed}"

    @property
    def universe(self) -> Sequence[NodeId]:
        return range(self.config.nodes)

    @property
    def num_nodes(self) -> int:
        return self.config.nodes

    def spec(self) -> SourceSpec:
        fields = asdict(self.config)
        return tuple(sorted(fields.items()))

    def _initiator(self, rng: random.Random) -> NodeId:
        # Inverse-CDF of density ∝ 1/(rank+1): rank = n**u - 1 for
        # uniform u, clipped into [0, n).  Node ids double as ranks, so
        # low ids are the hubs.
        n = self.config.nodes
        rank = int(n ** rng.random()) - 1
        if rank < 0:
            rank = 0
        elif rank >= n:
            rank = n - 1
        return rank

    def _partner(self, rng: random.Random, a: NodeId) -> NodeId:
        cfg = self.config
        n = cfg.nodes
        roll = rng.random()
        lo, hi = 0, n
        if roll < cfg.p_leaf:
            lo = (a // cfg.leaf_size) * cfg.leaf_size
            hi = min(n, lo + cfg.leaf_size)
        elif roll < cfg.p_leaf + cfg.p_parent:
            span = cfg.leaf_size * cfg.branching
            lo = (a // span) * span
            hi = min(n, lo + span)
        if hi - lo < 2:  # degenerate tail community: fall back to global
            lo, hi = 0, n
        partner = rng.randrange(lo, hi)
        while partner == a:
            partner = rng.randrange(lo, hi)
        return partner

    def _chunk(self, index: int) -> List[Contact]:
        cfg = self.config
        rng = random.Random(f"{cfg.seed}|g2g-stream|{index}")
        t0 = index * cfg.chunk_seconds
        t1 = min(cfg.duration, t0 + cfg.chunk_seconds)
        if t1 <= t0:
            return []
        total_contacts = cfg.nodes * cfg.contacts_per_node / 2.0
        lam = total_contacts * (t1 - t0) / cfg.duration
        count = _poisson(rng, lam)
        starts = sorted(rng.random() for _ in range(count))
        rate = 1.0 / cfg.mean_contact_duration
        contacts: List[Contact] = []
        span = t1 - t0
        for u in starts:
            start = t0 + u * span
            a = self._initiator(rng)
            b = self._partner(rng, a)
            duration = rng.expovariate(rate) + 1.0  # strictly positive
            if a > b:
                a, b = b, a
            contacts.append(Contact(start, start + duration, a, b))
        return contacts

    def iter_chunks(self) -> Iterator[List[Contact]]:
        cfg = self.config
        num_chunks = max(1, math.ceil(cfg.duration / cfg.chunk_seconds))
        for index in range(num_chunks):
            yield self._chunk(index)

    def materialize(self) -> ContactTrace:
        """Collect the full stream into a trace (small configs only)."""
        contacts: List[Contact] = []
        for chunk in self.iter_chunks():
            contacts.extend(chunk)
        return ContactTrace(
            name=self.name,
            nodes=tuple(range(self.config.nodes)),
            contacts=tuple(contacts),
        )


class ChunkedFileSource(ContactSource):
    """Replay of the packed chunked format under ``traces/io``."""

    def __init__(self, path: str, name: Optional[str] = None) -> None:
        from .io import read_chunked_universe

        self.path = path
        self.name = name if name is not None else _stem(path)
        self._universe = read_chunked_universe(path)

    @property
    def universe(self) -> Sequence[NodeId]:
        return self._universe

    def spec(self) -> None:
        # File contents are not captured by a (path, mtime) pair in any
        # way the run cache could trust, so file-backed runs are
        # uncached — same policy as ad-hoc in-memory traces.
        return None

    def iter_chunks(self) -> Iterator[List[Contact]]:
        from .io import iter_chunked_contacts

        return iter_chunked_contacts(self.path)


def _stem(path: str) -> str:
    base = path.replace("\\", "/").rsplit("/", 1)[-1]
    return base.rsplit(".", 1)[0] if "." in base else base


def source_from_spec(spec: SourceSpec) -> ContactSource:
    """Rebuild a source from its :meth:`ContactSource.spec` pairs."""
    fields = dict(spec)
    config = StreamModelConfig(**fields)  # type: ignore[arg-type]
    return SyntheticStreamSource(config)


def ensure_contact_source(source: object, caller: str) -> ContactSource:
    """Coerce ``source`` into a :class:`ContactSource`.

    Accepts a source, a :class:`ContactTrace` (wrapped in
    :class:`InMemorySource`), or a synthetic-trace bundle exposing
    ``.trace``.  Mirrors :func:`repro.traces.trace.ensure_contact_trace`
    so call sites fail with actionable messages instead of duck-typing
    surprises deep in the run loop.
    """
    if isinstance(source, ContactSource):
        return source
    if isinstance(source, ContactTrace):
        return InMemorySource(source)
    bundled = getattr(source, "trace", None)
    if isinstance(bundled, ContactTrace):
        return InMemorySource(bundled)
    raise TypeError(
        f"{caller} expected a ContactSource or ContactTrace, "
        f"got {type(source).__name__}"
    )
