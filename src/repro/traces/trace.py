"""Contact trace data model.

A Pocket Switched Network evaluation is driven by a *contact trace*: a
list of intervals during which two devices were within radio range.
The paper evaluates on two CRAWDAD iMote traces (Infocom 05 and
Cambridge 06, Sec. V-B); this module provides the neutral in-memory
representation shared by the trace loaders, the synthetic generators,
the social-graph layer, and the simulator.

Times are seconds from the start of the experiment (floats).  Contacts
are undirected: ``Contact(a, b, ...)`` and ``Contact(b, a, ...)``
describe the same physical encounter, and the constructor normalizes
the endpoint order so deduplication and hashing behave.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, Iterator, List, Sequence, Tuple

NodeId = int


@dataclass(frozen=True, order=True, slots=True, init=False)
class Contact:
    """One radio contact between two nodes.

    Slotted, with a hand-written ``__init__``: a streamed trace builds
    one instance per contact, so construction validates and fills the
    four slots through their member descriptors instead of paying the
    frozen dataclass ``__init__`` (one ``object.__setattr__`` per
    field).  Equality, ordering, hashing, immutability and pickling
    are the dataclass-generated ones.

    Attributes:
        start: time the devices came into range (seconds).
        end: time the devices left range; must be > start.
        a: lower-numbered endpoint (normalized by :func:`make_contact`).
        b: higher-numbered endpoint.
    """

    start: float
    end: float
    a: NodeId
    b: NodeId

    def __init__(self, start: float, end: float, a: NodeId, b: NodeId) -> None:
        if a == b:
            raise ValueError(f"self-contact for node {a}")
        if end <= start:
            raise ValueError(
                f"contact must have positive duration "
                f"(start={start}, end={end})"
            )
        _set_start(self, start)
        _set_end(self, end)
        _set_a(self, a)
        _set_b(self, b)

    @property
    def duration(self) -> float:
        """Length of the contact in seconds."""
        return self.end - self.start

    @property
    def pair(self) -> FrozenSet[NodeId]:
        """The unordered endpoint pair."""
        return frozenset((self.a, self.b))

    def involves(self, node: NodeId) -> bool:
        """True if ``node`` is one of the endpoints."""
        return node == self.a or node == self.b

    def other(self, node: NodeId) -> NodeId:
        """The endpoint that is not ``node``.

        Raises:
            ValueError: if ``node`` is not an endpoint.
        """
        if node == self.a:
            return self.b
        if node == self.b:
            return self.a
        raise ValueError(f"node {node} not in contact {self}")

    def overlaps(self, start: float, end: float) -> bool:
        """True if the contact intersects the half-open window [start, end)."""
        return self.start < end and self.end > start


# The slots' member descriptors write past the frozen ``__setattr__``.
_set_start = Contact.__dict__["start"].__set__
_set_end = Contact.__dict__["end"].__set__
_set_a = Contact.__dict__["a"].__set__
_set_b = Contact.__dict__["b"].__set__


def make_contact(a: NodeId, b: NodeId, start: float, end: float) -> Contact:
    """Build a normalized contact (endpoints sorted ascending)."""
    if a > b:
        a, b = b, a
    return Contact(start=start, end=end, a=a, b=b)


@dataclass
class ContactTrace:
    """An ordered collection of contacts plus the node universe.

    The node set is explicit rather than inferred because real traces
    contain devices that never logged a contact in the studied window
    but still exist (and can source/sink traffic).

    Attributes:
        name: human-readable label ("infocom05", ...).
        nodes: sorted tuple of node ids.
        contacts: contacts sorted by start time; fixed at construction,
            which also computes ``end_time`` from them once.
    """

    name: str
    nodes: Tuple[NodeId, ...]
    contacts: Tuple[Contact, ...]
    _by_node: Dict[NodeId, List[Contact]] = field(
        default_factory=dict, repr=False, compare=False
    )
    _end_time: float = field(default=0.0, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.nodes = tuple(sorted(set(self.nodes)))
        node_set = set(self.nodes)
        ordered = tuple(sorted(self.contacts))
        for contact in ordered:
            if contact.a not in node_set or contact.b not in node_set:
                raise ValueError(
                    f"contact {contact} references unknown node "
                    f"(universe has {len(node_set)} nodes)"
                )
        self.contacts = ordered
        self._end_time = max((c.end for c in ordered), default=0.0)

    def __len__(self) -> int:
        return len(self.contacts)

    def __iter__(self) -> Iterator[Contact]:
        return iter(self.contacts)

    @property
    def num_nodes(self) -> int:
        """Size of the node universe."""
        return len(self.nodes)

    @property
    def start_time(self) -> float:
        """Start of the earliest contact (0.0 for an empty trace)."""
        return self.contacts[0].start if self.contacts else 0.0

    @property
    def end_time(self) -> float:
        """End of the latest-ending contact (0.0 for an empty trace).

        Computed once at construction, so every read is O(1).
        """
        return self._end_time

    @property
    def duration(self) -> float:
        """Span covered by the trace."""
        return max(0.0, self.end_time - self.start_time)

    def contacts_of(self, node: NodeId) -> Sequence[Contact]:
        """All contacts involving ``node``, sorted by start time.

        The per-node index is built lazily and cached.
        """
        if not self._by_node:
            index: Dict[NodeId, List[Contact]] = {n: [] for n in self.nodes}
            for contact in self.contacts:
                index[contact.a].append(contact)
                index[contact.b].append(contact)
            self._by_node.update(index)
        return self._by_node[node]

    def window(self, start: float, end: float, name: str | None = None) -> "ContactTrace":
        """Clip the trace to [start, end), shifting times to 0.

        Contacts straddling the boundary are truncated to the window;
        contacts entirely outside are dropped.  The node universe is
        preserved even for nodes with no contact in the window.
        """
        if end <= start:
            raise ValueError(f"empty window [{start}, {end})")
        length = end - start
        clipped = []
        for contact in self.contacts:
            if not contact.overlaps(start, end):
                continue
            # Clamp against float drift: shifting by `start` must never
            # push a truncated contact past the window length.
            rel_start = max(0.0, max(contact.start, start) - start)
            rel_end = min(length, min(contact.end, end) - start)
            if rel_end <= rel_start:
                continue
            clipped.append(
                Contact(start=rel_start, end=rel_end, a=contact.a, b=contact.b)
            )
        return ContactTrace(
            name=name if name is not None else f"{self.name}[{start}:{end}]",
            nodes=self.nodes,
            contacts=tuple(clipped),
        )

    def restricted_to(self, nodes: Iterable[NodeId]) -> "ContactTrace":
        """Keep only contacts whose both endpoints are in ``nodes``.

        Used e.g. to discard the stationary iMotes of Cambridge 06,
        which the paper explicitly excludes.
        """
        keep = set(nodes)
        return ContactTrace(
            name=self.name,
            nodes=tuple(sorted(keep)),
            contacts=tuple(
                c for c in self.contacts if c.a in keep and c.b in keep
            ),
        )


def ensure_contact_trace(trace: object, caller: str) -> ContactTrace:
    """Validate that ``trace`` is a :class:`ContactTrace`, actionably.

    Every public entry point that takes a trace funnels through this
    guard, because the same slip recurs at all of them:
    ``trace_by_name`` returns a :class:`~repro.traces.synthetic.SyntheticTrace`
    *bundle*, and handing the bundle (instead of its ``.trace``
    attribute) to an API that duck-types would either crash deep in the
    call stack or, worse, silently compute nonsense.

    Args:
        trace: the candidate value.
        caller: entry-point name quoted in the error message.

    Raises:
        TypeError: naming the caller, the received type, and — when the
            value looks like a SyntheticTrace bundle — the exact fix.
    """
    if isinstance(trace, ContactTrace):
        return trace
    detail = ""
    if isinstance(getattr(trace, "trace", None), ContactTrace):
        detail = (
            " — this looks like a SyntheticTrace bundle; pass its"
            " .trace attribute instead"
        )
    raise TypeError(
        f"{caller} expects a ContactTrace, got"
        f" {type(trace).__name__}{detail}"
    )
