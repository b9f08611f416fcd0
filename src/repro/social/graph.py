"""Aggregated contact graphs.

Community detection (and several forwarding heuristics in the PSN
literature) operates on a static *contact graph* distilled from the
trace: nodes are devices, and an edge connects two devices whose
cumulative contact behavior crosses a threshold.  Following the
k-clique methodology of Palla et al. (the paper's reference [24], also
used by BubbleRap [5]), we threshold on either the number of contacts
or the total contact duration of the pair.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Set, Tuple

from ..traces.trace import ContactTrace, NodeId


@dataclass
class ContactGraph:
    """Undirected weighted graph over the trace's node universe.

    Attributes:
        nodes: all node ids (including isolated ones).
        edges: maps each unordered pair to ``(num_contacts, total_duration)``.
    """

    nodes: Tuple[NodeId, ...]
    edges: Dict[FrozenSet[NodeId], Tuple[int, float]] = field(
        default_factory=dict
    )

    @classmethod
    def from_trace(cls, trace: ContactTrace) -> "ContactGraph":
        """Aggregate every contact of ``trace`` into the graph."""
        edges: Dict[FrozenSet[NodeId], Tuple[int, float]] = {}
        # g2g: allow(G2G013: offline aggregate over the full evaluation trace)
        for contact in trace.contacts:
            count, duration = edges.get(contact.pair, (0, 0.0))
            edges[contact.pair] = (count + 1, duration + contact.duration)
        return cls(nodes=trace.nodes, edges=edges)

    def neighbors(self, node: NodeId) -> Set[NodeId]:
        """Adjacent nodes of ``node`` (any positive-weight edge)."""
        result: Set[NodeId] = set()
        for pair in self.edges:
            if node in pair:
                result.update(pair - {node})
        return result

    def contact_count(self, a: NodeId, b: NodeId) -> int:
        """Number of contacts between ``a`` and ``b``."""
        return self.edges.get(frozenset((a, b)), (0, 0.0))[0]

    def contact_duration(self, a: NodeId, b: NodeId) -> float:
        """Cumulative contact time between ``a`` and ``b`` (seconds)."""
        return self.edges.get(frozenset((a, b)), (0, 0.0))[1]

    def thresholded(
        self,
        min_contacts: int = 0,
        min_duration: float = 0.0,
    ) -> "ContactGraph":
        """Keep edges meeting *both* thresholds.

        Thresholding is how raw sighting noise is removed before
        community detection: a pair that brushed past each other once
        is not a social tie.
        """
        kept = {
            pair: (count, duration)
            for pair, (count, duration) in self.edges.items()
            if count >= min_contacts and duration >= min_duration
        }
        return ContactGraph(nodes=self.nodes, edges=kept)

    def adjacency(self) -> Dict[NodeId, Set[NodeId]]:
        """Full adjacency map (isolated nodes map to empty sets)."""
        adj: Dict[NodeId, Set[NodeId]] = {n: set() for n in self.nodes}
        for pair in self.edges:
            a, b = tuple(pair)
            adj[a].add(b)
            adj[b].add(a)
        return adj

    @property
    def num_edges(self) -> int:
        """Number of edges."""
        return len(self.edges)

    def degree(self, node: NodeId) -> int:
        """Degree of ``node``."""
        return len(self.neighbors(node))


def top_quantile_graph(
    trace: ContactTrace, quantile: float = 0.5
) -> ContactGraph:
    """Contact graph keeping the strongest ``1 - quantile`` of edges.

    A robust default when absolute thresholds are unknown: rank pairs
    by total contact duration and keep the top share.  ``quantile=0.5``
    keeps the stronger half of the social ties.
    """
    if not 0 <= quantile < 1:
        raise ValueError(f"quantile must be in [0, 1), got {quantile}")
    graph = ContactGraph.from_trace(trace)
    if not graph.edges:
        return graph
    durations = sorted(d for _, d in graph.edges.values())
    cut = durations[int(quantile * len(durations))]
    return graph.thresholded(min_duration=cut)
