"""Centrality measures over contact graphs.

Social forwarding heuristics rank nodes by how structurally central
they are in the aggregated contact graph. Three classic measures,
implemented from scratch on the
:class:`repro.social.graph.ContactGraph` adjacency:

* **degree centrality** — fraction of other nodes adjacent;
* **closeness centrality** — inverse mean shortest-path distance
  (component-scaled, Wasserman-Faust style, so disconnected graphs
  behave);
* **betweenness centrality** — Brandes' algorithm (unweighted).

All return dicts over the *full* node universe (isolated nodes score
zero), normalized to [0, 1] like networkx, which the tests use as an
oracle.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, List

from ..traces.trace import NodeId
from .graph import ContactGraph


def degree_centrality(graph: ContactGraph) -> Dict[NodeId, float]:
    """Degree / (n - 1) for every node."""
    adjacency = graph.adjacency()
    n = len(adjacency)
    if n <= 1:
        return {node: 0.0 for node in adjacency}
    return {
        node: len(neighbors) / (n - 1)
        for node, neighbors in adjacency.items()
    }


def closeness_centrality(graph: ContactGraph) -> Dict[NodeId, float]:
    """Component-scaled closeness (Wasserman-Faust).

    For node ``u`` reaching ``r - 1`` nodes at total distance ``d``:
    ``C(u) = ((r - 1) / (n - 1)) * ((r - 1) / d)``; zero for isolated
    nodes.
    """
    adjacency = graph.adjacency()
    n = len(adjacency)
    result: Dict[NodeId, float] = {}
    for node in adjacency:
        distances = _bfs_distances(adjacency, node)
        reachable = len(distances) - 1  # excluding the node itself
        total = sum(distances.values())
        if reachable <= 0 or total <= 0 or n <= 1:
            result[node] = 0.0
            continue
        result[node] = (reachable / (n - 1)) * (reachable / total)
    return result


def betweenness_centrality(graph: ContactGraph) -> Dict[NodeId, float]:
    """Brandes' betweenness for unweighted graphs, normalized.

    Normalization matches networkx: divide by ``(n-1)(n-2)/2`` for
    undirected graphs with ``n > 2``.
    """
    adjacency = graph.adjacency()
    nodes = list(adjacency)
    betweenness: Dict[NodeId, float] = {node: 0.0 for node in nodes}
    for source in nodes:
        # Single-source shortest-path counting.
        stack: List[NodeId] = []
        predecessors: Dict[NodeId, List[NodeId]] = {v: [] for v in nodes}
        sigma: Dict[NodeId, float] = {v: 0.0 for v in nodes}
        sigma[source] = 1.0
        distance: Dict[NodeId, int] = {source: 0}
        queue = deque([source])
        while queue:
            v = queue.popleft()
            stack.append(v)
            for w in adjacency[v]:
                if w not in distance:
                    distance[w] = distance[v] + 1
                    queue.append(w)
                if distance[w] == distance[v] + 1:
                    sigma[w] += sigma[v]
                    predecessors[w].append(v)
        # Accumulation.
        delta: Dict[NodeId, float] = {v: 0.0 for v in nodes}
        while stack:
            w = stack.pop()
            for v in predecessors[w]:
                delta[v] += (sigma[v] / sigma[w]) * (1.0 + delta[w])
            if w != source:
                betweenness[w] += delta[w]
        # (Each undirected pair counted twice; halved below.)
    n = len(nodes)
    if n > 2:
        scale = 1.0 / ((n - 1) * (n - 2))
    else:
        scale = 1.0
    return {node: value * scale for node, value in betweenness.items()}


def rank_nodes(centrality: Dict[NodeId, float]) -> List[NodeId]:
    """Node ids sorted most-central first (id breaks ties)."""
    return sorted(centrality, key=lambda n: (-centrality[n], n))


def _bfs_distances(
    adjacency: Dict[NodeId, set], source: NodeId
) -> Dict[NodeId, int]:
    """Hop distances from ``source`` to every reachable node."""
    distances = {source: 0}
    queue = deque([source])
    while queue:
        v = queue.popleft()
        for w in adjacency[v]:
            if w not in distances:
                distances[w] = distances[v] + 1
                queue.append(w)
    return distances
