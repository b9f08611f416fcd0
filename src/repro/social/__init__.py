"""Social structure layer: contact graphs and k-clique communities."""

from .communities import (
    CommunityMap,
    bron_kerbosch_maximal_cliques,
    k_clique_communities,
)
from .graph import ContactGraph, top_quantile_graph

__all__ = [
    "CommunityMap",
    "ContactGraph",
    "bron_kerbosch_maximal_cliques",
    "k_clique_communities",
    "top_quantile_graph",
]
