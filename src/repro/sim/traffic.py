"""Traffic generation.

"A set of messages is generated with sources and destinations chosen
uniformly at random, and generation times from a Poisson process
averaging one message per 4 seconds. ... To avoid end-effects no
messages were generated in the last hour of each trace." (Sec. V-C)
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterator, List, Sequence

from ..traces.trace import NodeId
from .config import SimulationConfig


@dataclass(frozen=True)
class TrafficDemand:
    """One planned message: when and between whom."""

    time: float
    source: NodeId
    destination: NodeId


class PoissonTraffic:
    """Poisson arrivals with uniform random endpoint pairs.

    Deterministic given ``(nodes, config.seed)``; the generator owns a
    dedicated RNG stream so protocol-side randomness never perturbs
    the workload.
    """

    def __init__(self, nodes: Sequence[NodeId], config: SimulationConfig) -> None:
        if len(nodes) < 2:
            raise ValueError("traffic needs at least two nodes")
        # A ``range`` universe (streaming sources) stays a range:
        # ``Random.choice`` indexes it identically to an equal-valued
        # tuple, and a 1M-node tuple would defeat the O(1) universe.
        self._nodes: Sequence[NodeId] = (
            nodes if isinstance(nodes, range) else tuple(nodes)
        )
        self._config = config
        self._rng = random.Random(f"{config.seed}|traffic")

    def demands(self) -> Iterator[TrafficDemand]:
        """Yield demands in time order until the generation deadline."""
        t = self._rng.expovariate(1.0 / self._config.mean_interarrival)
        while t < self._config.generation_deadline:
            source = self._rng.choice(self._nodes)
            destination = self._rng.choice(self._nodes)
            while destination == source:
                destination = self._rng.choice(self._nodes)
            yield TrafficDemand(time=t, source=source, destination=destination)
            t += self._rng.expovariate(1.0 / self._config.mean_interarrival)

    def plan(self) -> List[TrafficDemand]:
        """Materialize the full demand list."""
        return list(self.demands())
