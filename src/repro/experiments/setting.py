"""The paper's standard experimental setting (Sec. V-C), packaged.

Every experiment shares: the two traces, the 3-hour evaluation window,
Poisson traffic at one message per 4 s with a silent last hour, the
per-trace/per-family TTLs, Δ2 = 2·Δ1, and the 34-minute delegation
quality timeframe.  This module caches the artifacts every run shares
so sweeps only pay for simulation.  Trace generation dominates their
cost, so the evaluation trace and its communities share one generated
trace; community detection comes next, and window selection counts
each candidate window's contacts by bisection in milliseconds.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, Tuple

from ..sim.config import SimulationConfig, config_for
from ..social.communities import CommunityMap
from ..traces.presets import standard_window, trace_by_name
from ..traces.synthetic import SyntheticTrace
from ..traces.trace import ContactTrace

#: The two evaluation traces, in paper order.
TRACES: Tuple[str, ...] = ("infocom05", "cambridge06")

#: k-clique detection parameters per trace, tuned against the
#: generators' ground truth (see tests/test_social_communities.py).
COMMUNITY_PARAMS: Dict[str, Dict[str, float]] = {
    "infocom05": {"k": 3, "edge_quantile": 0.90},
    "cambridge06": {"k": 6, "edge_quantile": 0.80},
}

#: Adversary-count sweep used by Figs. 3-5 and 7 (the paper sweeps
#: 0..N in steps of 5).
def adversary_counts(trace_name: str, quick: bool = False) -> Tuple[int, ...]:
    """Dropper/liar/cheater counts for a sweep over ``trace_name``."""
    n = evaluation_trace(trace_name).num_nodes
    step = 10 if quick else 5
    counts = list(range(0, n, step))
    if counts[-1] != n - 1:
        counts.append(n - 1)
    return tuple(counts)


#: Full synthetic traces generated for one of the two cached artifacts
#: below and not yet used by the other.  Generation dominates both
#: artifacts' cost, so each ``(name, seed)`` is generated once: the
#: first artifact built parks the trace here and the second takes it
#: back out, so the full trace is not kept once both exist.
_UNCLAIMED: Dict[Tuple[str, int], SyntheticTrace] = {}


def _full_trace(trace_name: str, trace_seed: int) -> SyntheticTrace:
    """The full synthetic trace, shared by the trace and the community."""
    key = (trace_name, trace_seed)
    synthetic = _UNCLAIMED.pop(key, None)
    if synthetic is None:
        synthetic = trace_by_name(trace_name, seed=trace_seed)
        _UNCLAIMED[key] = synthetic
    return synthetic


@lru_cache(maxsize=None)
def evaluation_trace(trace_name: str, trace_seed: int = 0) -> ContactTrace:
    """The windowed 3-hour evaluation trace (cached)."""
    synthetic = _full_trace(trace_name, trace_seed)
    window = standard_window(synthetic)
    return window.slice(synthetic.trace)


@lru_cache(maxsize=None)
def evaluation_community(trace_name: str, trace_seed: int = 0) -> CommunityMap:
    """k-clique communities of the *full* trace (cached).

    Detection runs on the whole trace, as in the paper ("community
    detection on each data trace"), not just the 3-hour window —
    communities are a property of the social structure, not of one
    afternoon.
    """
    synthetic = _full_trace(trace_name, trace_seed)
    params = COMMUNITY_PARAMS[trace_name]
    return CommunityMap.detect(
        synthetic.trace,
        k=int(params["k"]),
        edge_quantile=float(params["edge_quantile"]),
    )


def standard_config(
    trace_name: str, family: str, seed: int
) -> SimulationConfig:
    """Paper-faithful configuration for one run."""
    return config_for(trace_name, family, seed=seed)


@dataclass(frozen=True)
class ReplicationPlan:
    """How many independent runs average into each data point.

    The paper averages "a large set of experiments"; we re-seed the
    traffic and adversary placement while holding the trace fixed
    (matching trace-driven methodology).  ``quick`` halves the work
    for CI-speed benchmark runs.
    """

    seeds: Tuple[int, ...] = (1, 2, 3)

    @classmethod
    def make(cls, quick: bool = False) -> "ReplicationPlan":
        """Default plan: 3 seeds, or 2 in quick mode."""
        return cls(seeds=(1, 2) if quick else (1, 2, 3))
