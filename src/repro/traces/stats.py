"""Descriptive statistics of contact traces.

The literature characterizes PSN traces by their *contact duration*
and *inter-contact time* distributions and by how strongly contacts
cluster into communities (the paper cites [1], [2], [25] for these
properties).  These statistics serve two purposes here:

1. validating that the synthetic Infocom 05 / Cambridge 06 stand-ins
   exhibit the qualitative properties the protocols rely on
   (heterogeneous rates, frequent re-encounters within clusters);
2. informing timeout choices (Δ2 must leave a non-negligible chance of
   re-meeting, Sec. IV-B).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Sequence

import numpy as np

from .trace import Contact, ContactTrace, NodeId


@dataclass(frozen=True)
class SummaryStats:
    """Five-number-ish summary of a sample."""

    count: int
    mean: float
    median: float
    p90: float
    maximum: float

    @classmethod
    def of(cls, values: Sequence[float]) -> "SummaryStats":
        """Summarize ``values`` (empty samples give all-zero stats)."""
        if not values:
            return cls(count=0, mean=0.0, median=0.0, p90=0.0, maximum=0.0)
        arr = np.asarray(values, dtype=float)
        return cls(
            count=int(arr.size),
            mean=float(arr.mean()),
            median=float(np.median(arr)),
            p90=float(np.percentile(arr, 90)),
            maximum=float(arr.max()),
        )


def contact_durations(trace: ContactTrace) -> List[float]:
    """Durations of every contact, in seconds."""
    return [c.duration for c in trace.contacts]


def pairwise_contacts(trace: ContactTrace) -> Dict[FrozenSet[NodeId], List[Contact]]:
    """Group contacts by unordered node pair, each list start-sorted."""
    pairs: Dict[FrozenSet[NodeId], List[Contact]] = {}
    for contact in trace.contacts:
        pairs.setdefault(contact.pair, []).append(contact)
    return pairs


def inter_contact_times(trace: ContactTrace) -> List[float]:
    """Gaps between consecutive contacts of each pair that met >= twice.

    The inter-contact time of a pair is measured from the end of one
    contact to the start of the next, per the standard definition.
    """
    gaps: List[float] = []
    for contacts in pairwise_contacts(trace).values():
        for prev, nxt in zip(contacts, contacts[1:]):
            gaps.append(max(0.0, nxt.start - prev.end))
    return gaps


def contacts_per_pair(trace: ContactTrace) -> Dict[FrozenSet[NodeId], int]:
    """Number of contacts for each pair that met at least once."""
    return {pair: len(cs) for pair, cs in pairwise_contacts(trace).items()}


def reencounter_probability(
    trace: ContactTrace, within: float
) -> float:
    """Fraction of contacts followed by another contact of the same pair
    within ``within`` seconds.

    This is the empirical counterpart of the paper's claim that "if S
    and B meet, then it is likely that they will meet again in the near
    future (within Δ2 in our case)"; the Δ2 = 2Δ1 choice is justified
    exactly by this probability being high.

    Returns 0.0 for traces with no contacts.
    """
    total = 0
    reencountered = 0
    for contacts in pairwise_contacts(trace).values():
        for i, contact in enumerate(contacts):
            # Only count contacts that leave room for a re-encounter
            # inside the trace; otherwise the tail biases the estimate.
            if contact.end + within > trace.end_time:
                continue
            total += 1
            for nxt in contacts[i + 1 :]:
                if nxt.start - contact.end <= within:
                    reencountered += 1
                    break
                if nxt.start - contact.end > within:
                    break
    return reencountered / total if total else 0.0


@dataclass(frozen=True)
class TraceProfile:
    """Compact qualitative profile of a trace."""

    name: str
    num_nodes: int
    num_contacts: int
    duration: float
    contact_duration: SummaryStats
    inter_contact: SummaryStats
    distinct_pairs: int
    pair_coverage: float  # distinct meeting pairs / all possible pairs
    mean_contacts_per_hour_per_node: float

    @classmethod
    def of(cls, trace: ContactTrace) -> "TraceProfile":
        """Profile ``trace``."""
        per_pair = contacts_per_pair(trace)
        n = trace.num_nodes
        possible = n * (n - 1) / 2 if n > 1 else 1
        hours = trace.duration / 3600.0 if trace.duration else 1.0
        return cls(
            name=trace.name,
            num_nodes=n,
            num_contacts=len(trace),
            duration=trace.duration,
            contact_duration=SummaryStats.of(contact_durations(trace)),
            inter_contact=SummaryStats.of(inter_contact_times(trace)),
            distinct_pairs=len(per_pair),
            pair_coverage=len(per_pair) / possible,
            mean_contacts_per_hour_per_node=(
                2 * len(trace) / (n * hours) if n else 0.0
            ),
        )

    def describe(self) -> str:
        """Multi-line human-readable description."""
        lines = [
            f"trace {self.name}: {self.num_nodes} nodes, "
            f"{self.num_contacts} contacts over {self.duration / 3600:.1f} h",
            f"  contact duration: mean {self.contact_duration.mean:.0f} s, "
            f"median {self.contact_duration.median:.0f} s",
            f"  inter-contact:    mean {self.inter_contact.mean / 60:.1f} min, "
            f"median {self.inter_contact.median / 60:.1f} min",
            f"  pair coverage:    {self.pair_coverage:.0%} "
            f"({self.distinct_pairs} distinct pairs)",
            f"  contact rate:     "
            f"{self.mean_contacts_per_hour_per_node:.1f} contacts/node/hour",
        ]
        return "\n".join(lines)
