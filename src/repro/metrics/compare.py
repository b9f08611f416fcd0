"""Shape predicates for paper-vs-measured comparisons.

The reproduction promise (DESIGN.md §4) is about *shape*: who wins, by
roughly what factor, which orderings hold.  The figure benchmarks
assert these predicates on their measured series.
"""

from __future__ import annotations

from typing import List


def monotone_decreasing(values: List[float], slack: float = 0.0) -> bool:
    """True when the series trends downward (each step may backslide by
    at most ``slack`` — replication noise tolerance)."""
    return all(b <= a + slack for a, b in zip(values, values[1:]))


def roughly_flat(values: List[float], ratio: float = 3.0) -> bool:
    """True when max/min stays within ``ratio`` (ignoring zeros)."""
    positive = [v for v in values if v > 0]
    if len(positive) < 2:
        return True
    return max(positive) / min(positive) <= ratio
