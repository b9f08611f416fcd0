"""Cross-run aggregation of simulation metrics.

One simulation run yields a :class:`~repro.sim.results.SimulationResults`;
experiments average several re-seeded runs per grid point and want
uncertainty estimates alongside the means.  This module provides the
small statistics toolkit for that.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from ..sim.results import SimulationResults


@dataclass(frozen=True)
class Estimate:
    """A sample mean with dispersion.

    Attributes:
        mean: sample mean.
        std: sample standard deviation (ddof=1; 0 for n < 2).
        n: sample size.
    """

    mean: float
    std: float
    n: int

    @classmethod
    def of(cls, values: Sequence[float]) -> "Estimate":
        """Estimate from a sample (empty → all-zero)."""
        if not values:
            return cls(mean=0.0, std=0.0, n=0)
        arr = np.asarray(values, dtype=float)
        std = float(arr.std(ddof=1)) if arr.size > 1 else 0.0
        return cls(mean=float(arr.mean()), std=std, n=int(arr.size))

    @property
    def stderr(self) -> float:
        """Standard error of the mean."""
        return self.std / math.sqrt(self.n) if self.n else 0.0

    def ci95(self) -> float:
        """Half-width of a normal-approximation 95% interval."""
        return 1.96 * self.stderr

    def __str__(self) -> str:
        return f"{self.mean:.3f} ± {self.ci95():.3f} (n={self.n})"


def aggregate(
    runs: Iterable[SimulationResults],
    metric: Callable[[SimulationResults], float],
) -> Estimate:
    """Apply ``metric`` to each run and estimate its mean."""
    return Estimate.of([metric(run) for run in runs])


def detection_rates(
    runs: Iterable[SimulationResults], misbehaving: Sequence[int]
) -> Estimate:
    """Mean detection rate across runs, for a fixed adversary set."""
    return aggregate(runs, lambda r: r.detection_rate(misbehaving))
