"""Shared run/aggregate plumbing for the experiment modules.

An experiment is a grid of simulation runs; each grid point averages a
few re-seeded runs.  :func:`run_series` executes a whole sweep of
points as one flat batch, so a process pool can overlap runs *across*
grid points, not just within one, and returns per point the averaged
metrics the paper plots (success %, delay, cost, detection rate,
detection time).  :func:`run_point` is the one-point series.

Both accept :class:`~repro.experiments.parallel.ExecutionOptions` to
select worker count and result caching; the default (no options) is
the sequential, uncached path.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..sim.results import SimulationResults
from ..telemetry.run import merge_run_snapshots
from .catalog import protocol
from .parallel import ExecutionOptions, RunRequest, run_requests
from .setting import ReplicationPlan


@dataclass
class PointResult:
    """Averaged metrics of one grid point.

    All quantities are means over the replication seeds; raw per-run
    results are retained for deeper analysis.
    """

    success_rate: float
    mean_delay: float
    cost: float
    memory_byte_seconds: float
    detection_rate: float
    detection_delay: float
    detection_delay_after_ttl: float
    false_positives: int
    runs: List[SimulationResults] = field(repr=False, default_factory=list)
    # Merged telemetry snapshot over the point's runs (counters add,
    # gauges max, histograms/spans fold), or None when no run carried
    # one — e.g. a fully cache-hit point, since the JSON run cache
    # stores simulation outcomes only.
    telemetry: Optional[Dict[str, object]] = field(repr=False, default=None)

    @property
    def success_percent(self) -> float:
        """Success rate in percent (the paper's y-axis)."""
        return 100.0 * self.success_rate


def point_from_runs(
    runs: Sequence[SimulationResults],
    misbehaving_sets: Sequence[Tuple[int, ...]],
) -> PointResult:
    """Aggregate per-run results into one :class:`PointResult`.

    All means derive directly from ``runs`` — no mutable accumulators —
    so the aggregation is independent of *how* (and in what order) the
    runs were executed.  Telemetry snapshots merge in run (seed) order
    for the same reason: the folded totals are identical whether the
    runs executed sequentially or across a worker pool.
    """
    adversarial = [
        (run, misbehaving)
        for run, misbehaving in zip(runs, misbehaving_sets)
        if misbehaving
    ]
    det_rates = [run.detection_rate(m) for run, m in adversarial]
    det_delays = [
        run.mean_offender_detection_delay()
        for run, _ in adversarial
        if run.detections
    ]
    det_delays_ttl = [
        run.mean_detection_delay() for run, _ in adversarial if run.detections
    ]
    return PointResult(
        success_rate=float(np.mean([r.success_rate for r in runs])),
        mean_delay=float(np.mean([r.mean_delay for r in runs])),
        cost=float(np.mean([r.cost for r in runs])),
        memory_byte_seconds=float(
            np.mean([r.total_memory_byte_seconds for r in runs])
        ),
        detection_rate=float(np.mean(det_rates)) if det_rates else 0.0,
        detection_delay=float(np.mean(det_delays)) if det_delays else 0.0,
        detection_delay_after_ttl=(
            float(np.mean(det_delays_ttl)) if det_delays_ttl else 0.0
        ),
        false_positives=sum(
            len(run.false_positives(m)) for run, m in adversarial
        ),
        runs=list(runs),
        telemetry=(
            merge_run_snapshots([r.telemetry for r in runs])
            if any(r.telemetry is not None for r in runs)
            else None
        ),
    )


def _requests_for_point(
    trace_name: str,
    family: str,
    protocol_name: str,
    deviation: Optional[str],
    deviation_count: int,
    plan: ReplicationPlan,
    config_overrides: Optional[Dict[str, object]],
) -> List[RunRequest]:
    overrides = tuple(sorted((config_overrides or {}).items()))
    return [
        RunRequest(
            trace_name=trace_name,
            family=family,
            protocol_name=protocol_name,
            seed=seed,
            deviation=deviation if deviation_count > 0 else None,
            deviation_count=deviation_count if deviation else 0,
            overrides=overrides,
        )
        for seed in plan.seeds
    ]


def run_point(
    trace_name: str,
    protocol_name: str,
    deviation: Optional[str] = None,
    deviation_count: int = 0,
    plan: Optional[ReplicationPlan] = None,
    config_overrides: Optional[Dict[str, object]] = None,
    options: Optional[ExecutionOptions] = None,
) -> PointResult:
    """Run one grid point and average the replications.

    Args:
        trace_name: "infocom05" or "cambridge06".
        protocol_name: a :data:`repro.experiments.catalog.PROTOCOLS`
            name; its family selects the paper TTL.
        deviation: adversary kind (see
            :mod:`repro.adversaries.factory`), or None for all-honest.
        deviation_count: how many nodes deviate.
        plan: replication plan (defaults to the standard 3 seeds).
        config_overrides: optional :class:`SimulationConfig` overrides.
        options: worker count and cache; defaults to sequential and
            uncached.

    Raises:
        KeyError: for an unknown protocol name, before any run starts.
    """
    return run_series(
        trace_name, protocol_name, [deviation_count], deviation,
        plan=plan, config_overrides=config_overrides, options=options,
    )[0][1]


def run_series(
    trace_name: str,
    protocol_name: str,
    counts: Sequence[int],
    deviation: Optional[str],
    plan: Optional[ReplicationPlan] = None,
    config_overrides: Optional[Dict[str, object]] = None,
    options: Optional[ExecutionOptions] = None,
) -> List[Tuple[int, PointResult]]:
    """Run a whole adversary-count sweep as one flat batch.

    Zero counts run all-honest.  The full (count x seed) matrix is
    handed to the executor at once, so a pool keeps its workers busy
    across grid-point boundaries.

    Returns:
        ``(count, PointResult)`` pairs in the order of ``counts``.

    Raises:
        KeyError: for an unknown protocol name, before any run starts.
    """
    family, _ = protocol(protocol_name)
    if plan is None:
        plan = ReplicationPlan()
    batches = [
        _requests_for_point(
            trace_name, family, protocol_name,
            deviation, count, plan, config_overrides,
        )
        for count in counts
    ]
    results = run_requests(
        [request for batch in batches for request in batch], options
    )
    points: List[Tuple[int, PointResult]] = []
    offset = 0
    for count, batch in zip(counts, batches):
        runs = results[offset:offset + len(batch)]
        points.append(
            (count, point_from_runs(runs, [r.misbehaving() for r in batch]))
        )
        offset += len(batch)
    return points


@dataclass
class Series:
    """One plotted line: label plus (x, y) points."""

    label: str
    xs: List[float] = field(default_factory=list)
    ys: List[float] = field(default_factory=list)

    def add(self, x: float, y: float) -> None:
        """Append one point."""
        self.xs.append(x)
        self.ys.append(y)

    def as_rows(self) -> List[Tuple[float, float]]:
        """Points as (x, y) tuples."""
        return list(zip(self.xs, self.ys))


@dataclass
class FigureData:
    """A reproduced figure: id, axis labels, and its series."""

    figure_id: str
    title: str
    x_label: str
    y_label: str
    series: List[Series] = field(default_factory=list)

    def series_by_label(self, label: str) -> Series:
        """Find a series by its label.

        Raises:
            KeyError: if absent.
        """
        for s in self.series:
            if s.label == label:
                return s
        raise KeyError(label)

    def render(self, chart: bool = True) -> str:
        """Plain-text rendering: the data table plus an ASCII chart."""
        lines = [f"== {self.figure_id}: {self.title} =="]
        if not self.series:
            return "\n".join(lines + ["(no data)"])
        xs = self.series[0].xs
        header = [self.x_label] + [s.label for s in self.series]
        widths = [max(14, len(h) + 2) for h in header]
        lines.append(
            "".join(h.ljust(w) for h, w in zip(header, widths))
        )
        for i, x in enumerate(xs):
            cells = [f"{x:g}"]
            for s in self.series:
                cells.append(f"{s.ys[i]:.2f}" if i < len(s.ys) else "-")
            lines.append(
                "".join(c.ljust(w) for c, w in zip(cells, widths))
            )
        lines.append(f"({self.y_label})")
        if chart and any(s.xs for s in self.series):
            from ..metrics.asciichart import ascii_chart

            lines.append(
                ascii_chart(
                    self.series, y_label=self.y_label, x_label=self.x_label
                )
            )
        return "\n".join(lines)
