"""Figure 4: dropper detection time in G2G Epidemic Forwarding.

The paper's Fig. 4 plots the average detection time (measured after
the tested message's Δ1 expiry) against the number of droppers and
observes that it is minutes-scale and essentially independent of the
dropper count; the accompanying text reports detection probabilities
of 94.7% (plain selfishness) and 91.3% (with outsiders).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from .parallel import ExecutionOptions
from .runner import FigureData, ReplicationPlan, Series, run_series
from .setting import TRACES, adversary_counts

VARIANTS = ("dropper", "dropper_with_outsiders")
VARIANT_LABELS = {
    "dropper": "Droppers",
    "dropper_with_outsiders": "Droppers with outsiders",
}


@dataclass
class DetectionFigure:
    """Fig. 4 output: the detection-time figure plus rate summaries."""

    figure: FigureData
    #: mean detection rate per variant (across all non-zero counts).
    detection_rates: Dict[str, float] = field(default_factory=dict)


def run(
    quick: bool = False,
    plan: Optional[ReplicationPlan] = None,
    options: Optional[ExecutionOptions] = None,
) -> Dict[str, DetectionFigure]:
    """Reproduce Fig. 4; one :class:`DetectionFigure` per trace."""
    if plan is None:
        plan = ReplicationPlan.make(quick)
    out: Dict[str, DetectionFigure] = {}
    for trace_name in TRACES:
        figure = FigureData(
            figure_id=f"fig4-{trace_name}",
            title=(
                "Dropper detection time vs dropper count, "
                f"G2G Epidemic ({trace_name})"
            ),
            x_label="Droppers Number",
            y_label="Average detection time after Δ1 (minutes)",
        )
        rates: Dict[str, list] = {v: [] for v in VARIANTS}
        # no droppers, nothing to detect: skip the zero-count point
        counts = [c for c in adversary_counts(trace_name, quick) if c]
        for variant in VARIANTS:
            series = Series(label=VARIANT_LABELS[variant])
            for count, point in run_series(
                trace_name,
                "g2g_epidemic",
                counts,
                deviation=variant,
                plan=plan,
                options=options,
            ):
                series.add(count, point.detection_delay_after_ttl / 60.0)
                rates[variant].append(point.detection_rate)
            figure.series.append(series)
        out[trace_name] = DetectionFigure(
            figure=figure,
            detection_rates={
                VARIANT_LABELS[v]: (
                    sum(values) / len(values) if values else 0.0
                )
                for v, values in rates.items()
            },
        )
    return out
