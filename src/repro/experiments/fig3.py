"""Figure 3: effect of message droppers on Epidemic Forwarding.

The paper's Fig. 3 plots vanilla Epidemic delivery % against the
number of droppers (plain and with-outsiders) on both traces, showing
performance collapsing toward ~50% as everyone defects: "when all the
nodes are droppers, the only hope for success is that the sender gets
personally in contact with the destination."
"""

from __future__ import annotations

from typing import Dict, Optional

from .parallel import ExecutionOptions
from .runner import FigureData, ReplicationPlan, Series, run_series
from .setting import TRACES, adversary_counts

#: The two plotted selfishness variants.
VARIANTS = ("dropper", "dropper_with_outsiders")
VARIANT_LABELS = {
    "dropper": "Droppers",
    "dropper_with_outsiders": "Droppers with outsiders",
}


def run(
    quick: bool = False,
    plan: Optional[ReplicationPlan] = None,
    options: Optional[ExecutionOptions] = None,
) -> Dict[str, FigureData]:
    """Reproduce Fig. 3; one :class:`FigureData` per trace."""
    if plan is None:
        plan = ReplicationPlan.make(quick)
    figures: Dict[str, FigureData] = {}
    for trace_name in TRACES:
        figure = FigureData(
            figure_id=f"fig3-{trace_name}",
            title=f"Effect of message droppers on Epidemic ({trace_name})",
            x_label="Droppers Number",
            y_label="Delivery %",
        )
        for variant in VARIANTS:
            series = Series(label=VARIANT_LABELS[variant])
            for count, point in run_series(
                trace_name,
                "epidemic",
                adversary_counts(trace_name, quick),
                deviation=variant,
                plan=plan,
                options=options,
            ):
                series.add(count, point.success_percent)
            figure.series.append(series)
        figures[trace_name] = figure
    return figures
