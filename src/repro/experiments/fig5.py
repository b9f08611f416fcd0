"""Figure 5: droppers and liars against vanilla Delegation Forwarding.

Four panels in the paper: delivery % vs dropper count (Infocom 05 and
Cambridge 06) and delivery % vs liar count (same traces), each with a
plain and a with-outsiders series.  "Both droppers and liars have a
big impact on the success rate."  The experiments use Delegation
Destination Last Contact, as in Sec. VII.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from .parallel import ExecutionOptions
from .runner import FigureData, ReplicationPlan, Series, run_series
from .setting import TRACES, adversary_counts

#: panel -> (deviation kinds plotted, x-axis label)
PANELS: Dict[str, Tuple[Tuple[str, str], str]] = {
    "droppers": (("dropper", "dropper_with_outsiders"), "Droppers Number"),
    "liars": (("liar", "liar_with_outsiders"), "Liars Number"),
}

LABELS = {
    "dropper": "Droppers",
    "dropper_with_outsiders": "Droppers with outsiders",
    "liar": "Liars",
    "liar_with_outsiders": "Liars with outsiders",
}


def run(
    quick: bool = False,
    plan: Optional[ReplicationPlan] = None,
    options: Optional[ExecutionOptions] = None,
) -> Dict[Tuple[str, str], FigureData]:
    """Reproduce Fig. 5; keyed by ``(panel, trace)``."""
    if plan is None:
        plan = ReplicationPlan.make(quick)
    figures: Dict[Tuple[str, str], FigureData] = {}
    for panel, (kinds, x_label) in PANELS.items():
        for trace_name in TRACES:
            figure = FigureData(
                figure_id=f"fig5-{panel}-{trace_name}",
                title=(
                    f"Effect of {panel} on Delegation Forwarding "
                    f"({trace_name})"
                ),
                x_label=x_label,
                y_label="Delivery %",
            )
            for kind in kinds:
                series = Series(label=LABELS[kind])
                for count, point in run_series(
                    trace_name,
                    "delegation_last_contact",
                    adversary_counts(trace_name, quick),
                    deviation=kind,
                    plan=plan,
                    options=options,
                ):
                    series.add(count, point.success_percent)
                figure.series.append(series)
            figures[(panel, trace_name)] = figure
    return figures
