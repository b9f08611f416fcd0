"""Figure 7: detection time vs adversary count in G2G Delegation.

The paper's Fig. 7 plots the average detection time against the
number of selfish individuals for all six adversary kinds on both
traces, observing that (i) detection time does not depend on the
adversary count, (ii) droppers are detected sooner than liars, which
are detected sooner than cheaters, and (iii) Cambridge 06 is slower
across the board (lower contact frequency).
"""

from __future__ import annotations

from typing import Dict, Optional

from .parallel import ExecutionOptions
from .runner import FigureData, ReplicationPlan, Series, run_series
from .setting import TRACES, adversary_counts
from .table1 import ADVERSARY_KINDS, ROW_LABELS


def run(
    quick: bool = False,
    plan: Optional[ReplicationPlan] = None,
    options: Optional[ExecutionOptions] = None,
) -> Dict[str, FigureData]:
    """Reproduce Fig. 7; one :class:`FigureData` per trace."""
    if plan is None:
        plan = ReplicationPlan.make(quick)
    kinds = ADVERSARY_KINDS if not quick else (
        "dropper",
        "liar",
        "cheater",
    )
    figures: Dict[str, FigureData] = {}
    for trace_name in TRACES:
        figure = FigureData(
            figure_id=f"fig7-{trace_name}",
            title=(
                "Detection time vs number of selfish individuals, "
                f"G2G Delegation ({trace_name})"
            ),
            x_label="Number",
            y_label="Average detection time (minutes)",
        )
        counts = [c for c in adversary_counts(trace_name, quick) if c]
        for kind in kinds:
            series = Series(label=ROW_LABELS[kind])
            for count, point in run_series(
                trace_name,
                "g2g_delegation_last_contact",
                counts,
                deviation=kind,
                plan=plan,
                options=options,
            ):
                series.add(count, point.detection_delay / 60.0)
            figure.series.append(series)
        figures[trace_name] = figure
    return figures
