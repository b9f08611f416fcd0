"""Table I: G2G Delegation detection performance on both traces.

The paper's Table I reports, for G2G Delegation (Destination Last
Contact) on Infocom 05 and Cambridge 06, the detection rate and the
average detection time in minutes for six adversary kinds: droppers,
liars, cheaters, and their with-outsiders variants.

Paper values, for reference (rate % / minutes):

====================  ============  ============
adversary             Infocom 05    Cambridge 06
====================  ============  ============
Droppers              88 / 12       86 / 21
Liars                 67 / 26       65 / 52
Cheaters              83 / 35       84 / 64
Droppers w/outsiders  87 / 15       84 / 23
Liars w/outsiders     64 / 28       62 / 54
Cheaters w/outsiders  83 / 37       81 / 68
====================  ============  ============

Detection times are offender-anchored: minutes from the Δ1-expiry of
the first message a node misbehaved on until its conviction (see
:meth:`repro.sim.results.SimulationResults.offender_detection_delays`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from .parallel import ExecutionOptions
from .runner import ReplicationPlan, run_point
from .setting import TRACES, evaluation_trace

#: Row order matches the paper's table.
ADVERSARY_KINDS: Tuple[str, ...] = (
    "dropper",
    "liar",
    "cheater",
    "dropper_with_outsiders",
    "liar_with_outsiders",
    "cheater_with_outsiders",
)

ROW_LABELS = {
    "dropper": "Droppers",
    "liar": "Liars",
    "cheater": "Cheaters",
    "dropper_with_outsiders": "Droppers with outsiders",
    "liar_with_outsiders": "Liars with outsiders",
    "cheater_with_outsiders": "Cheaters with outsiders",
}

#: The paper's reference values: kind -> trace -> (rate, minutes).
PAPER_VALUES: Dict[str, Dict[str, Tuple[float, float]]] = {
    "dropper": {"infocom05": (0.88, 12), "cambridge06": (0.86, 21)},
    "liar": {"infocom05": (0.67, 26), "cambridge06": (0.65, 52)},
    "cheater": {"infocom05": (0.83, 35), "cambridge06": (0.84, 64)},
    "dropper_with_outsiders": {
        "infocom05": (0.87, 15),
        "cambridge06": (0.84, 23),
    },
    "liar_with_outsiders": {
        "infocom05": (0.64, 28),
        "cambridge06": (0.62, 54),
    },
    "cheater_with_outsiders": {
        "infocom05": (0.83, 37),
        "cambridge06": (0.81, 68),
    },
}

#: Adversary population per run — a moderate share of the network, in
#: the middle of the paper's sweep range.
DEFAULT_ADVERSARY_COUNT = 10


@dataclass
class DetectionCell:
    """One table cell: measured rate/time with the paper reference."""

    detection_rate: float
    detection_minutes: float
    paper_rate: float
    paper_minutes: float
    false_positives: int


@dataclass
class Table1:
    """The reproduced Table I."""

    cells: Dict[Tuple[str, str], DetectionCell] = field(default_factory=dict)

    def render(self) -> str:
        """Text rendering mirroring the paper's layout."""
        lines = [
            "== Table I: G2G Delegation detection (measured vs paper) ==",
            f"{'adversary':<26}"
            + "".join(
                f"{t + ' rate':>18}{t + ' time(m)':>18}" for t in TRACES
            ),
        ]
        for kind in ADVERSARY_KINDS:
            row = [f"{ROW_LABELS[kind]:<26}"]
            for trace_name in TRACES:
                cell = self.cells[(kind, trace_name)]
                row.append(
                    f"{cell.detection_rate:>7.0%} (p {cell.paper_rate:.0%})"
                    .rjust(18)
                )
                row.append(
                    f"{cell.detection_minutes:>6.0f} (p {cell.paper_minutes:.0f})"
                    .rjust(18)
                )
            lines.append("".join(row))
        return "\n".join(lines)


def run(
    quick: bool = False,
    plan: Optional[ReplicationPlan] = None,
    adversary_count: int = DEFAULT_ADVERSARY_COUNT,
    options: Optional[ExecutionOptions] = None,
) -> Table1:
    """Reproduce Table I."""
    if plan is None:
        plan = ReplicationPlan.make(quick)
    table = Table1()
    for trace_name in TRACES:
        count = min(adversary_count, evaluation_trace(trace_name).num_nodes - 2)
        for kind in ADVERSARY_KINDS:
            point = run_point(
                trace_name,
                "g2g_delegation_last_contact",
                deviation=kind,
                deviation_count=count,
                plan=plan,
                options=options,
            )
            paper_rate, paper_minutes = PAPER_VALUES[kind][trace_name]
            table.cells[(kind, trace_name)] = DetectionCell(
                detection_rate=point.detection_rate,
                detection_minutes=point.detection_delay / 60.0,
                paper_rate=paper_rate,
                paper_minutes=paper_minutes,
                false_positives=point.false_positives,
            )
    return table
