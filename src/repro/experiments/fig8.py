"""Figure 8: G2G protocols vs their vanilla alter egos (no adversaries).

The paper's Fig. 8 plots success rate vs cost and delay vs cost for
all six protocols on both traces.  The headline: "G2G protocols show
an excellent performance in terms of cost ... decreasing considerably
(more than 20%) the number of replicas generated in the system, while
their performance in terms of delay and success rate are very close
to the original protocols."
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from .catalog import LABELS, PROTOCOLS
from .parallel import ExecutionOptions
from .runner import PointResult, ReplicationPlan, run_point
from .setting import TRACES


@dataclass
class ProtocolPoint:
    """One protocol's position in the success/delay-vs-cost planes."""

    protocol: str
    label: str
    success_percent: float
    mean_delay_s: float
    cost: float
    memory_byte_seconds: float = 0.0


@dataclass
class Fig8Panel:
    """All six protocols measured on one trace."""

    trace: str
    points: List[ProtocolPoint] = field(default_factory=list)

    def point(self, protocol: str) -> ProtocolPoint:
        """Look up a protocol's point.

        Raises:
            KeyError: if the protocol was not measured.
        """
        for p in self.points:
            if p.protocol == protocol:
                return p
        raise KeyError(protocol)

    def cost_reduction(self, vanilla: str, g2g: str) -> float:
        """Fractional replica reduction of ``g2g`` vs ``vanilla``."""
        base = self.point(vanilla).cost
        if base == 0:
            return 0.0
        return 1.0 - self.point(g2g).cost / base

    def memory_factor(self, vanilla: str, g2g: str) -> float:
        """G2G memory relative to its alter ego (Sec. VIII: "within a
        constant factor")."""
        base = self.point(vanilla).memory_byte_seconds
        if base == 0:
            return 0.0
        return self.point(g2g).memory_byte_seconds / base

    def render(self) -> str:
        """Text table: protocol, success %, delay, cost."""
        lines = [
            f"== fig8-{self.trace}: success/delay vs cost ==",
            f"{'protocol':<28}{'success %':>12}{'delay (min)':>14}"
            f"{'cost (replicas)':>18}{'memory (MB*s)':>16}",
        ]
        for p in self.points:
            lines.append(
                f"{p.label:<28}{p.success_percent:>12.1f}"
                f"{p.mean_delay_s / 60:>14.1f}{p.cost:>18.2f}"
                f"{p.memory_byte_seconds / 1e6:>16.1f}"
            )
        for vanilla, g2g in PAIRINGS:
            reduction = self.cost_reduction(vanilla, g2g)
            factor = self.memory_factor(vanilla, g2g)
            lines.append(
                f"  cost reduction {LABELS[g2g]} vs {LABELS[vanilla]}: "
                f"{reduction:.0%} (memory factor {factor:.2f}x)"
            )
        return "\n".join(lines)


#: (vanilla, g2g) pairs whose cost reduction the paper highlights.
PAIRINGS = (
    ("epidemic", "g2g_epidemic"),
    ("delegation_last_contact", "g2g_delegation_last_contact"),
    ("delegation_frequency", "g2g_delegation_frequency"),
)


def run(
    quick: bool = False,
    plan: Optional[ReplicationPlan] = None,
    options: Optional[ExecutionOptions] = None,
) -> Dict[str, Fig8Panel]:
    """Reproduce Fig. 8; one :class:`Fig8Panel` per trace."""
    if plan is None:
        plan = ReplicationPlan.make(quick)
    panels: Dict[str, Fig8Panel] = {}
    for trace_name in TRACES:
        panel = Fig8Panel(trace=trace_name)
        for name in PROTOCOLS:
            point: PointResult = run_point(
                trace_name, name, plan=plan, options=options
            )
            panel.points.append(
                ProtocolPoint(
                    protocol=name,
                    label=LABELS[name],
                    success_percent=point.success_percent,
                    mean_delay_s=point.mean_delay,
                    cost=point.cost,
                    memory_byte_seconds=point.memory_byte_seconds,
                )
            )
        panels[trace_name] = panel
    return panels
