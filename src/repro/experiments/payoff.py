"""Empirical payoff analysis: the Nash argument, measured.

Section IV-C of the paper defines each player's payoff as a function
that (i) decreases with expected energy and memory cost and (ii) drops
to zero if the player loses the ability to send/receive messages with
the original protocol's performance.  The Nash theorems then argue no
unilateral deviation improves that payoff.

This module makes the argument *measurable*: :func:`best_response_check`
runs the honest profile and, for each candidate deviation, a profile
where exactly one node deviates — then compares that node's realized
utility.  It is an empirical check on simulated runs (a complement to,
not a replacement for, the paper's proof), and doubles as a regression
guard: if a code change ever made deviation profitable, the Nash test
in the suite would fail.

Utility model (simulation counterpart of the paper's ``f_i``)::

    utility_i = service_value * delivered_own_messages_i
              - energy_weight * joules_i
              - memory_weight * byte_seconds_i        (zeroed on eviction
                                                       for the service term)
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple

from ..sim.results import SimulationResults
from ..traces.trace import NodeId
from .catalog import protocol
from .parallel import ExecutionOptions, run_requests
from .runner import _requests_for_point
from .setting import ReplicationPlan


@dataclass(frozen=True)
class UtilityModel:
    """Weights of the utility function.

    The defaults make one delivered message worth far more than the
    energy of relaying it — the regime the paper assumes (every node
    "has the ultimate interest of being part of the system").
    """

    service_value: float = 10.0
    energy_weight: float = 1.0
    memory_weight: float = 1e-9

    def utility(self, node: NodeId, results: SimulationResults) -> float:
        """Realized utility of ``node`` in one finished run."""
        delivered_own = sum(
            1
            for record in results.messages.values()
            if record.message.source == node and record.delivered
        )
        received_own = sum(
            1
            for record in results.messages.values()
            if record.message.destination == node and record.delivered
        )
        if node in results.evicted_at:
            # Eviction forfeits the service: the paper's "payoff drops
            # to zero" — costs already paid still count against it.
            service = 0.0
        else:
            service = self.service_value * (delivered_own + received_own)
        return (
            service
            - self.energy_weight * results.energy.get(node, 0.0)
            - self.memory_weight
            * results.memory_byte_seconds.get(node, 0.0)
        )


#: The utility every best-response check scores runs with.
MODEL = UtilityModel()


@dataclass
class DeviationOutcome:
    """Result of one unilateral-deviation comparison."""

    deviation: str
    node: NodeId
    honest_utility: float
    deviant_utility: float
    detected: bool

    @property
    def profitable(self) -> bool:
        """True if deviating strictly beat honesty (a Nash violation)."""
        return self.deviant_utility > self.honest_utility


@dataclass
class BestResponseReport:
    """All deviation outcomes for one protocol/trace pairing."""

    protocol: str
    outcomes: List[DeviationOutcome] = field(default_factory=list)

    @property
    def nash_holds(self) -> bool:
        """No tested deviation was profitable."""
        return not any(o.profitable for o in self.outcomes)

    def render(self) -> str:
        """Text table of the comparisons."""
        lines = [
            f"== empirical best-response check: {self.protocol} ==",
            f"{'deviation':<12}{'node':>6}{'honest U':>12}"
            f"{'deviant U':>12}{'detected':>10}{'profitable':>12}",
        ]
        for o in self.outcomes:
            lines.append(
                f"{o.deviation:<12}{o.node:>6}{o.honest_utility:>12.2f}"
                f"{o.deviant_utility:>12.2f}"
                f"{str(o.detected):>10}{str(o.profitable):>12}"
            )
        lines.append(f"Nash equilibrium holds empirically: {self.nash_holds}")
        return "\n".join(lines)


def best_response_check(
    trace_name: str,
    protocol_name: str,
    deviations: Tuple[str, ...] = ("dropper",),
    probe_nodes: Optional[Sequence[NodeId]] = None,
    plan: Optional[ReplicationPlan] = None,
    config_overrides: Optional[Dict[str, object]] = None,
    options: Optional[ExecutionOptions] = None,
) -> BestResponseReport:
    """Compare honest vs unilaterally-deviating *expected* utility.

    The paper's payoff is an expectation: a liar that dodges detection
    in one lucky run still loses on average because conviction (and
    with it the whole service term) happens with high probability.
    Utilities are therefore averaged over the plan's seeds — each seed
    re-draws the traffic while the trace stays fixed.

    Every run is a :class:`~repro.experiments.parallel.RunRequest`: the
    honest profile is the figures' count-0 point, and each deviant
    profile places exactly one ``(node, kind)``.  The whole check is
    one batch through :func:`run_requests`, so it is pooled and cached
    like any figure.

    Args:
        trace_name: "infocom05" or "cambridge06".
        protocol_name: a :data:`repro.experiments.catalog.PROTOCOLS`
            name.
        deviations: deviation kinds to probe.
        probe_nodes: nodes to test (default: the first three of the
            run's node universe — every additional node costs one
            simulation per kind and seed).
        plan: replication plan (defaults to the standard 3 seeds).
        config_overrides: optional :class:`SimulationConfig` overrides.
        options: worker count and cache; defaults to sequential and
            uncached.

    Returns:
        A :class:`BestResponseReport`; ``report.nash_holds`` is the
        empirical verdict.

    Raises:
        KeyError: for an unknown protocol name, before any run starts.
    """
    family, _ = protocol(protocol_name)
    honest = _requests_for_point(
        trace_name, family, protocol_name, None, 0,
        plan or ReplicationPlan(), config_overrides,
    )
    if probe_nodes is None:
        probe_nodes = honest[0].inputs()[1][:3]
    probes = [(kind, node) for kind in deviations for node in probe_nodes]
    batch = honest + [
        replace(request, placement=((node, kind),))
        for kind, node in probes
        for request in honest
    ]
    results = run_requests(batch, options)
    n = len(honest)
    honest_runs = results[:n]
    report = BestResponseReport(protocol=honest_runs[0].protocol)

    def mean_utility(node: NodeId, runs: List[SimulationResults]) -> float:
        return sum(MODEL.utility(node, run) for run in runs) / len(runs)

    for i, (kind, node) in enumerate(probes, start=1):
        deviant_runs = results[i * n:(i + 1) * n]
        report.outcomes.append(
            DeviationOutcome(
                deviation=kind,
                node=node,
                honest_utility=mean_utility(node, honest_runs),
                deviant_utility=mean_utility(node, deviant_runs),
                detected=any(node in run.evicted_at for run in deviant_runs),
            )
        )
    return report
