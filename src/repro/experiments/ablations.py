"""Ablations of the G2G design choices (DESIGN.md §6).

The paper motivates several constants without sweeping them; these
ablations regenerate the trade-offs:

* **relay fanout** — the give-2 rule: cost/success as the cap varies;
* **Δ2 / Δ1** — detection rate vs how long relays must keep proofs;
* **quality timeframe** — liar detectability vs frame length (the
  destination can only verify declarations within its two retained
  completed frames);
* **blacklist propagation** — instant broadcast (the paper's
  assumption) vs contact-time gossip.
"""

from __future__ import annotations

from typing import Dict, Optional

from .parallel import ExecutionOptions
from .runner import FigureData, ReplicationPlan, Series, run_point

#: Default trace for ablations (the denser one resolves differences
#: with fewer seeds).
DEFAULT_TRACE = "infocom05"


def fanout_sweep(
    caps=(1, 2, 3, 4),
    trace_name: str = DEFAULT_TRACE,
    plan: Optional[ReplicationPlan] = None,
    options: Optional[ExecutionOptions] = None,
) -> FigureData:
    """Success % and cost of G2G Epidemic as the relay cap varies."""
    if plan is None:
        plan = ReplicationPlan.make(quick=True)
    success = Series(label="Delivery %")
    cost = Series(label="Cost (replicas)")
    for cap in caps:
        point = run_point(
            trace_name,
            "g2g_epidemic",
            plan=plan,
            config_overrides={"relay_fanout": cap},
            options=options,
        )
        success.add(cap, point.success_percent)
        cost.add(cap, point.cost)
    return FigureData(
        figure_id=f"ablation-fanout-{trace_name}",
        title="Give-2 rule ablation: relay cap vs delivery and cost",
        x_label="relay fanout cap",
        y_label="Delivery % / replicas",
        series=[success, cost],
    )


def delta2_sweep(
    factors=(1.25, 1.5, 2.0, 3.0),
    trace_name: str = DEFAULT_TRACE,
    droppers: int = 10,
    plan: Optional[ReplicationPlan] = None,
    options: Optional[ExecutionOptions] = None,
) -> FigureData:
    """Dropper detection rate in G2G Epidemic as Δ2/Δ1 varies.

    The paper sets Δ2 = 2Δ1 and reports >90% detection; shrinking the
    window trades detection for relay-side memory.
    """
    if plan is None:
        plan = ReplicationPlan.make(quick=True)
    series = Series(label="Detection rate %")
    for factor in factors:
        point = run_point(
            trace_name,
            "g2g_epidemic",
            deviation="dropper",
            deviation_count=droppers,
            plan=plan,
            config_overrides={"delta2_factor": factor},
            options=options,
        )
        series.add(factor, 100.0 * point.detection_rate)
    return FigureData(
        figure_id=f"ablation-delta2-{trace_name}",
        title="Δ2/Δ1 ablation: test window vs dropper detection",
        x_label="Δ2 / Δ1",
        y_label="Detection rate %",
        series=[series],
    )


def timeframe_sweep(
    timeframes=(10 * 60.0, 34 * 60.0, 60 * 60.0, 120 * 60.0),
    trace_name: str = DEFAULT_TRACE,
    liars: int = 10,
    plan: Optional[ReplicationPlan] = None,
    options: Optional[ExecutionOptions] = None,
) -> FigureData:
    """Liar detection in G2G Delegation as the quality frame varies.

    Too short a frame and deliveries outlive the destination's two
    retained snapshots (declarations become unverifiable); too long
    and the first frame never completes within the run.
    """
    if plan is None:
        plan = ReplicationPlan.make(quick=True)
    series = Series(label="Detection rate %")
    for timeframe in timeframes:
        point = run_point(
            trace_name,
            "g2g_delegation_last_contact",
            deviation="liar",
            deviation_count=liars,
            plan=plan,
            config_overrides={"quality_timeframe": timeframe},
            options=options,
        )
        series.add(timeframe / 60.0, 100.0 * point.detection_rate)
    return FigureData(
        figure_id=f"ablation-timeframe-{trace_name}",
        title="Quality-timeframe ablation: frame length vs liar detection",
        x_label="timeframe (minutes)",
        y_label="Detection rate %",
        series=[series],
    )


def buffer_capacity_sweep(
    capacities=(5, 10, 20, 40, None),
    trace_name: str = DEFAULT_TRACE,
    plan: Optional[ReplicationPlan] = None,
    options: Optional[ExecutionOptions] = None,
) -> FigureData:
    """Finite-buffer ablation: delivery and false convictions vs capacity.

    The paper assumes infinite buffers.  Under memory pressure an
    honest G2G relay may evict a body it still owes a storage proof
    for — and get convicted despite playing faithfully.  This sweep
    measures both the delivery cost and that false-conviction rate as
    the per-node buffer shrinks (all nodes honest).
    """
    if plan is None:
        plan = ReplicationPlan.make(quick=True)
    delivery = Series(label="Delivery %")
    false_convictions = Series(label="Honest nodes convicted")
    for capacity in capacities:
        point = run_point(
            trace_name,
            "g2g_epidemic",
            plan=plan,
            config_overrides={"buffer_capacity": capacity},
            options=options,
        )
        x = float(capacity) if capacity is not None else 0.0  # 0 = infinite
        delivery.add(x, point.success_percent)
        n_runs = max(1, len(point.runs))
        convicted = sum(
            len(run.detected_offenders()) for run in point.runs
        ) / n_runs
        false_convictions.add(x, convicted)
    return FigureData(
        figure_id=f"ablation-buffer-{trace_name}",
        title=(
            "Finite-buffer ablation: capacity vs delivery and false "
            "convictions (x=0 means unbounded)"
        ),
        x_label="buffer capacity (bodies)",
        y_label="Delivery % / convicted honest nodes",
        series=[delivery, false_convictions],
    )


def testers_comparison(
    trace_name: str = DEFAULT_TRACE,
    droppers: int = 10,
    plan: Optional[ReplicationPlan] = None,
    options: Optional[ExecutionOptions] = None,
) -> Dict[str, float]:
    """Who audits: the paper's source-only tests vs every-giver tests.

    Source-only testing is what makes auditing incentive-compatible
    (only the sender cares).  The ``any_giver`` variant — every relay
    audits its own takers — is *not* a Nash equilibrium but bounds how
    much detection speed the paper's design gives up.  Restricted to
    droppers: under every-giver auditing a cheating giver's corrupted
    label would let it frame an honest taker, one more reason the
    paper keeps tests at the source.
    """
    if plan is None:
        plan = ReplicationPlan.make(quick=True)
    out: Dict[str, float] = {}
    for mode in ("source", "any_giver"):
        point = run_point(
            trace_name,
            "g2g_epidemic",
            deviation="dropper",
            deviation_count=droppers,
            plan=plan,
            config_overrides={"testers": mode},
            options=options,
        )
        out[f"{mode}_detection_rate"] = point.detection_rate
        out[f"{mode}_detection_minutes"] = point.detection_delay / 60.0
        tests = sum(r.test_phases for r in point.runs) / max(
            1, len(point.runs)
        )
        out[f"{mode}_test_phases"] = tests
    return out


def blacklist_comparison(
    trace_name: str = DEFAULT_TRACE,
    droppers: int = 10,
    plan: Optional[ReplicationPlan] = None,
    options: Optional[ExecutionOptions] = None,
) -> Dict[str, float]:
    """Dropper detection with instant broadcast vs gossip dissemination.

    Detection (PoM creation) is detector-local, so rates match; the
    difference gossip makes is how fast the *rest* of the network
    learns — captured here by the conviction metrics staying equal
    while the gossip run keeps convicted nodes participating with
    not-yet-informed peers.
    """
    if plan is None:
        plan = ReplicationPlan.make(quick=True)
    out: Dict[str, float] = {}
    for label, instant in (("instant", True), ("gossip", False)):
        point = run_point(
            trace_name,
            "g2g_epidemic",
            deviation="dropper",
            deviation_count=droppers,
            plan=plan,
            config_overrides={"instant_blacklist": instant},
            options=options,
        )
        out[f"{label}_detection_rate"] = point.detection_rate
        out[f"{label}_detection_minutes"] = point.detection_delay / 60.0
        out[f"{label}_success_percent"] = point.success_percent
    return out
