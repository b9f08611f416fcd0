"""Declarative scenario specifications.

A :class:`ScenarioSpec` describes one evaluation condition — which
trace and protocol, what fraction of the population runs which
adversary strategy, which cohorts churn in and out and when, and how
per-node energy budgets are distributed — as plain picklable values.
The spec expands into :class:`~repro.experiments.parallel.RunRequest`
grid points (one per replication seed), so campaigns ride the same
parallel runner and run cache as every figure.

All node-level expansion (which node gets which role, who churns,
who gets which budget) is derived from seed-keyed RNG streams, never
from ambient randomness: the same spec and seed always select the
same nodes, whatever process or worker count expands them.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from ..adversaries.factory import mix_counts
from ..experiments.catalog import protocol
from ..experiments.parallel import RunRequest
from ..sim.engine import ChurnEvent
from ..traces.trace import NodeId

#: Replication seeds used when a spec does not name its own.
DEFAULT_SEEDS: Tuple[int, ...] = (1, 2, 3)

#: Recognized energy-budget distributions.
ENERGY_DISTRIBUTIONS = ("constant", "uniform")


def _validate_energy_budget(budget: Tuple[Any, ...]) -> None:
    if not budget:
        return
    kind = budget[0]
    if kind == "constant":
        if len(budget) != 2:
            raise ValueError(
                "constant energy budget takes exactly one value:"
                " ('constant', joules)"
            )
        if float(budget[1]) <= 0:
            raise ValueError("energy budget must be positive")
    elif kind == "uniform":
        if len(budget) != 3:
            raise ValueError(
                "uniform energy budget takes two bounds:"
                " ('uniform', lo, hi)"
            )
        lo, hi = float(budget[1]), float(budget[2])
        if lo <= 0 or hi < lo:
            raise ValueError(
                "uniform energy budget needs 0 < lo <= hi"
            )
    else:
        raise ValueError(
            f"unknown energy distribution {kind!r};"
            f" expected one of {ENERGY_DISTRIBUTIONS}"
        )


def _validate_churn(
    cohorts: Sequence[Tuple[float, float, Optional[float]]],
) -> None:
    for fraction, leave_time, rejoin_time in cohorts:
        if not 0.0 <= fraction <= 1.0:
            raise ValueError(
                f"churn fraction must lie in [0, 1], got {fraction}"
            )
        if leave_time < 0:
            raise ValueError(
                f"churn leave time must be non-negative, got {leave_time}"
            )
        if rejoin_time is not None and rejoin_time <= leave_time:
            raise ValueError(
                f"churn rejoin time must come after the leave time,"
                f" got rejoin {rejoin_time} <= leave {leave_time}"
            )


@dataclass(frozen=True)
class ScenarioSpec:
    """One evaluation condition of a campaign.

    Attributes:
        name: scenario label (matrix rows and telemetry records carry
            it; must be unique within a campaign).
        trace: evaluation trace name ("infocom05", "cambridge06").
        protocol: :data:`repro.experiments.catalog.PROTOCOLS` name.
        mix: adversary kind -> population fraction; the remainder of
            the population is honest.  Kinds come from
            :data:`repro.adversaries.DEVIATIONS`; fractions are
            expanded with largest-remainder rounding, so realized
            counts are within one node of ``fraction * n``.
        churn: cohorts of ``(fraction, leave_time, rejoin_time)``;
            ``rejoin_time`` None means the cohort never returns.
            Cohorts are disjoint (sampled without replacement, in
            listed order).
        energy_budget: ``()`` for the paper's unbounded batteries,
            ``("constant", joules)`` or ``("uniform", lo, hi)``.
            Community-conditioned adversaries are requested through
            the kind name (``"dropper_with_outsiders"``), exactly as
            in the single-deviation experiments.
        seeds: replication seeds; one run request per seed.
        overrides: sorted :class:`~repro.sim.config.SimulationConfig`
            override pairs applied to every run of the scenario.
    """

    name: str
    trace: str = "cambridge06"
    protocol: str = "g2g_epidemic"
    mix: Tuple[Tuple[str, float], ...] = ()
    churn: Tuple[Tuple[float, float, Optional[float]], ...] = ()
    energy_budget: Tuple[Any, ...] = ()
    seeds: Tuple[int, ...] = DEFAULT_SEEDS
    overrides: Tuple[Tuple[str, object], ...] = ()

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("scenario needs a name")
        if not self.seeds:
            raise ValueError(f"scenario {self.name!r} needs at least one seed")
        protocol(self.protocol)  # raises KeyError on unknown names
        # mix_counts validates kinds, signs, and the fraction sum; the
        # node count only scales the quotas, so any positive n works
        # as a validation probe.
        mix_counts(100, dict(self.mix))
        _validate_churn(self.churn)
        _validate_energy_budget(self.energy_budget)

    @property
    def family(self) -> str:
        """TTL family of the scenario's protocol."""
        family, _ = protocol(self.protocol)
        return family

    def requests(self) -> Tuple[RunRequest, ...]:
        """The scenario's grid points, one per replication seed."""
        return tuple(
            RunRequest(
                trace_name=self.trace,
                family=self.family,
                protocol_name=self.protocol,
                seed=seed,
                overrides=self.overrides,
                mix=tuple(sorted(self.mix)),
                churn=self.churn,
                energy_budget=self.energy_budget,
            )
            for seed in self.seeds
        )

    # -- serialization --------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready representation (round-trips via from_dict)."""
        return {
            "name": self.name,
            "trace": self.trace,
            "protocol": self.protocol,
            "mix": {kind: fraction for kind, fraction in sorted(self.mix)},
            "churn": [list(cohort) for cohort in self.churn],
            "energy_budget": list(self.energy_budget),
            "seeds": list(self.seeds),
            "overrides": {name: value for name, value in self.overrides},
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ScenarioSpec":
        """Build a spec from its JSON form.

        Raises:
            ValueError: on unknown keys or invalid field values (the
                constructor validation applies).
        """
        known = {
            "name", "trace", "protocol", "mix", "churn",
            "energy_budget", "seeds", "overrides",
        }
        unknown = sorted(set(data) - known)
        if unknown:
            raise ValueError(
                f"unknown scenario keys: {', '.join(unknown)}"
            )
        if "name" not in data:
            raise ValueError("scenario needs a name")
        kwargs: Dict[str, Any] = {"name": data["name"]}
        for key in ("trace", "protocol"):
            if key in data:
                kwargs[key] = data[key]
        if "mix" in data:
            kwargs["mix"] = tuple(sorted(
                (str(kind), float(fraction))
                for kind, fraction in dict(data["mix"]).items()
            ))
        if "churn" in data:
            kwargs["churn"] = tuple(
                (
                    float(cohort[0]),
                    float(cohort[1]),
                    None if cohort[2] is None else float(cohort[2]),
                )
                for cohort in data["churn"]
            )
        if "energy_budget" in data:
            kwargs["energy_budget"] = tuple(data["energy_budget"])
        if "seeds" in data:
            kwargs["seeds"] = tuple(int(seed) for seed in data["seeds"])
        if "overrides" in data:
            kwargs["overrides"] = tuple(sorted(
                (str(name), value)
                for name, value in dict(data["overrides"]).items()
            ))
        return cls(**kwargs)


def churn_events_for(
    nodes: Iterable[NodeId],
    cohorts: Sequence[Tuple[float, float, Optional[float]]],
    seed: int,
) -> List[ChurnEvent]:
    """Expand churn cohorts into node-level join/leave transitions.

    Cohorts draw without replacement from a shrinking pool in listed
    order, each through the same seed-keyed stream — the node-level
    schedule is a pure function of ``(nodes, cohorts, seed)``.
    """
    _validate_churn(cohorts)
    pool = sorted(nodes)
    total = len(pool)
    rng = random.Random(f"{seed}|scenario|churn")
    transitions: List[ChurnEvent] = []
    for fraction, leave_time, rejoin_time in cohorts:
        count = min(int(round(fraction * total)), len(pool))
        if count <= 0:
            continue
        members = sorted(rng.sample(pool, count))
        pool = [node for node in pool if node not in set(members)]
        for node in members:
            transitions.append(ChurnEvent(leave_time, node, "leave"))
            if rejoin_time is not None:
                transitions.append(ChurnEvent(rejoin_time, node, "join"))
    return transitions


def energy_budgets_for(
    nodes: Iterable[NodeId],
    budget: Tuple[Any, ...],
    seed: int,
) -> Dict[NodeId, float]:
    """Expand an energy-budget spec into per-node budgets.

    The uniform distribution draws one budget per node in sorted node
    order from a seed-keyed stream, so heterogeneous budgets are as
    reproducible as everything else.
    """
    _validate_energy_budget(budget)
    if not budget:
        return {}
    ordered = sorted(nodes)
    if budget[0] == "constant":
        value = float(budget[1])
        return {node: value for node in ordered}
    lo, hi = float(budget[1]), float(budget[2])
    rng = random.Random(f"{seed}|scenario|energy")
    return {node: rng.uniform(lo, hi) for node in ordered}
