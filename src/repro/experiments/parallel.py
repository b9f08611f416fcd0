"""Parallel execution of independent simulation runs.

Every paper figure is a grid of *independently seeded* simulations —
embarrassingly parallel work the sequential runner left on the table.
This module fans a batch of :class:`RunRequest` grid points out over a
``ProcessPoolExecutor`` and merges the results back **in request
order**, so parallel and sequential execution produce bit-identical
output; ``workers=1`` is exactly the old in-process path.

An optional :class:`~repro.experiments.cache.RunCache` is consulted
before any run executes and written after each successful run, so a
warm cache short-circuits the whole batch.  Cache writes happen only
in the parent process and only for runs that completed — a worker
crash surfaces its exception (the first one in request order, after
the rest of the batch drains) without hanging the pool or leaving a
partial cache entry behind.
"""

from __future__ import annotations

import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    List,
    Mapping,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from ..adversaries.base import Strategy
from ..adversaries.factory import (
    mixed_population,
    population_from_roles,
    strategy_population,
)
from ..sim.config import SimulationConfig, config_for
from ..sim.engine import ChurnEvent, Simulation
from ..sim.results import SimulationResults
from ..telemetry.export import TelemetryCollector
from ..traces.stream import ContactSource, source_from_spec
from ..traces.trace import ContactTrace, NodeId
from .cache import RunCache, run_key
from .catalog import protocol
from .setting import evaluation_community, evaluation_trace

if TYPE_CHECKING:
    from ..protocols.base import CommunityOracle


@dataclass(frozen=True)
class RunRequest:
    """One simulation run, fully described by picklable values.

    Attributes:
        trace_name: "infocom05" or "cambridge06".
        family: TTL family, "epidemic" or "delegation".
        protocol_name: a :data:`repro.experiments.catalog.PROTOCOLS`
            name — the worker rebuilds the factory from it, and the
            cache keys on it.
        seed: replication seed (traffic, crypto, adversary placement).
        deviation: adversary kind, or None for all-honest.
        deviation_count: how many nodes deviate.
        overrides: sorted ``(field, value)`` pairs of
            :class:`~repro.sim.config.SimulationConfig` overrides,
            kept as a tuple so requests stay hashable and picklable.
        mix: adversary-mix fractions as sorted ``(kind, fraction)``
            pairs (scenario runs); mutually exclusive with
            ``deviation``.
        churn: churn cohorts as ``(fraction, leave_time, rejoin_time)``
            tuples (``rejoin_time`` None for permanent departures).
        energy_budget: energy-budget spec, ``()`` for unbounded,
            ``("constant", joules)`` or ``("uniform", lo, hi)``.
        source: streaming-source spec as sorted ``(field, value)``
            pairs of a :class:`repro.traces.StreamModelConfig` —
            ``()`` for ordinary trace runs.  When set, the worker
            rebuilds the synthetic stream from the spec instead of
            loading an evaluation trace, and ``trace_name`` is a
            display label only.  Source runs carry their full config
            in ``overrides`` (there is no preset TTL table for
            synthetic universes) and have no community oracle.
        placement: explicit adversaries as sorted ``(node, kind)``
            pairs — the Nash checks' "exactly this node deviates";
            mutually exclusive with ``deviation`` and ``mix``.

    The worker expands deviation, mix, placement, churn and energy
    budget over the run's node universe with :func:`expand_population`
    — the evaluation trace's nodes, or the stream's node range for
    source runs — so a source request plants adversaries exactly as
    :func:`repro.api.run` does on the same source.
    """

    trace_name: str
    family: str
    protocol_name: str
    seed: int
    deviation: Optional[str] = None
    deviation_count: int = 0
    overrides: Tuple[Tuple[str, object], ...] = ()
    mix: Tuple[Tuple[str, float], ...] = ()
    churn: Tuple[Tuple[float, float, Optional[float]], ...] = ()
    energy_budget: Tuple[Any, ...] = ()
    source: Tuple[Tuple[str, Any], ...] = ()
    placement: Tuple[Tuple[NodeId, str], ...] = ()

    def config(self) -> SimulationConfig:
        """The run's full simulation configuration."""
        if self.source:
            overrides = dict(self.overrides)
            overrides["seed"] = self.seed
            return SimulationConfig(**overrides)  # type: ignore[arg-type]
        return config_for(
            self.trace_name,
            self.family,
            seed=self.seed,
            **dict(self.overrides),
        )

    def scenario_extras(self) -> Optional[Mapping[str, Any]]:
        """Scenario inputs for the cache key, None for plain runs.

        Plain (pre-scenario) requests return None so their cache keys
        — and any entries archived under them — are unchanged.
        """
        if not (self.mix or self.churn or self.energy_budget):
            return None
        return {
            "mix": [list(pair) for pair in self.mix],
            "churn": [list(cohort) for cohort in self.churn],
            "energy_budget": list(self.energy_budget),
        }

    def cache_key(self) -> str:
        """Content hash for the run cache."""
        return run_key(
            trace_name=self.trace_name,
            family=self.family,
            protocol_name=self.protocol_name,
            deviation=self.deviation,
            deviation_count=self.deviation_count,
            seed=self.seed,
            config=self.config(),
            scenario=self.scenario_extras(),
            source=self.source or None,
            placement=self.placement or None,
        )

    def inputs(self) -> Tuple[Union[ContactTrace, ContactSource], Sequence[NodeId], Any]:
        """The run's contacts, node universe and community oracle.

        A source request rebuilds its stream (a node-range universe, no
        communities); a trace request uses the cached evaluation trace.
        """
        if self.source:
            source = source_from_spec(self.source)
            return source, source.universe, None
        trace = evaluation_trace(self.trace_name)
        return trace, trace.nodes, evaluation_community(self.trace_name)

    def roles(self) -> Dict[str, Tuple[NodeId, ...]]:
        """Adversary kind -> member nodes, replayed without churn or budgets."""
        _, universe, community = self.inputs()
        return expand_population(
            universe,
            self.seed,
            community,
            deviation=self.deviation,
            deviation_count=self.deviation_count,
            mix=self.mix,
            placement=self.placement,
        ).roles

    def misbehaving(self) -> Tuple[NodeId, ...]:
        """The deterministic, sorted set of deviating nodes for this run."""
        return tuple(
            sorted(node for nodes in self.roles().values() for node in nodes)
        )


class Population(NamedTuple):
    """A run's expanded nodes; None (or no roles) where nothing expands."""

    strategies: Optional[Dict[NodeId, Strategy]]
    roles: Dict[str, Tuple[NodeId, ...]]
    churn: Optional[List[ChurnEvent]]
    energy_budgets: Optional[Dict[NodeId, float]]


def expand_population(
    universe: Sequence[NodeId],
    seed: int,
    community: Optional["CommunityOracle"] = None,
    *,
    deviation: Optional[str] = None,
    deviation_count: int = 0,
    mix: Union[None, Mapping[str, float], Sequence[Tuple[str, float]]] = None,
    placement: Sequence[Tuple[NodeId, str]] = (),
    churn: Optional[Sequence[Tuple[float, float, Optional[float]]]] = None,
    energy_budget: Optional[Sequence[Any]] = None,
) -> Population:
    """Expand a run's adversaries, churn and energy budgets over its nodes.

    The one place a run description becomes per-node state, shared by
    :func:`execute_request`, :func:`repro.api.run` and the placement
    replay of :meth:`RunRequest.roles`.  The arguments mean what the
    :class:`RunRequest` fields of the same names mean; ``mix`` wins
    over ``deviation``, and both over ``placement`` (callers reject
    requests carrying more than one).
    """
    strategies = None
    roles: Dict[str, Tuple[NodeId, ...]] = {}
    if mix:
        strategies, roles = mixed_population(
            universe, dict(mix), seed=seed, community=community
        )
    elif deviation is not None and deviation_count > 0:
        strategies, misbehaving = strategy_population(
            universe,
            deviation,
            deviation_count,
            seed=seed,
            community=community,
        )
        roles = {deviation: misbehaving}
    elif placement:
        strategies = population_from_roles(
            universe, dict(placement), community
        )
        for node, kind in sorted(placement):
            roles[kind] = roles.get(kind, ()) + (node,)
    schedule = None
    budgets = None
    if churn or energy_budget:
        # Lazy import: repro.scenarios imports this module for
        # RunRequest/run_requests, so the expansion helpers load only
        # when a run actually has churn or budgets.
        from ..scenarios.spec import churn_events_for, energy_budgets_for

        if churn:
            schedule = churn_events_for(universe, churn, seed=seed)
        if energy_budget:
            budgets = energy_budgets_for(
                universe, tuple(energy_budget), seed=seed
            )
    return Population(strategies, roles, schedule, budgets)


def execute_request(request: RunRequest) -> SimulationResults:
    """Run one request to completion (the worker-side entry point).

    The protocol factory is resolved from the catalog by
    ``request.protocol_name``, so an unknown name fails in the worker.
    """
    if not isinstance(request, RunRequest):
        raise TypeError(
            f"execute_request expects a RunRequest, got"
            f" {type(request).__name__} — build one with"
            f" RunRequest(trace_name=..., family=..., protocol_name=...)"
        )
    _, factory = protocol(request.protocol_name)
    carried = [
        name
        for name, value in (
            ("deviation", request.deviation is not None),
            ("mix", request.mix),
            ("placement", request.placement),
        )
        if value
    ]
    if len(carried) > 1:
        raise ValueError(
            "a RunRequest carries a single deviation, a mix or a"
            f" placement, not both: got {' and '.join(carried)}"
        )
    contacts, universe, community = request.inputs()
    population = expand_population(
        universe,
        request.seed,
        community,
        deviation=request.deviation,
        deviation_count=request.deviation_count,
        mix=request.mix,
        placement=request.placement,
        churn=request.churn,
        energy_budget=request.energy_budget,
    )
    return Simulation(
        contacts,
        factory(),
        request.config(),
        strategies=population.strategies,
        churn=population.churn,
        energy_budgets=population.energy_budgets,
    ).run()


@dataclass
class RunReport:
    """Progress/timing accounting for one experiment invocation."""

    executed: int = 0
    cached: int = 0
    seconds: float = 0.0

    @property
    def total(self) -> int:
        """Total runs satisfied (simulated plus cache hits)."""
        return self.executed + self.cached

    def summary(self) -> str:
        """One-line human rendering for the CLI."""
        return (
            f"{self.total} runs: {self.executed} simulated, "
            f"{self.cached} cache hits, {self.seconds:.1f}s wall"
        )


@dataclass
class ExecutionOptions:
    """How a batch of runs executes: worker count, cache, reporting.

    Attributes:
        workers: process count; 1 (default) runs in-process on the
            exact sequential path.
        cache: optional :class:`RunCache`; None disables both reads
            and writes (the CLI's ``--no-cache``).
        report: optional accumulator; one report can span several
            experiment modules (the CLI threads a single one through
            a whole figure).
        on_progress: optional callback fired after each satisfied run
            with ``(done, total, was_cached)``.
        telemetry: optional collector; every finished batch feeds its
            results in **request order**, so the merged metric totals
            are identical whatever the worker count.  Cache hits carry
            no telemetry snapshot (the JSON run cache stores simulation
            outcomes only) and are counted as skipped by the collector.
    """

    workers: int = 1
    cache: Optional[RunCache] = None
    report: Optional[RunReport] = None
    on_progress: Optional[Callable[[int, int, bool], None]] = None
    telemetry: Optional[TelemetryCollector] = None

    def _tick(self, done: int, total: int, was_cached: bool) -> None:
        if self.on_progress is not None:
            self.on_progress(done, total, was_cached)


def run_requests(
    requests: Sequence[RunRequest],
    options: Optional[ExecutionOptions] = None,
) -> List[SimulationResults]:
    """Execute a batch of requests, returning results in request order.

    Cache hits are satisfied first; the remainder runs in-process
    (``workers <= 1``) or on a process pool.  Output is deterministic:
    ``results[i]`` always corresponds to ``requests[i]``, whatever the
    completion order, so parallel and sequential runs are
    bit-identical.

    Raises:
        TypeError: if ``requests`` is a single :class:`RunRequest` (wrap
            it in a list) or contains non-``RunRequest`` items.
        Exception: the first (in request order) worker exception, after
            every other run in the batch has drained — the pool never
            hangs and successful runs are still cached.
    """
    if isinstance(requests, RunRequest):
        raise TypeError(
            "run_requests expects a sequence of RunRequest objects, got"
            " a single RunRequest — wrap it in a list: run_requests([request])"
        )
    for position, request in enumerate(requests):
        if not isinstance(request, RunRequest):
            raise TypeError(
                f"run_requests expects RunRequest objects,"
                f" got {type(request).__name__} at index {position}"
            )
    if options is None:
        options = ExecutionOptions()
    started = time.perf_counter()  # g2g: allow(G2G002: wall time feeds the run report only, never results)
    total = len(requests)
    results: List[Optional[SimulationResults]] = [None] * total
    keys = [r.cache_key() for r in requests]
    pending: List[int] = []
    done = 0
    cached = 0
    for i, request in enumerate(requests):
        hit = None
        if options.cache is not None:
            hit = options.cache.get(keys[i])
        if hit is not None:
            results[i] = hit
            cached += 1
            done += 1
            options._tick(done, total, True)
        else:
            pending.append(i)

    def store(i: int, result: SimulationResults) -> None:
        nonlocal done
        results[i] = result
        if options.cache is not None:
            options.cache.put(keys[i], result)
        done += 1
        options._tick(done, total, False)

    try:
        if options.workers <= 1 or len(pending) <= 1:
            for i in pending:
                store(i, execute_request(requests[i]))
        else:
            # Warm the trace/community caches in the parent first:
            # fork-started workers then inherit the built artifacts
            # instead of each re-running community detection.  A source
            # request's stream is rebuilt in its worker.
            for i in pending:
                if not requests[i].source:
                    requests[i].inputs()
            workers = min(options.workers, len(pending))
            with ProcessPoolExecutor(max_workers=workers) as pool:
                futures = {
                    i: pool.submit(execute_request, requests[i])
                    for i in pending
                }
                error: Optional[BaseException] = None
                for i in pending:
                    try:
                        result = futures[i].result()
                    except BaseException as exc:  # g2g: allow-broad-except(first worker error is re-raised after the batch drains)
                        if error is None:
                            error = exc
                        continue
                    store(i, result)
                if error is not None:
                    raise error
    finally:
        if options.report is not None:
            options.report.executed += done - cached
            options.report.cached += cached
            # g2g: allow(G2G002: wall time feeds the run report only, never results)
            options.report.seconds += time.perf_counter() - started
    if options.telemetry is not None:
        # Fed strictly in request order (not completion order): float
        # metric sums then fold identically for any worker count.
        for result in results:
            options.telemetry.add(result)
    return results
