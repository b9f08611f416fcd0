"""The stable public API facade: ``repro.api.run`` and ``repro.api.sweep``.

These two functions are the blessed entry points for driving the
reproduction programmatically.  They wrap the lower-level machinery —
:class:`repro.sim.Simulation`, :func:`repro.sim.run_simulation`,
:func:`repro.experiments.run_point` / ``run_series`` — behind a small,
keyword-driven surface that accepts names where the paper setting has
one (trace names, catalog protocol names, adversary kinds) and objects
where callers built their own.

``sweep`` names its protocol by catalog name — the only way an
experiment says which protocol it runs — and runs through
:func:`repro.experiments.parallel.execute_request`, the one path every
:class:`~repro.experiments.RunRequest` takes, pooled and cached.
Protocol variants such as the ``testers`` audit mode are config
overrides, not constructor arguments.  ``run`` expands adversaries,
churn and energy budgets with the same
:func:`~repro.experiments.parallel.expand_population`, and builds its
own :class:`Simulation` only because it also takes caller-built objects
(a trace, a protocol instance, a blacklist) that a request cannot describe.

The wrapped entry points are **not** deprecated in the breaking sense:
``Simulation``, ``run_simulation``, ``run_point`` and friends remain
public, supported, and are what the facade itself calls.  They are
simply no longer the *documented first door* — new code, the examples,
and the quickstart go through ``repro.api``, whose signatures are
pinned by ``tests/test_public_api.py``.

Quickstart::

    from repro import api

    results = api.run(trace="infocom05", protocol="g2g_epidemic", seed=7)
    print(f"delivered {results.success_rate:.0%}")

    points = api.sweep(
        trace="cambridge06", protocol="g2g_epidemic",
        counts=(0, 5, 10), adversary="dropper", workers=4,
    )
"""

from __future__ import annotations

import os
from dataclasses import replace
from typing import (
    TYPE_CHECKING,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

if TYPE_CHECKING:
    from .crypto.provider import CryptoProvider

from .adversaries.base import Strategy
from .core.blacklist import BlacklistService
from .experiments.cache import RunCache
from .experiments.catalog import protocol as catalog_protocol
from .experiments.parallel import (
    ExecutionOptions,
    RunReport,
    expand_population,
)
from .experiments.runner import PointResult, run_series
from .experiments.setting import (
    ReplicationPlan,
    evaluation_community,
    evaluation_trace,
)
from .protocols.base import CommunityOracle, ForwardingProtocol
from .sim.config import SimulationConfig, config_for
from .sim.engine import Simulation
from .sim.results import SimulationResults
from .telemetry.export import TelemetryCollector
from .traces.stream import ContactSource, ensure_contact_source
from .traces.trace import ContactTrace, NodeId

#: What ``run``/``sweep`` accept as a telemetry sink: a directory path
#: (per-run JSONL records are appended under it) or a caller-owned
#: :class:`TelemetryCollector`.
TelemetrySink = Union[str, "os.PathLike[str]", TelemetryCollector]


def _resolve_telemetry(
    telemetry: Optional[TelemetrySink], filename: str
) -> Tuple[Optional[TelemetryCollector], Optional[str]]:
    """Normalize a telemetry sink into (collector, export path)."""
    if telemetry is None:
        return None, None
    if isinstance(telemetry, TelemetryCollector):
        return telemetry, None
    directory = os.fspath(telemetry)
    return TelemetryCollector(), os.path.join(directory, filename)


def run(
    trace: Union[str, ContactTrace, ContactSource],
    protocol: Union[str, ForwardingProtocol],
    config: Union[None, SimulationConfig, Mapping[str, object]] = None,
    *,
    seed: Optional[int] = None,
    adversary: Optional[str] = None,
    adversary_count: int = 0,
    mix: Optional[Mapping[str, float]] = None,
    churn: Optional[Sequence[Tuple[float, float, Optional[float]]]] = None,
    energy_budgets: Optional[Sequence[object]] = None,
    strategies: Optional[Dict[NodeId, Strategy]] = None,
    community: Optional[CommunityOracle] = None,
    blacklist: Optional[BlacklistService] = None,
    telemetry: Optional[TelemetrySink] = None,
    provider: Union[None, str, "CryptoProvider"] = None,
) -> SimulationResults:
    """Execute one simulation run — the blessed single-run entry point.

    Args:
        trace: an evaluation trace name ("infocom05" / "cambridge06"),
            resolved to the paper's windowed setting with its detected
            communities, a ready :class:`ContactTrace` used as-is, or
            a streaming :class:`~repro.traces.ContactSource` (e.g. a
            :class:`~repro.traces.SyntheticStreamSource` mega-trace)
            fed to the engine chunk by chunk.
        protocol: a catalog name (``repro.experiments.PROTOCOLS``) or
            a fresh protocol instance (never reuse one across runs).
        config: a full :class:`SimulationConfig`, a mapping of config
            overrides, or None for the paper defaults.  For named
            traces, overrides apply on top of the trace/family preset
            (:func:`repro.sim.config_for`).
        seed: master seed; overrides the one carried by ``config``.
        adversary: adversary kind ("dropper" / "liar" / "cheater",
            with-outsiders variants included) planted over the node
            population; mutually exclusive with ``strategies``.
        adversary_count: how many nodes deviate.
        mix: mixed adversary population as kind -> population
            fraction (see :func:`repro.adversaries.mixed_population`);
            mutually exclusive with ``adversary`` and ``strategies``.
        churn: churn cohorts as ``(fraction, leave_time,
            rejoin_time)`` tuples (``rejoin_time`` None = gone for
            good), expanded deterministically per seed.
        energy_budgets: per-node energy-budget spec —
            ``("constant", joules)`` or ``("uniform", lo, hi)``.
        strategies: explicit per-node strategy map (advanced).
        community: community oracle; defaults to the detected one for
            named traces and to None for caller-supplied traces.
        blacklist: PoM propagation service override.
        telemetry: a directory (the run's JSONL record is appended to
            ``<dir>/runs.jsonl``) or a :class:`TelemetryCollector`.
        provider: crypto provider tier for Give2Get protocols — a
            tier name from :data:`repro.crypto.TIER_NAMES` ("real" /
            "simulated") or a ready
            :class:`~repro.crypto.CryptoProvider` instance.  None
            keeps the protocol's own default (simulated).  Raises
            :class:`ValueError` for protocols that take no provider
            (e.g. plain epidemic).

    Returns:
        The run's :class:`SimulationResults`, with the telemetry
        snapshot attached as ``results.telemetry``.
    """
    trace_obj: Union[ContactTrace, ContactSource]
    if isinstance(trace, str):
        trace_obj = evaluation_trace(trace)
        if community is None:
            community = evaluation_community(trace)
    else:
        trace_obj = trace
    # A streaming source declares its universe (possibly as a range).
    universe = ensure_contact_source(trace_obj, "api.run").universe

    if isinstance(protocol, str):
        family, factory = catalog_protocol(protocol)
        protocol_obj = factory()
        assert isinstance(protocol_obj, ForwardingProtocol)
    else:
        protocol_obj = protocol
        family = protocol_obj.family

    if provider is not None:
        use_provider = getattr(protocol_obj, "use_provider", None)
        if use_provider is None:
            raise ValueError(
                f"protocol {protocol_obj.name!r} does not take a crypto "
                "provider; the provider= argument only applies to the "
                "Give2Get families"
            )
        use_provider(provider)

    if isinstance(config, SimulationConfig):
        run_config = config
        if seed is not None:
            run_config = replace(run_config, seed=seed)
    else:
        overrides = dict(config) if config else {}
        if seed is not None:
            overrides["seed"] = seed
        if isinstance(trace, str):
            run_config = config_for(trace, family, **overrides)
        else:
            run_config = SimulationConfig(**overrides)  # type: ignore[arg-type]

    if mix is not None and (strategies is not None or adversary is not None):
        raise ValueError(
            "pass exactly one of mix, adversary/adversary_count,"
            " or strategies"
        )
    if strategies is not None and adversary is not None and adversary_count > 0:
        raise ValueError(
            "pass either adversary/adversary_count or strategies, not both"
        )
    population = expand_population(
        universe,
        run_config.seed,
        community,
        deviation=adversary,
        deviation_count=adversary_count,
        mix=mix,
        churn=churn,
        energy_budget=energy_budgets,
    )
    if strategies is None:
        strategies = population.strategies

    results = Simulation(
        trace_obj,
        protocol_obj,
        run_config,
        strategies=strategies,
        community=community,
        blacklist=blacklist,
        churn=population.churn,
        energy_budgets=population.energy_budgets,
    ).run()

    collector, export_path = _resolve_telemetry(telemetry, "runs.jsonl")
    if collector is not None:
        collector.add(results)
        if export_path is not None:
            collector.write_jsonl(export_path)
    return results


def sweep(
    trace: str,
    protocol: str,
    counts: Sequence[int],
    *,
    adversary: str = "dropper",
    seeds: Sequence[int] = (1, 2, 3),
    config_overrides: Optional[Mapping[str, object]] = None,
    workers: int = 1,
    cache_dir: Optional[str] = None,
    report: Optional[RunReport] = None,
    telemetry: Optional[TelemetrySink] = None,
) -> List[Tuple[int, PointResult]]:
    """Run an adversary-count sweep — the blessed experiment entry point.

    Wraps :func:`repro.experiments.run_series`: the full
    (count × seed) matrix executes as one flat batch, optionally over a
    process pool and against an on-disk run cache, and each grid
    point's runs average into one :class:`PointResult` whose
    ``telemetry`` is the deterministically merged snapshot of its runs.

    Args:
        trace: evaluation trace name ("infocom05" / "cambridge06").
        protocol: catalog protocol name.
        counts: adversary counts to sweep (0 runs all-honest).
        adversary: adversary kind planted at non-zero counts.
        seeds: replication seeds averaged into each point.
        config_overrides: optional :class:`SimulationConfig` overrides.
        workers: process count (1 = sequential, the exact same output).
        cache_dir: run-cache directory; None disables caching.  Note
            that cache-hit runs carry no telemetry snapshot.
        report: optional :class:`RunReport` accumulator.
        telemetry: a directory (per-run records append to
            ``<dir>/sweep.jsonl``) or a :class:`TelemetryCollector`.

    Returns:
        ``(count, PointResult)`` pairs in the order of ``counts``.
    """
    collector, export_path = _resolve_telemetry(telemetry, "sweep.jsonl")
    options = ExecutionOptions(
        workers=workers,
        cache=RunCache(cache_dir) if cache_dir is not None else None,
        report=report,
        telemetry=collector,
    )
    points = run_series(
        trace,
        protocol,
        counts,
        adversary,
        plan=ReplicationPlan(seeds=tuple(seeds)),
        config_overrides=dict(config_overrides) if config_overrides else None,
        options=options,
    )
    if collector is not None and export_path is not None:
        collector.write_jsonl(export_path)
    return points


__all__ = ["TelemetrySink", "run", "sweep"]
