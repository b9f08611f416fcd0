"""Campaign execution: expand specs, run the grid, emit the matrix.

A campaign is a list of :class:`~repro.scenarios.spec.ScenarioSpec`
conditions.  :func:`run_campaign` flattens every condition's seed
replications into **one** request batch for
:func:`~repro.experiments.parallel.run_requests` — scenarios run
concurrently with each other, not just their own seeds — then slices
the merged results back per spec and derives:

* the campaign matrix (one row per (scenario, seed), headline metrics
  plus the per-adversary-class breakdown);
* per-run telemetry JSONL records tagged with the scenario name and
  carrying the ``scenario.class.*`` counter keys;
* a merged Prometheus-style snapshot over every live run.

Results merge in request order and the per-class breakdown reads only
serialized result fields, so the matrix — and its digest — is
identical whatever the worker count or cache state.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence

from ..experiments.cache import RunCache
from ..experiments.parallel import (
    ExecutionOptions,
    RunReport,
    RunRequest,
    run_requests,
)
from ..telemetry.export import run_record, to_prometheus, write_jsonl
from ..telemetry.population import (
    inject_population_metrics,
    population_metrics,
)
from ..telemetry.run import merge_run_snapshots
from .matrix import build_matrix, matrix_digest
from .spec import ScenarioSpec

#: Telemetry file names used under ``telemetry_dir``.
CAMPAIGN_JSONL = "campaign.jsonl"
CAMPAIGN_PROM = "campaign.prom"


@dataclass
class CampaignResult:
    """Everything one campaign invocation produced.

    Attributes:
        matrix: the versioned campaign-matrix document.
        digest: SHA-256 of the matrix's canonical encoding.
        records: per-run telemetry JSONL records (live runs only —
            cache hits carry no telemetry snapshot).
        merged: merged telemetry snapshot over ``records``.
        report: run/cache accounting from the parallel runner.
    """

    matrix: Dict[str, Any]
    digest: str
    records: List[Dict[str, Any]] = field(default_factory=list)
    merged: Dict[str, Any] = field(default_factory=dict)
    report: RunReport = field(default_factory=RunReport)


def _matrix_row(
    spec: ScenarioSpec,
    request: RunRequest,
    results: Any,
    metrics: Dict[str, float],
) -> Dict[str, Any]:
    summary = results.summary()
    # Summed in sorted-node order, NOT summary()["total_energy"]: the
    # live energy dict accrues in protocol order while a cache
    # round-trip rebuilds it in serialized order, and float addition
    # is order-sensitive — the canonical order makes the column (and
    # the matrix digest) cache-state independent.
    total_energy = 0.0
    for node in sorted(results.energy):
        total_energy += results.energy[node]
    row: Dict[str, Any] = {
        "scenario": spec.name,
        "trace": spec.trace,
        "protocol": spec.protocol,
        "seed": request.seed,
        "generated": summary["generated"],
        "delivered": summary["delivered"],
        "success_rate": summary["success_rate"],
        "cost": summary["cost"],
        "mean_delay": summary["mean_delay"],
        "detections": summary["detections"],
        "evictions": float(len(results.evicted_at)),
        "total_energy": total_energy,
    }
    for name in sorted(metrics):
        # "scenario.class.dropper.energy" -> "class.dropper.energy":
        # inside a matrix row the scenario prefix is redundant.
        row[name.split(".", 1)[1]] = metrics[name]
    return row


def run_campaign(
    specs: Sequence[ScenarioSpec],
    workers: int = 1,
    cache: Optional[RunCache] = None,
    telemetry_dir: Optional[str] = None,
    on_progress: Optional[Callable[[int, int, bool], None]] = None,
) -> CampaignResult:
    """Run every scenario of a campaign and build its matrix.

    Args:
        specs: the campaign's conditions (names must be unique).
        workers: process count for the parallel runner.
        cache: optional run cache consulted/filled per run.
        telemetry_dir: when given, the JSONL records and the merged
            Prometheus snapshot are written beneath it.
        on_progress: per-run progress callback ``(done, total,
            was_cached)``.

    Raises:
        ValueError: on duplicate scenario names or an empty campaign.
    """
    if not specs:
        raise ValueError("campaign needs at least one scenario")
    names = [spec.name for spec in specs]
    if len(set(names)) != len(names):
        raise ValueError(f"duplicate scenario names: {names}")
    flat: List[RunRequest] = []
    owners: List[ScenarioSpec] = []
    for spec in specs:
        for request in spec.requests():
            flat.append(request)
            owners.append(spec)
    report = RunReport()
    options = ExecutionOptions(
        workers=workers,
        cache=cache,
        report=report,
        on_progress=on_progress,
    )
    results = run_requests(flat, options)

    rows: List[Dict[str, Any]] = []
    records: List[Dict[str, Any]] = []
    for spec, request, result in zip(owners, flat, results):
        metrics = population_metrics(
            request.inputs()[1], request.roles(), result
        )
        rows.append(_matrix_row(spec, request, result, metrics))
        if result.telemetry is not None:
            record = run_record(result)
            record["scenario"] = spec.name
            inject_population_metrics(record, metrics)
            records.append(record)
    matrix = build_matrix(rows)
    merged = merge_run_snapshots(
        [record["telemetry"] for record in records]
    )
    if telemetry_dir is not None:
        os.makedirs(telemetry_dir, exist_ok=True)
        write_jsonl(os.path.join(telemetry_dir, CAMPAIGN_JSONL), records)
        with open(
            os.path.join(telemetry_dir, CAMPAIGN_PROM), "w", encoding="utf-8"
        ) as handle:
            handle.write(to_prometheus(merged))
    return CampaignResult(
        matrix=matrix,
        digest=matrix_digest(matrix),
        records=records,
        merged=merged,
        report=report,
    )
