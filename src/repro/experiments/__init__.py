"""Experiment harness: one module per paper table/figure plus ablations.

Each module exposes ``run(quick=False)`` returning structured results
with a ``render()`` text form; the benchmark suite under
``benchmarks/`` drives these and prints the paper-shaped tables.
"""

from . import ablations, fig3, fig4, fig5, fig7, fig8, table1
from .cache import CacheStats, RunCache, run_key
from .catalog import LABELS, PROTOCOLS, protocol
from .parallel import (
    ExecutionOptions,
    RunReport,
    RunRequest,
    execute_request,
    run_requests,
)
from .runner import (
    FigureData,
    PointResult,
    ReplicationPlan,
    Series,
    point_from_runs,
    run_point,
    run_series,
)
from .setting import (
    COMMUNITY_PARAMS,
    TRACES,
    adversary_counts,
    evaluation_community,
    evaluation_trace,
    standard_config,
)

__all__ = [
    "COMMUNITY_PARAMS",
    "CacheStats",
    "ExecutionOptions",
    "FigureData",
    "LABELS",
    "PROTOCOLS",
    "PointResult",
    "ReplicationPlan",
    "RunCache",
    "RunReport",
    "RunRequest",
    "Series",
    "TRACES",
    "ablations",
    "adversary_counts",
    "evaluation_community",
    "evaluation_trace",
    "execute_request",
    "fig3",
    "fig4",
    "fig5",
    "fig7",
    "fig8",
    "point_from_runs",
    "protocol",
    "run_key",
    "run_point",
    "run_requests",
    "run_series",
    "standard_config",
    "table1",
]
