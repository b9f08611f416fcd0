"""Scenario campaigns: mixed populations, churn, energy heterogeneity.

The paper evaluates one deviation kind at a time against an otherwise
honest, always-on, battery-unbounded network.  This package asks the
robustness questions around that setting: declarative
:class:`ScenarioSpec` conditions combine an adversary *mix*, a churn
schedule, and per-node energy budgets, and :func:`run_campaign`
expands a list of them through the standard parallel runner into a
deterministic campaign matrix plus per-adversary-class telemetry.
See docs/scenarios.md.
"""

from .campaign import (
    CAMPAIGN_JSONL,
    CAMPAIGN_PROM,
    CampaignResult,
    run_campaign,
)
from .matrix import (
    MATRIX_COLUMNS,
    MATRIX_SCHEMA_VERSION,
    build_matrix,
    load_matrix,
    matrix_digest,
    render_matrix,
    write_matrix,
)
from .presets import PRESETS, preset
from .spec import (
    DEFAULT_SEEDS,
    ScenarioSpec,
    churn_events_for,
    energy_budgets_for,
)

__all__ = [
    "CAMPAIGN_JSONL",
    "CAMPAIGN_PROM",
    "CampaignResult",
    "DEFAULT_SEEDS",
    "MATRIX_COLUMNS",
    "MATRIX_SCHEMA_VERSION",
    "PRESETS",
    "ScenarioSpec",
    "build_matrix",
    "churn_events_for",
    "energy_budgets_for",
    "load_matrix",
    "matrix_digest",
    "preset",
    "render_matrix",
    "run_campaign",
    "write_matrix",
]
