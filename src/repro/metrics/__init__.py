"""Metric aggregation, shape predicates, and table rendering."""

from .asciichart import ascii_chart, chart_figure
from .aggregate import Estimate, aggregate, detection_rates
from .compare import monotone_decreasing, roughly_flat
from .report import minutes, percent, text_table

__all__ = [
    "ascii_chart",
    "chart_figure",
    "Estimate",
    "aggregate",
    "detection_rates",
    "minutes",
    "monotone_decreasing",
    "percent",
    "roughly_flat",
    "text_table",
]
