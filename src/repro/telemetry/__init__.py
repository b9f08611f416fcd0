"""Run telemetry: metrics registry, span tracing, deterministic export.

The observability layer the parallel experiment harness was missing:
per-run :class:`MetricsRegistry` snapshots (subsuming the process-wide
``repro.perf.COUNTERS`` readings), protocol-phase span aggregates, and
exporters (JSONL per run, Prometheus-style text) whose merged output
is bit-identical whether the runs executed sequentially or across a
worker pool.  See docs/observability.md for the full catalogue and
merge semantics.
"""

from .export import (
    TelemetryCollector,
    read_jsonl,
    record_line,
    run_record,
    summarize_dir,
    to_prometheus,
    validate_record,
    write_jsonl,
)
from .population import inject_population_metrics, population_metrics
from .registry import (
    DEFAULT_TIME_BUCKETS,
    TELEMETRY_SCHEMA_VERSION,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    merge_metric_snapshots,
)
from .run import RunTelemetry, merge_run_snapshots
from .spans import (
    SPAN_DESTINATION_TEST,
    SPAN_POM,
    SPAN_RELAY_HANDSHAKE,
    SPAN_SENDER_TEST,
    SpanRecorder,
)

__all__ = [
    "Counter",
    "DEFAULT_TIME_BUCKETS",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "RunTelemetry",
    "SPAN_DESTINATION_TEST",
    "SPAN_POM",
    "SPAN_RELAY_HANDSHAKE",
    "SPAN_SENDER_TEST",
    "SpanRecorder",
    "TELEMETRY_SCHEMA_VERSION",
    "TelemetryCollector",
    "inject_population_metrics",
    "merge_metric_snapshots",
    "population_metrics",
    "merge_run_snapshots",
    "read_jsonl",
    "record_line",
    "run_record",
    "summarize_dir",
    "to_prometheus",
    "validate_record",
    "write_jsonl",
]
