"""Span tracing over the Give2Get protocol phases.

A *span* here is deliberately lightweight: the recorder does not keep
one record per occurrence (a full run has hundreds of thousands of
phase executions), it keeps one aggregate per span *name* — count,
total crypto-op deltas, and the first/last simulation times the span
was seen.  That is exactly what the paper-level questions need ("how
much signing does the relay handshake cost vs the sender test?") while
staying result-neutral and cheap enough for the hot path.

Span timing uses **simulation time only** — wall-clock reads are
banned in this package by lint rule G2G002, and wall times would break
the cross-worker merge-equality contract anyway.

Usage::

    token = recorder.begin(now)
    ...  # phase body
    recorder.end(SPAN_RELAY_HANDSHAKE, token, now)

Spans may nest (the destination test runs inside a relay handshake);
op deltas then count toward *both* spans, which is the intended
reading — each span reports the ops performed while it was open.
"""

from __future__ import annotations

from typing import Dict, Tuple

from ..perf import COUNTERS

#: Protocol-phase span names (the taxonomy documented in
#: docs/observability.md).  Keep in sync with the instrumentation in
#: repro.core.g2g_base.
SPAN_RELAY_HANDSHAKE = "relay_handshake"
SPAN_SENDER_TEST = "sender_test"
SPAN_DESTINATION_TEST = "destination_test"
SPAN_POM = "pom_eviction"

#: Perf-counter fields whose per-span deltas are worth attributing to
#: a protocol phase.  A subset of ``repro.perf.FIELDS``: the expensive
#: crypto/wire operations.
SPAN_OP_FIELDS: Tuple[str, ...] = (
    "signatures",
    "verifications",
    "encodings",
    "hmac_copies",
)

#: A begin() token: the op-counter readings when the span opened plus
#: the simulation time.
SpanToken = Tuple[int, int, int, int, float]


class SpanAggregate:
    """Folded statistics for every execution of one span name.

    Op deltas live in one plain int slot per field (not a dict): the
    recorder closes ~44k spans per cambridge06 run, and four dict
    lookups per close were measurable on the hot path.  ``snapshot``
    rebuilds the documented ``ops`` mapping.
    """

    __slots__ = (
        "count",
        "signatures",
        "verifications",
        "encodings",
        "hmac_copies",
        "first_time",
        "last_time",
    )

    def __init__(self) -> None:
        self.count = 0
        self.signatures = 0
        self.verifications = 0
        self.encodings = 0
        self.hmac_copies = 0
        self.first_time = 0.0
        self.last_time = 0.0


class SpanRecorder:
    """Aggregating span recorder for one simulation run."""

    __slots__ = ("_spans",)

    def __init__(self) -> None:
        self._spans: Dict[str, SpanAggregate] = {}

    def begin(self, now: float) -> SpanToken:
        """Open a span: capture the current op-counter readings."""
        return (
            COUNTERS.signatures,
            COUNTERS.verifications,
            COUNTERS.encodings,
            COUNTERS.hmac_copies,
            now,
        )

    def end(self, name: str, token: SpanToken, now: float) -> None:
        """Close the span opened by ``token`` under ``name``."""
        aggregate = self._spans.get(name)
        if aggregate is None:
            aggregate = self._spans[name] = SpanAggregate()
            aggregate.first_time = token[4]
        aggregate.count += 1
        aggregate.signatures += COUNTERS.signatures - token[0]
        aggregate.verifications += COUNTERS.verifications - token[1]
        aggregate.encodings += COUNTERS.encodings - token[2]
        aggregate.hmac_copies += COUNTERS.hmac_copies - token[3]
        if token[4] < aggregate.first_time:
            aggregate.first_time = token[4]
        if now > aggregate.last_time:
            aggregate.last_time = now
        COUNTERS.spans_recorded += 1

    def snapshot(self) -> Dict[str, Dict[str, object]]:
        """JSON-able, key-sorted aggregate per span name."""
        return {
            name: {
                "count": aggregate.count,
                "ops": {
                    field: getattr(aggregate, field)
                    for field in SPAN_OP_FIELDS
                },
                "first_time": aggregate.first_time,
                "last_time": aggregate.last_time,
            }
            for name, aggregate in sorted(self._spans.items())
        }
