"""Operation counters for the relay-loop hot path.

Wall-clock perf tests are flaky across machines; *operation counts*
are deterministic for a fixed seed.  The hot modules increment a
global :data:`COUNTERS` instance at the operations the hot-path
overhaul targets (signature HMACs, wire encodings, buffer scans,
relay-phase entries), so perf tests can assert "this run performed at
most N signatures" instead of "this run took at most N seconds".

The counters are always on: a slot attribute increment costs a few
nanoseconds per op, which is noise next to the HMAC or encoding it
counts.  Callers that want a per-run reading should ``reset()`` first
or diff two ``snapshot()`` dicts — the simulator never resets them on
its own (parallel experiment workers each run in their own process,
so per-process totals stay meaningful).
"""

from __future__ import annotations

from typing import Dict, Tuple

#: Names of every tracked operation, in report order.
FIELDS = (
    "signatures",            # provider.sign calls (one HMAC each)
    "verifications",         # provider.verify calls
    "mac_cache_hits",        # verifications answered from the MAC memo
    "hmac_prepares",         # HMAC objects built from a raw key
    "hmac_copies",           # HMACs derived from a prepared key (fast path)
    "encodings",             # wire._enc invocations (cache misses)
    "encoding_cache_hits",   # payload()/wire_bytes() served from cache
    "cert_checks",           # certificate-chain validations performed
    "cert_cache_hits",       # chain validations skipped via the cert cache
    "relay_entries",         # negotiations entered by _offer (post seen-filter)
    "relay_handoffs",        # relays that completed with a hand-off
    "buffer_scans",          # relay-candidate scans over a node buffer
    "buffer_scanned",        # copies inspected across all buffer scans
    "housekeeping_scans",    # ripe Δ2 purge batches actually applied
    "pending_scans",         # _pending_givers evaluations actually run
    "timers_scheduled",      # scheduler timers registered on the queue
    "timer_dispatches",      # timers fired through the event loop
    "timers_cancelled",      # timers cancelled before firing
    "spans_recorded",        # telemetry protocol-phase spans closed
    "stream_chunks",         # contact-source chunks pulled into the engine
    "stream_contacts",       # contacts streamed across all chunks
)


#: Which hot module owns which counters, keyed by path relative to the
#: ``repro`` package.  This is the contract the op-budget perf tests
#: rest on: a module listed here must actually increment every listed
#: field, or its budget assertions silently measure nothing.  The
#: ``G2G005`` lint rule (:mod:`repro.analysis.rules`) enforces the
#: mapping statically — update both sides together when moving an
#: instrumentation site.
HOT_MODULE_COUNTERS: Dict[str, Tuple[str, ...]] = {
    "core/g2g_base.py": (
        "relay_entries", "relay_handoffs",
        "housekeeping_scans", "pending_scans",
    ),
    "core/proofs.py": ("encodings",),
    "core/wire.py": ("encodings", "encoding_cache_hits"),
    "crypto/hashing.py": ("hmac_prepares", "hmac_copies"),
    "crypto/keys.py": ("cert_checks", "cert_cache_hits"),
    "crypto/provider.py": (
        "signatures", "verifications", "mac_cache_hits", "hmac_copies",
    ),
    "sim/events.py": (
        "timers_scheduled", "timer_dispatches", "timers_cancelled",
    ),
    "sim/node.py": ("buffer_scans", "buffer_scanned"),
    "telemetry/spans.py": ("spans_recorded",),
    "traces/stream.py": ("stream_chunks", "stream_contacts"),
}


class OpCounters:
    """A bundle of monotonically increasing operation counters."""

    __slots__ = FIELDS

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        """Zero every counter."""
        for name in FIELDS:
            setattr(self, name, 0)

    def snapshot(self) -> Dict[str, int]:
        """Current values as a plain dict (safe to mutate)."""
        return {name: getattr(self, name) for name in FIELDS}

    def diff(self, before: Dict[str, int]) -> Dict[str, int]:
        """Per-counter increase since a previous :meth:`snapshot`."""
        return {
            name: getattr(self, name) - before.get(name, 0)
            for name in FIELDS
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        inner = ", ".join(f"{n}={getattr(self, n)}" for n in FIELDS)
        return f"OpCounters({inner})"


#: The process-global counter instance the hot modules increment.
COUNTERS = OpCounters()
