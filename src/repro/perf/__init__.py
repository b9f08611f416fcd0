"""Performance instrumentation: op counters, memory probes, scale sweep.

``repro.perf.counters`` is imported by the hot modules themselves and
must stay dependency-free.  The repository's benchmark lives outside
the package, in ``perfbench/``.
"""

from .counters import COUNTERS, OpCounters
from .memory import current_rss_bytes, measure_peak_alloc, peak_rss_bytes

__all__ = [
    "COUNTERS",
    "OpCounters",
    "current_rss_bytes",
    "measure_peak_alloc",
    "peak_rss_bytes",
]
