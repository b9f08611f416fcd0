"""Contact traces: data model, I/O, statistics, and synthetic generators.

See DESIGN.md §3 for why the shipped experiments run on synthetic
community-structured stand-ins of the CRAWDAD Infocom 05 and
Cambridge 06 traces, and how the real traces drop in via
:func:`repro.traces.io.load_trace`.
"""

from .mobility import (
    MobilityConfig,
    MobilitySimulator,
    lab_config,
    simulate_mobility,
)
from .io import (
    TraceFormatError,
    dump_trace,
    iter_chunked_contacts,
    load_trace,
    parse_trace,
    read_chunked_universe,
    save_trace,
    write_chunked_contacts,
)
from .presets import (
    DELEGATION_TTL,
    EPIDEMIC_TTL,
    QUALITY_TIMEFRAME,
    cambridge06,
    infocom05,
    standard_window,
    trace_by_name,
)
from .stats import (
    SummaryStats,
    TraceProfile,
    contact_durations,
    contacts_per_pair,
    inter_contact_times,
    pairwise_contacts,
    reencounter_probability,
)
from .synthetic import (
    ActivityWindow,
    CommunityAssignment,
    CommunityModelConfig,
    SyntheticTrace,
    generate,
)
from .stream import (
    ChunkedFileSource,
    ContactSource,
    InMemorySource,
    StreamModelConfig,
    SyntheticStreamSource,
    ensure_contact_source,
    source_from_spec,
)
from .trace import (
    Contact,
    ContactTrace,
    NodeId,
    ensure_contact_trace,
    make_contact,
)
from .windows import (
    SILENT_TAIL,
    STANDARD_WINDOW,
    EvaluationWindow,
    active_windows,
    busiest_window,
)

__all__ = [
    "ActivityWindow",
    "ChunkedFileSource",
    "CommunityAssignment",
    "CommunityModelConfig",
    "Contact",
    "ContactSource",
    "ContactTrace",
    "DELEGATION_TTL",
    "EPIDEMIC_TTL",
    "EvaluationWindow",
    "InMemorySource",
    "NodeId",
    "QUALITY_TIMEFRAME",
    "SILENT_TAIL",
    "STANDARD_WINDOW",
    "StreamModelConfig",
    "SummaryStats",
    "SyntheticStreamSource",
    "SyntheticTrace",
    "TraceFormatError",
    "TraceProfile",
    "active_windows",
    "busiest_window",
    "cambridge06",
    "contact_durations",
    "contacts_per_pair",
    "dump_trace",
    "ensure_contact_source",
    "ensure_contact_trace",
    "generate",
    "infocom05",
    "inter_contact_times",
    "iter_chunked_contacts",
    "lab_config",
    "load_trace",
    "make_contact",
    "MobilityConfig",
    "MobilitySimulator",
    "pairwise_contacts",
    "parse_trace",
    "read_chunked_universe",
    "reencounter_probability",
    "save_trace",
    "simulate_mobility",
    "source_from_spec",
    "standard_window",
    "trace_by_name",
    "write_chunked_contacts",
]
