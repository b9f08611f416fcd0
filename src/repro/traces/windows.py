"""Evaluation-window helpers.

The paper's experimental setting (Sec. V-C) isolates **3-hour periods**
of each data trace; each simulation runs over one such period and no
traffic is generated in the final hour to avoid end effects.  This
module centralizes window selection so every experiment slices traces
the same way.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import Callable, List

from .trace import ContactTrace, ensure_contact_trace

#: The paper's standard evaluation window length.
STANDARD_WINDOW = 3 * 3600.0

#: Length of the trailing silent period (no message generation).
SILENT_TAIL = 3600.0


@dataclass(frozen=True)
class EvaluationWindow:
    """A [start, start + length) slice of a trace used for one run."""

    start: float
    length: float = STANDARD_WINDOW

    @property
    def end(self) -> float:
        """Exclusive end of the window."""
        return self.start + self.length

    @property
    def generation_deadline(self) -> float:
        """Last instant (relative to the window) when traffic may start."""
        return self.length - SILENT_TAIL

    def slice(self, trace: ContactTrace) -> ContactTrace:
        """Clip ``trace`` to this window (times shifted to 0).

        Raises:
            TypeError: if handed a :class:`~repro.traces.synthetic.SyntheticTrace`
                bundle instead of the :class:`ContactTrace` it wraps — a
                recurring slip, since ``trace_by_name`` returns the
                bundle.  Pass its ``.trace`` attribute.
        """
        trace = ensure_contact_trace(trace, "EvaluationWindow.slice")
        return trace.window(self.start, self.end)


def overlap_counter(trace: ContactTrace) -> Callable[[float, float], int]:
    """Build ``count(start, end)``: the contacts overlapping [start, end).

    ``count(s, e)`` equals ``sum(c.overlaps(s, e) for c in trace)`` for
    every ``s < e``.  A contact overlaps iff it starts before ``e`` and
    ends after ``s``; a contact ending at or before ``s`` also starts
    before ``e``, so the count of the first set minus the count of the
    second is exact.  Building takes O(N log N), each query O(log N).
    """
    # Contacts are sorted by (start, end, ...), so their starts are too.
    starts = [c.start for c in trace.contacts]
    ends = sorted(c.end for c in trace.contacts)

    def count(start: float, end: float) -> int:
        return bisect_left(starts, end) - bisect_right(ends, start)

    return count


def _check_scan(length: float, step: float) -> None:
    """Reject scan parameters that would hang or break the count."""
    if length <= 0:
        raise ValueError(
            f"window length must be positive, got length={length}; pass"
            f" a length in seconds such as STANDARD_WINDOW"
        )
    if step <= 0:
        raise ValueError(
            f"window step must be positive, got step={step}; a"
            f" non-positive step never advances the scan"
        )


def busiest_window(
    trace: ContactTrace,
    length: float = STANDARD_WINDOW,
    step: float = 1800.0,
) -> EvaluationWindow:
    """Find the window of ``length`` seconds with the most contacts.

    Experiments should run during an active period (an overnight window
    would measure nothing); scanning at ``step`` granularity is plenty
    because activity varies on the hour scale.  Costs O((N + W) log N)
    for N contacts and W candidate windows.

    Raises:
        ValueError: if ``length`` or ``step`` is not positive.
    """
    _check_scan(length, step)
    if trace.duration < length:
        return EvaluationWindow(start=trace.start_time, length=length)
    overlapping = overlap_counter(trace)
    best_start = trace.start_time
    best_count = -1
    start = trace.start_time
    while start + length <= trace.end_time + step:
        count = overlapping(start, start + length)
        if count > best_count:
            best_count = count
            best_start = start
        start += step
    return EvaluationWindow(start=best_start, length=length)


def active_windows(
    trace: ContactTrace,
    length: float = STANDARD_WINDOW,
    step: float = 3600.0,
    min_contacts: int = 50,
) -> List[EvaluationWindow]:
    """All windows with at least ``min_contacts`` contacts.

    Useful for multi-window replication: the paper reports averages
    over runs; replicating over several active windows (rather than
    re-seeding one window) matches trace-driven practice.  Costs
    O((N + W) log N) for N contacts and W candidate windows.

    Raises:
        ValueError: if ``length`` or ``step`` is not positive.
    """
    _check_scan(length, step)
    overlapping = overlap_counter(trace)
    windows: List[EvaluationWindow] = []
    start = trace.start_time
    while start + length <= trace.end_time:
        if overlapping(start, start + length) >= min_contacts:
            windows.append(EvaluationWindow(start=start, length=length))
        start += step
    return windows
