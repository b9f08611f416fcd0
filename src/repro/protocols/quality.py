"""Forwarding-quality trackers for Delegation Forwarding.

Two flavors, matching the paper (Sec. VI):

* **Destination Frequency** — "the number of encounters with the
  destination";
* **Destination Last Contact** — "the time of the last encounter with
  the destination".

Both are *symmetric pair metrics*: the quality of B towards D is a
function of the B–D encounter history, which both B and D observe
identically.  G2G Delegation exploits that symmetry for the test by
the destination: D can recompute what B should have declared.

For G2G, declared values are not the live quality but "the quality
computed in the last completed timeframe"; every node keeps "the
current and the two forwarding qualities computed in the previous two
completed timeframes" (Sec. VI-A).  :class:`TimeframedQuality`
implements exactly that versioning with lazy frame rollover.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Dict, Optional, Tuple

from ..traces.trace import NodeId

if TYPE_CHECKING:  # circular at runtime: base imports sim, sim uses us
    from .base import SimulationContext

#: How many completed frame snapshots each record retains.
SNAPSHOT_DEPTH = 2

#: Scheduler tag of the timeframe-rollover timer chain.
FRAME_TIMER_TAG = "quality.frame"


@dataclass
class _PairRecord:
    """Quality state of one unordered node pair.

    ``snapshots`` maps a completed frame index to the quality value as
    of that frame's end; only the most recent :data:`SNAPSHOT_DEPTH`
    completed frames are retained, mirroring the paper's "three
    versions" rule (current + two).
    """

    current: float = 0.0
    last_frame: int = 0
    snapshots: Dict[int, float] = field(default_factory=dict)

    def roll(self, frame: int) -> None:
        """Advance to ``frame``, snapshotting the frames completed since.

        No encounters happened between updates, so every intermediate
        completed frame ends with the same ``current`` value.
        """
        if frame <= self.last_frame:
            return
        for completed in range(self.last_frame, frame):
            self.snapshots[completed] = self.current
        # Trim to the retention window.
        for old in [f for f in self.snapshots if f < frame - SNAPSHOT_DEPTH]:
            del self.snapshots[old]
        self.last_frame = frame


class QualityTracker:
    """Encounter-driven quality bookkeeping for one simulation run.

    Args:
        variant: "frequency" or "last_contact".
        timeframe: frame length in seconds (the paper uses 34 min).
    """

    VARIANTS = ("frequency", "last_contact")

    def __init__(self, variant: str, timeframe: float) -> None:
        if variant not in self.VARIANTS:
            raise ValueError(
                f"unknown variant {variant!r}; expected one of {self.VARIANTS}"
            )
        if timeframe <= 0:
            raise ValueError("timeframe must be positive")
        self.variant = variant
        self.timeframe = timeframe
        # Keyed by the unordered pair as ``(min, max)``: a tuple of two
        # ints hashes and compares faster than a frozenset.
        self._records: Dict[Tuple[NodeId, NodeId], _PairRecord] = {}

    def _record(self, a: NodeId, b: NodeId) -> _PairRecord:
        key = (a, b) if a <= b else (b, a)
        record = self._records.get(key)
        if record is None:
            record = self._records[key] = _PairRecord()
        return record

    def frame_of(self, now: float) -> int:
        """Index of the frame containing ``now``."""
        return int(now // self.timeframe)

    # -- frame-boundary timers -----------------------------------------

    def schedule_rollover(self, ctx: "SimulationContext") -> None:
        """Register the first frame-boundary timer with the run scheduler.

        Timeframe completions then fire as events instead of being
        recomputed per query.  The per-query ``roll`` calls stay as
        idempotent guards: events *at* a boundary instant sort before
        the boundary's ``TIMER`` (contacts and generations have lower
        priority), so a same-instant query must still advance its own
        record first.  ``roll_all`` is therefore a no-op for every
        record already touched in the frame — results are identical
        with or without the timer chain, by construction.
        """
        ctx.schedule(self.timeframe, FRAME_TIMER_TAG, 1)

    def handle_frame_timer(
        self, ctx: "SimulationContext", payload: Any, now: float
    ) -> None:
        """Frame ``payload`` completed: roll every record, chain onward.

        The next boundary is computed as ``(frame + 1) * timeframe``
        (multiplication, not accumulation) so the chain never drifts
        off the exact boundaries ``frame_of`` quantizes to.  The chain
        ends by itself at the horizon — the scheduler refuses timers
        past run end.
        """
        frame = int(payload)
        self.roll_all(frame)
        ctx.schedule((frame + 1) * self.timeframe, FRAME_TIMER_TAG, frame + 1)

    def roll_all(self, frame: int) -> None:
        """Advance every pair record to ``frame`` (boundary dispatch)."""
        for record in self._records.values():
            record.roll(frame)

    def encounter(self, a: NodeId, b: NodeId, now: float) -> None:
        """Record one contact between ``a`` and ``b``."""
        record = self._record(a, b)
        record.roll(self.frame_of(now))
        if self.variant == "frequency":
            record.current += 1.0
        else:
            record.current = now

    def current(self, node: NodeId, destination: NodeId, now: float) -> float:
        """Live quality of ``node`` towards ``destination``.

        This is what vanilla Delegation Forwarding uses.
        """
        record = self._record(node, destination)
        record.roll(self.frame_of(now))
        return record.current

    def completed(
        self, node: NodeId, destination: NodeId, now: float
    ) -> Tuple[float, int]:
        """Quality from the last completed timeframe, with its index.

        This is what G2G Delegation declares in FQ_RESP messages.
        Returns ``(value, frame_index)``; the value is 0.0 when no
        frame has completed yet.
        """
        # One call per negotiation: ``frame_of`` and the no-op roll of
        # an up-to-date record are inlined.
        frame = int(now // self.timeframe)
        record = self._record(node, destination)
        if frame > record.last_frame:
            record.roll(frame)
        if frame == 0:
            return 0.0, -1
        return record.snapshots.get(frame - 1, record.current), frame - 1

    def value_at_frame(
        self, node: NodeId, destination: NodeId, frame: int, now: float
    ) -> Optional[float]:
        """Quality as of the end of completed frame ``frame``.

        Returns None when the frame is outside the retention window —
        the verifier then cannot check the declaration (the paper's
        timeframe is chosen so delays fall within the window with high
        probability).
        """
        record = self._record(node, destination)
        record.roll(self.frame_of(now))
        return record.snapshots.get(frame)

    def better(self, candidate: float, incumbent: float) -> bool:
        """Is ``candidate`` strictly better than ``incumbent``?

        Both variants use numeric greater-than: more encounters, or a
        more recent last-contact time.
        """
        return candidate > incumbent
