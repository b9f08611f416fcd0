"""Machine-speed reference: scales the benchmark's CPU times.

The shared virtual machines the benchmark runs on slow down for
minutes at a time, by up to 2.5x, and the guest kernel does not report
it as steal: CPU time grows with wall time.  Both are then useless for
comparing two runs made at different moments.  So the measured phase
interleaves short samples of a fixed reference workload with the
program's work, and every time the benchmark reports is a CPU time
scaled by ``NOMINAL_S`` over the reference's mean CPU time in the same
phase: the CPU seconds the work would have taken on the machine at its
usual speed.

The reference is the benchmark's own code and never changes with the
program.  It does the kinds of work the simulator does — allocating
small objects, dict and set updates, a binary heap of events, attribute
access over a table of thousands of nodes — so that a slowdown hits it
about as hard as it hits the program.  It does not track a slowdown
exactly: over twelve minutes in which the unscaled pass times of one
input set rose by 40-60%, the scaled ones moved by 7% (paper_sweep,
stream_epidemic) and 20% (paper_warm).
"""

from __future__ import annotations

import gc
import heapq
import random
import signal
import statistics
import time
from typing import List

#: CPU seconds of one :func:`reference` call on the 2-vCPU machine the
#: benchmark was tuned on, at its usual speed: 0.068 s measured while a
#: plain arithmetic loop ran at half its usual speed.
NOMINAL_S = 0.034

#: Seconds between two samples while work is running.  A timer signal
#: takes them, so they are spread evenly over the work wherever it is.
INTERVAL_S = 0.5

#: Samples taken before and after a set-up.
SAMPLES_AROUND_SETUP = 4


class _Node:
    __slots__ = ("buffer", "seen", "contacts")

    def __init__(self) -> None:
        self.buffer: dict = {}
        self.seen: set = set()
        self.contacts = 0


def reference(nodes: int = 20000, events: int = 8000, loops: int = 60000,
              seed: int = 7) -> int:
    """A fixed slice of simulator-like work; returns a checksum.

    Random contacts over a freshly allocated table of ``nodes`` nodes
    (a few MB: memory-bound, like the engine's node state), then a
    tight dict loop (cache-resident, like the protocol hooks).
    """
    rng = random.Random(seed)
    table = [_Node() for _ in range(nodes)]
    heap = [
        (rng.random(), i, rng.randrange(nodes), rng.randrange(nodes))
        for i in range(events)
    ]
    heapq.heapify(heap)
    copies = 0
    while heap:
        _, i, a, b = heapq.heappop(heap)
        sender, receiver = table[a], table[b]
        sender.contacts += 1
        receiver.contacts += 1
        if i % 5 == 0:
            sender.buffer[i] = (a, b)
        for message, copy in list(sender.buffer.items())[:8]:
            if message not in receiver.seen:
                receiver.seen.add(message)
                receiver.buffer[message] = copy
                copies += 1
    counts: dict = {}
    for i in range(loops):
        key = i % 997
        counts[key] = counts.get(key, 0) + i
        copies ^= key
    return copies


class Calibration:
    """Reference samples taken during one phase of a run.

    Between :meth:`start` and :meth:`stop` a ``SIGALRM`` timer takes a
    sample every ``INTERVAL_S`` seconds in the main thread, in the
    middle of whatever work runs there.  Passes leave the seconds the
    samples took (``cpu_spent``, ``wall_spent``) out of their times.
    Worker processes do not inherit the timer.
    """

    def __init__(self) -> None:
        self.samples: List[float] = []
        self.cpu_spent = 0.0
        self.wall_spent = 0.0

    def reset(self) -> None:
        self.samples = []

    def sample(self, count: int = 1) -> None:
        # With the collector on, the reference's allocations would start
        # collections that walk the program's whole heap.
        wall = time.perf_counter()
        collecting = gc.isenabled()
        gc.disable()
        try:
            for _ in range(count):
                started = time.process_time()
                reference()
                self.samples.append(time.process_time() - started)
                self.cpu_spent += self.samples[-1]
        finally:
            if collecting:
                gc.enable()
        self.wall_spent += time.perf_counter() - wall

    def _on_alarm(self, signum: int, frame: object) -> None:
        self.sample()

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    @property
    def factor(self) -> float:
        """Usual over current machine speed; multiplies CPU times."""
        return NOMINAL_S / statistics.fmean(self.samples)
