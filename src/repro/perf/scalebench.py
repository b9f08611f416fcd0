"""The ``repro scale-bench`` harness: nodes-vs-wall and nodes-vs-RSS.

Each scale point runs in a **fresh interpreter**: peak RSS
(``ru_maxrss``) is monotone for the life of a process, so measuring
1k → 1M in one process would report every point at the 1M high-water
mark.  The child (``python -m repro.perf.scalebench``) builds a
:class:`~repro.traces.SyntheticStreamSource`, drives the epidemic
engine over it, and prints one JSON record; the parent collects the
points into ``BENCH_scale.json``.

Two curve families:

* ``nodes_vs`` — node scales at a fixed 1h stream: wall time grows
  with contact volume, RSS with the *touched* node set.  No message
  is delivered at any of these points (each node averages two
  contacts over the hour), so this curve measures contact ingestion,
  not forwarding.
* ``contacts_vs`` — a fixed 10k-node universe at growing durations.
  The contact stream is never materialized (the heap holds only the
  in-flight frontier), but RSS is *not* flat: it grows with the
  replicated state the epidemic spreads — per-copy buffer, relay-index
  and expiry entries (every holder buffers the shared message) and
  per-node byte maps of one byte per message — which grows with the
  contact count.  The report's notes state the measured growth.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional, Sequence

SCHEMA = "g2g-scale-bench/1"

#: Node scales of the default ``nodes_vs`` sweep.
DEFAULT_SCALES = (1_000, 10_000, 100_000, 1_000_000)

#: Stream durations (seconds) of the fixed-node ``contacts_vs`` sweep.
DEFAULT_DURATIONS = (3_600.0, 14_400.0, 43_200.0, 86_400.0)


def run_scale_point(
    nodes: int,
    duration: float = 3_600.0,
    seed: int = 0,
    contacts_per_node: float = 2.0,
    messages: int = 200,
) -> Dict[str, Any]:
    """One scale point, measured **in this process** (child entry).

    The run is an honest epidemic workload: a fixed message budget
    (``messages`` total, independent of scale, so traffic cost stays
    a constant term) over a power-law community stream, executed as a
    source :class:`~repro.experiments.RunRequest` through the catalog's
    one run path.
    """
    from ..experiments.parallel import RunRequest, execute_request
    from ..perf.counters import COUNTERS
    from ..perf.memory import peak_rss_bytes
    from ..traces.stream import StreamModelConfig, SyntheticStreamSource

    source = SyntheticStreamSource(
        StreamModelConfig(
            nodes=nodes,
            duration=duration,
            seed=seed,
            contacts_per_node=contacts_per_node,
        )
    )
    silent_tail = duration / 4.0
    request = RunRequest(
        trace_name=source.name,
        family="epidemic",
        protocol_name="epidemic",
        seed=seed,
        overrides=(
            ("mean_interarrival", (duration - silent_tail) / max(1, messages)),
            ("run_length", duration),
            ("silent_tail", silent_tail),
            ("track_memory", False),
            ("ttl", duration / 2.0),
        ),
        source=source.spec(),
    )
    ops_before = COUNTERS.snapshot()
    started = time.perf_counter()
    results = execute_request(request)
    wall = time.perf_counter() - started
    ops = COUNTERS.diff(ops_before)
    return {
        "nodes": nodes,
        "duration_s": duration,
        "seed": seed,
        "contacts": ops["stream_contacts"],
        "chunks": ops["stream_chunks"],
        "generated": results.generated,
        "delivered": results.delivered,
        "wall_s": round(wall, 3),
        "peak_rss_bytes": peak_rss_bytes(),
    }


def _spawn_point(args: Sequence[str], timeout: float) -> Dict[str, Any]:
    """Run one scale point in a fresh interpreter; parse its JSON."""
    env = dict(os.environ)
    src_root = os.path.dirname(os.path.dirname(os.path.dirname(__file__)))
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = (
        src_root if not existing else src_root + os.pathsep + existing
    )
    proc = subprocess.run(
        [sys.executable, "-m", "repro.perf.scalebench", *args],
        capture_output=True,
        text=True,
        env=env,
        timeout=timeout,
    )
    if proc.returncode != 0:
        raise RuntimeError(
            f"scale point {' '.join(args)} failed:\n{proc.stderr.strip()}"
        )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def scale_bench(
    scales: Sequence[int] = DEFAULT_SCALES,
    durations: Sequence[float] = DEFAULT_DURATIONS,
    contacts_nodes: int = 10_000,
    seed: int = 0,
    point_timeout: float = 1_800.0,
    progress: bool = False,
) -> Dict[str, Any]:
    """Run the full sweep (one subprocess per point); return the report."""
    nodes_vs: List[Dict[str, Any]] = []
    for nodes in scales:
        if progress:
            print(f"scale-bench: nodes={nodes} ...", file=sys.stderr)
        nodes_vs.append(
            _spawn_point(
                ["--nodes", str(nodes), "--seed", str(seed)], point_timeout
            )
        )
    contacts_vs: List[Dict[str, Any]] = []
    for duration in durations:
        if progress:
            print(
                f"scale-bench: duration={duration} @ {contacts_nodes} nodes ...",
                file=sys.stderr,
            )
        # contacts_per_node is a *total* over the stream, so scale it
        # with the duration — the point of this sweep is to grow the
        # contact volume while the universe stays fixed.
        per_node = 2.0 * duration / 3_600.0
        contacts_vs.append(
            _spawn_point(
                [
                    "--nodes", str(contacts_nodes),
                    "--duration", str(duration),
                    "--contacts-per-node", str(per_node),
                    "--seed", str(seed),
                ],
                point_timeout,
            )
        )
    return {
        "schema": SCHEMA,
        "seed": seed,
        "nodes_vs": nodes_vs,
        "contacts_vs": contacts_vs,
        "notes": (
            "Each point is a fresh interpreter (peak RSS is monotone "
            "per process). nodes_vs sweeps the universe at a fixed "
            "1h stream; its points deliver 0 messages, so it measures "
            "contact ingestion, not forwarding. contacts_vs grows the "
            f"stream at a fixed {contacts_nodes}-node universe; the "
            "stream is never materialized, but RSS still grows with "
            "the epidemic's replicated state (per-copy buffer and "
            "relay-index entries, every holder buffering the shared "
            "message, and per-node byte maps of one byte per message)."
            + _growth_note(contacts_vs)
        ),
    }


def _growth_note(points: Sequence[Dict[str, Any]]) -> str:
    """How peak RSS grew against contacts from the first point to the last."""
    if len(points) < 2:
        return ""
    first, last = points[0], points[-1]
    return (
        f" From {first['contacts']} to {last['contacts']} contacts "
        f"({last['contacts'] / first['contacts']:.1f}x) peak RSS grows "
        f"from {first['peak_rss_bytes'] / 1e6:.0f} to "
        f"{last['peak_rss_bytes'] / 1e6:.0f} MB "
        f"({last['peak_rss_bytes'] / first['peak_rss_bytes']:.1f}x)."
    )


def write_report(report: Dict[str, Any], path: str) -> None:
    """Write the report as stable, diff-friendly JSON."""
    with open(path, "w") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Child entry point: run one point, print its JSON record."""
    parser = argparse.ArgumentParser(
        description="one scale-bench point (internal child process)"
    )
    parser.add_argument("--nodes", type=int, required=True)
    parser.add_argument("--duration", type=float, default=3_600.0)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--contacts-per-node", type=float, default=2.0)
    parser.add_argument("--messages", type=int, default=200)
    args = parser.parse_args(argv)
    record = run_scale_point(
        nodes=args.nodes,
        duration=args.duration,
        seed=args.seed,
        contacts_per_node=args.contacts_per_node,
        messages=args.messages,
    )
    print(json.dumps(record, sort_keys=True))
    return 0


if __name__ == "__main__":  # pragma: no cover - subprocess entry
    sys.exit(main())
