"""Hot-path benchmark: the measurements behind ``BENCH_hotpath.json``.

The headline benchmark is one full simulation run — cambridge06 /
G2G Epidemic Forwarding / seed 1 — timed best-of-N, with the
deterministic op-counter reading for the run alongside.  Wall-clock on
a shared container is noisy (identical code varies by 2x between
quiet and busy moments), so the report records three complementary
views:

* best-of-N wall seconds (the least-noise wall statistic),
* one cProfile-instrumented run (stable ranking of where time goes;
  profiling inflates absolute time roughly 3-4x, which is the
  methodology behind the pre-overhaul "~11 s" figure), and
* the op counters, which are bit-exact for a fixed seed and therefore
  comparable across machines.

The pre-overhaul reference numbers are frozen in :data:`BASELINE`
(they were measured at the commit recorded there; the optimized tree
cannot re-measure them).  Microbenchmarks isolate the three layers the
overhaul touched: wire encodings, HMAC signing, and the relay-candidate
buffer scan.

This module pulls in the whole experiment stack — import it lazily
(the CLI and the perf tests do), never from ``repro.perf.__init__``.
"""

from __future__ import annotations

import cProfile
import json
import platform
import random
import sys
import time
import timeit
from array import array
from bisect import bisect_right
from typing import Any, Dict, Optional

from ..core.g2g_epidemic import G2GEpidemicForwarding
from ..core.wire import ProofOfRelay
from ..crypto.hashing import digest, hmac_digest, prepare_hmac_key
from ..crypto.provider import SimulatedCryptoProvider
from ..experiments.setting import evaluation_trace, standard_config
from ..sim.engine import run_simulation
from ..sim.messages import Message
from ..sim.node import NodeState
from ..sim.results import SimulationResults
from ..sim.serialize import results_digest
from .counters import COUNTERS

#: The single-run benchmark spec.
BENCH_TRACE = "cambridge06"
BENCH_FAMILY = "epidemic"
BENCH_SEED = 1

#: Pre-overhaul reference, measured at the recorded commit on the same
#: container as the optimized numbers (best of 7 back-to-back runs;
#: the profiled figure is one cProfile run of the same spec).  The
#: run's metrics are part of the reference: the overhaul is only valid
#: while the optimized run reproduces them bit-for-bit.
BASELINE: Dict[str, Any] = {
    "commit": "d369a0f",
    "wall_seconds_best": 2.788,
    "wall_seconds_all": [3.262, 3.103, 3.369, 3.779, 2.899, 2.788, 2.846],
    "profiled_seconds": 10.6,
    "metrics": {
        "success_rate": 0.702733,
        "cost": 23.604214,
        "total_energy": 2550.404531,
    },
}

#: Pre-batching reference: the tree as of the recorded commit (TTL
#: timers on the scheduler, per-PoR verification, per-object relay
#: index scans), re-measured on the *same container* as the current
#: optimized numbers so the speedup compares like with like.  The
#: earlier container that produced the 1.011 s figure in older
#: reports was roughly twice as fast as this one — wall seconds only
#: compare within one machine, which is why this block exists.
#: Measured interleaved with the optimized tree (one best-of-4 batch
#: each per round, alternating) so load drift hits both sides alike.
SAME_MACHINE_BASELINE: Dict[str, Any] = {
    "commit": "53d4030",
    "wall_seconds_best": 2.110,
    "wall_seconds_all": [3.329, 2.608, 2.235, 2.131, 2.236, 2.110],
    "metrics": {
        "success_rate": 0.702733,
        "cost": 23.604214,
        "total_energy": 2550.404531,
    },
}


def run_single(
    trace_name: str = BENCH_TRACE,
    family: str = BENCH_FAMILY,
    seed: int = BENCH_SEED,
    provider: Optional[str] = None,
):
    """One timed benchmark run.

    Args:
        provider: crypto provider tier name (None = the protocol's
            default, the simulated tier).

    Returns:
        ``(elapsed_seconds, results, counter_diff)``.
    """
    trace = evaluation_trace(trace_name)
    config = standard_config(trace_name, family, seed)
    before = COUNTERS.snapshot()
    start = time.perf_counter()
    results = run_simulation(
        trace, G2GEpidemicForwarding(provider=provider), config
    )
    elapsed = time.perf_counter() - start
    return elapsed, results, COUNTERS.diff(before)


def hotpath_benchmark(
    repeats: int = 5,
    trace_name: str = BENCH_TRACE,
    family: str = BENCH_FAMILY,
    seed: int = BENCH_SEED,
    profile: bool = True,
    provider: Optional[str] = None,
) -> Dict[str, Any]:
    """Time the single-run benchmark best-of-``repeats``.

    Also runs one cProfile-instrumented repetition (unless ``profile``
    is False) so the report carries the same methodology as the
    recorded baseline's profiled figure.
    """
    evaluation_trace(trace_name)  # warm the lru-cached trace
    times = []
    results: Optional[SimulationResults] = None
    counters: Dict[str, int] = {}
    for _ in range(max(1, repeats)):
        elapsed, results, counters = run_single(
            trace_name, family, seed, provider
        )
        times.append(elapsed)
    report: Dict[str, Any] = {
        "spec": {
            "trace": trace_name,
            "family": family,
            "seed": seed,
            "provider": provider or "simulated",
        },
        "wall_seconds_best": round(min(times), 3),
        "wall_seconds_all": [round(t, 3) for t in times],
        "metrics": {
            "success_rate": round(results.success_rate, 6),
            "cost": round(results.cost, 6),
            "total_energy": round(results.total_energy, 6),
        },
        "results_digest": results_digest(results),
        "counters": counters,
    }
    if profile:
        profiler = cProfile.Profile()
        start = time.perf_counter()
        profiler.runcall(run_single, trace_name, family, seed, provider)
        report["profiled_seconds"] = round(time.perf_counter() - start, 3)
    return report


def tiers_benchmark(
    repeats: int = 3,
    trace_name: str = BENCH_TRACE,
    family: str = BENCH_FAMILY,
    seed: int = BENCH_SEED,
    simulated: Optional[Dict[str, Any]] = None,
) -> Dict[str, Any]:
    """Time the interpreted provider tiers on the benchmark spec.

    The simulated and accounting tiers are measured *interleaved* —
    one run of each per round, best-of-``repeats`` — so machine-load
    drift hits both tiers equally instead of flattering whichever ran
    first.  Their metrics and determinism digests are recorded side by
    side, making the "identical results, different wall-clock"
    contract checkable at a glance.  The real tier is never timed here
    (minutes per run); pass ``provider="real"`` to :func:`run_single`
    to measure it deliberately.

    Args:
        simulated: an already-measured simulated-tier block (from
            :func:`hotpath_benchmark`); its digest is cross-checked
            against the freshly timed runs but its (earlier, possibly
            differently loaded) timings are not reused.
    """
    evaluation_trace(trace_name)  # warm the lru-cached trace
    tier_names = ("simulated", "accounting")
    walls: Dict[str, list] = {tier: [] for tier in tier_names}
    last_results: Dict[str, SimulationResults] = {}
    for _ in range(max(1, repeats)):
        for tier in tier_names:
            elapsed, results, _ = run_single(
                trace_name, family, seed, provider=tier
            )
            walls[tier].append(round(elapsed, 3))
            last_results[tier] = results
    tiers: Dict[str, Any] = {}
    for tier in tier_names:
        results = last_results[tier]
        tiers[tier] = {
            "wall_seconds_best": min(walls[tier]),
            "wall_seconds_all": walls[tier],
            "metrics": {
                "success_rate": round(results.success_rate, 6),
                "cost": round(results.cost, 6),
                "total_energy": round(results.total_energy, 6),
            },
            "results_digest": results_digest(results),
        }
    if simulated is not None and "results_digest" in simulated:
        tiers["simulated"]["matches_main_benchmark"] = (
            simulated["results_digest"]
            == tiers["simulated"]["results_digest"]
        )
    tiers["real"] = {
        "status": "skipped",
        "note": (
            "from-scratch RSA keygen/sign: minutes per run; "
            "run_single(provider='real') measures it on demand"
        ),
    }
    tiers["identical_results"] = (
        tiers["simulated"]["results_digest"]
        == tiers["accounting"]["results_digest"]
    )
    return tiers


def _best_ns(func, number: int, repeat: int = 5) -> float:
    """Best per-call time of ``func`` in nanoseconds."""
    return min(timeit.repeat(func, number=number, repeat=repeat)) / number * 1e9


def microbench_encoding(number: int = 20_000) -> Dict[str, float]:
    """Cold vs cached ``ProofOfRelay.payload()`` (construction included)."""
    msg_hash = digest(b"bench-message")

    def cold():
        return ProofOfRelay(
            msg_hash=msg_hash, giver=7, taker=9, signed_at=1234.5
        ).payload()

    por = ProofOfRelay(msg_hash=msg_hash, giver=7, taker=9, signed_at=1234.5)
    por.payload()  # populate the memo
    return {
        "encode_cold_ns": round(_best_ns(cold, number), 1),
        "encode_cached_ns": round(_best_ns(por.payload, number), 1),
    }


def microbench_hmac(number: int = 20_000) -> Dict[str, float]:
    """One-shot HMAC (raw key) vs the prepared-key copy path."""
    key = digest(b"bench-key")
    payload = b"x" * 96
    prepared = prepare_hmac_key(key)
    return {
        "hmac_oneshot_ns": round(
            _best_ns(lambda: hmac_digest(key, payload), number), 1
        ),
        "hmac_prepared_ns": round(
            _best_ns(lambda: hmac_digest(prepared, payload), number), 1
        ),
    }


def microbench_buffer_scan(
    buffer_size: int = 64, number: int = 5_000
) -> Dict[str, float]:
    """Indexed ``relay_candidates`` vs the pre-overhaul full-buffer filter."""
    results = SimulationResults()
    node = NodeState(node_id=0)
    for i in range(buffer_size):
        message = Message(
            msg_id=i, source=0, destination=buffer_size + 1,
            created_at=0.0, ttl=3600.0,
        )
        node.store(message, 0.0, results)
    # The taker's ``seen`` map: every even message id already handled.
    exclude = bytearray(1 - i % 2 for i in range(buffer_size))
    now = 10.0

    def naive():
        return [
            message
            for msg_id, message in node.buffer.items()
            if not node.body_dropped(msg_id)
            and message.alive_at(now)
            and not exclude[msg_id]
        ]

    def indexed():
        return node.relay_candidates(now, exclude)

    assert naive() == indexed()
    return {
        "buffer_size": buffer_size,
        "scan_naive_ns": round(_best_ns(naive, number), 1),
        "scan_indexed_ns": round(_best_ns(indexed, number), 1),
    }


def microbench_batch_verify(
    batch: int = 16, number: int = 2_000
) -> Dict[str, float]:
    """Batched signature verification vs a per-signature loop.

    Mirrors the ``_offer`` choke point: ``batch`` proofs signed by one
    key, all hitting the MAC memo — the difference is pure call and
    counter overhead, which is exactly what the collect-then-verify
    change removed from the handshake.
    """
    provider = SimulatedCryptoProvider(random.Random(1))
    private_key, public_key = provider.generate_keypair()
    items = []
    for i in range(batch):
        payload = b"bench-por|%d" % i
        items.append((public_key, payload, provider.sign(private_key, payload)))

    def loop():
        ok = True
        for key, payload, signature in items:
            ok = provider.verify(key, payload, signature) and ok
        return ok

    def batched():
        return provider.verify_batch(items)

    assert loop() and batched()
    return {
        "batch_size": batch,
        "verify_loop_ns": round(_best_ns(loop, number), 1),
        "verify_batched_ns": round(_best_ns(batched, number), 1),
    }


def microbench_expiry_index(
    size: int = 64, number: int = 50_000
) -> Dict[str, float]:
    """Array-backed TTL-expiry probe vs a dict-backed full scan.

    The steady-state case (nothing expired yet) that every
    ``relay_candidates`` call pays: the sorted ``array('d')`` sidecar
    answers it with one O(1) head probe, where the pre-overhaul
    per-object index had to scan every entry's deadline.
    """
    expiries = [1000.0 + float(i) for i in range(size)]
    times = array("d", expiries)
    by_id = {i: expiry for i, expiry in enumerate(expiries)}
    now = 500.0  # before every deadline: the common no-op sweep

    def dict_scan():
        return [mid for mid, expiry in by_id.items() if expiry <= now]

    def array_probe():
        if times and times[0] <= now:
            return bisect_right(times, now)
        return 0

    assert dict_scan() == [] and array_probe() == 0
    return {
        "index_size": size,
        "expiry_dict_scan_ns": round(_best_ns(dict_scan, number), 1),
        "expiry_array_probe_ns": round(_best_ns(array_probe, number), 1),
    }


def build_report(
    repeats: int = 5, profile: bool = True, provider: Optional[str] = None
) -> Dict[str, Any]:
    """Assemble the full ``BENCH_hotpath.json`` payload."""
    optimized = hotpath_benchmark(
        repeats=repeats, profile=profile, provider=provider
    )
    report: Dict[str, Any] = {
        "benchmark": "relay-loop hot path",
        "environment": {
            "python": sys.version.split()[0],
            "platform": platform.platform(),
        },
        "methodology": (
            "wall_seconds_best is the best of N back-to-back runs "
            "(container wall-clock is noisy; best-of-N is the stable "
            "statistic); profiled_seconds is one cProfile run, which "
            "inflates absolute time ~3-4x but ranks hotspots stably; "
            "counters are deterministic for the seed and comparable "
            "across machines; speedup_wall_same_machine divides the "
            "same-container re-measured pre-batching baseline by this "
            "report's best (cross-machine wall comparisons are "
            "meaningless — see same_machine_baseline)"
        ),
        "baseline": BASELINE,
        "same_machine_baseline": SAME_MACHINE_BASELINE,
        "optimized": optimized,
        "speedup_wall": round(
            BASELINE["wall_seconds_best"] / optimized["wall_seconds_best"], 2
        ),
        "speedup_wall_same_machine": round(
            SAME_MACHINE_BASELINE["wall_seconds_best"]
            / optimized["wall_seconds_best"],
            2,
        ),
    }
    if "profiled_seconds" in optimized:
        report["speedup_profiled"] = round(
            BASELINE["profiled_seconds"] / optimized["profiled_seconds"], 2
        )
    report["tiers"] = tiers_benchmark(
        repeats=max(2, repeats - 2), simulated=optimized
    )
    report["microbenchmarks"] = {
        "encoding": microbench_encoding(),
        "hmac": microbench_hmac(),
        "buffer_scan": microbench_buffer_scan(),
        "batch_verify": microbench_batch_verify(),
        "expiry_index": microbench_expiry_index(),
    }
    return report


def write_report(
    path: str,
    repeats: int = 5,
    profile: bool = True,
    provider: Optional[str] = None,
) -> Dict[str, Any]:
    """Run the benchmark and write the JSON report to ``path``."""
    report = build_report(repeats=repeats, profile=profile, provider=provider)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2, sort_keys=False)
        handle.write("\n")
    return report
