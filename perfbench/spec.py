"""What the benchmark measures: workloads, metrics, units and layer map.

This module is the single source of the names the benchmark prints.
``BENCHMARK.json`` at the repository root repeats the workload names
and the metric names, units and directions; the self-test checks that
the two agree.

Everything here is plain data, so importing it loads nothing from
``repro``.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

#: Number of distinct input sets.  ``--seed n`` selects input set
#: ``n % SLOTS``; the reference file pins every one of them, so any
#: seed the caller passes maps onto pinned inputs.
SLOTS = 10

#: The crypto provider tier every G2G run uses: the protocols' default.
CRYPTO_TIER = "simulated"

#: Worker processes of the pooled sweeps.  Two matches the two CPUs of
#: the machine the benchmark was tuned on; the pool is the only
#: concurrency in the benchmark.
WORKERS = 2

#: Setup samples per invocation: the invocation's own setup plus
#: fresh-interpreter repeats, reported as their median.
SETUP_SAMPLES = 3

#: The G2G adversary sweeps behind Figs. 3-5 and 7 plus the vanilla
#: Fig. 8 points: (trace, catalog protocol, adversary kind, counts).
#: A count of 0 runs all-honest, so the vanilla rows carry no kind.
PAPER_SWEEPS: Tuple[Tuple[str, str, Optional[str], Tuple[int, ...]], ...] = (
    ("infocom05", "g2g_epidemic", "dropper", (0, 10, 20)),
    ("cambridge06", "g2g_delegation_frequency", "liar", (0, 10, 20)),
    ("cambridge06", "g2g_delegation_last_contact", "cheater", (0, 10, 20)),
    ("infocom05", "epidemic", None, (0,)),
    ("cambridge06", "delegation_frequency", None, (0,)),
)

#: The self-test's reduced grid: the highest adversary count of each
#: G2G sweep and the vanilla points, first seed only.  Every run in it
#: is also a run of the full grid, so the same pins check it.
PAPER_SWEEPS_TINY: Tuple[Tuple[str, str, Optional[str], Tuple[int, ...]], ...] = (
    tuple(
        (trace, protocol, kind, counts[-1:])
        for trace, protocol, kind, counts in PAPER_SWEEPS
    )
)


def paper_seeds(slot: int, size: str) -> Tuple[int, ...]:
    """Replication seeds of input set ``slot`` (slot 0 gives 1 and 2)."""
    seeds = (2 * slot + 1, 2 * slot + 2)
    return seeds if size == "full" else seeds[:1]


#: The streamed epidemic run: a 10k-node synthetic universe over a
#: 12-hour stream of 12 one-hour chunks (about 60k contacts) and a
#: fixed budget of 200 messages.  ``tiny`` is the self-test's 2-hour
#: stream over a 2k-node universe.  As in the paper workloads, the
#: trace is fixed and the seed re-draws the traffic: re-drawing the
#: stream as well spreads the simulated work over input sets about
#: half as much again (buffer copies scanned: IQR 11% against 7%).
STREAM_TRACE_SEED = 0

#: Traffic draws one stream pass simulates.  What a single draw costs
#: depends on where its messages start (CPU time of the ten draws:
#: 1.8 s to 2.7 s); a pass over five successive draws averages that out.
STREAM_DRAWS = 5


def stream_draws(slot: int) -> Tuple[int, ...]:
    """Traffic seeds of input set ``slot``: it and the next ones, cyclically."""
    return tuple((slot + k) % SLOTS for k in range(STREAM_DRAWS))

STREAM_SIZES: Dict[str, Dict[str, float]] = {
    "full": {
        "nodes": 10_000, "duration": 43_200.0,
        "contacts_per_node": 12.0, "messages": 200,
    },
    "tiny": {
        "nodes": 2_000, "duration": 7_200.0,
        "contacts_per_node": 8.0, "messages": 200,
    },
}

#: Workload name -> why it is in the benchmark (one line each; the
#: same text is the ``why`` of ``BENCHMARK.json``).
WORKLOADS: Dict[str, str] = {
    "paper_sweep": (
        "Cold-cache G2G adversary sweeps behind Figs. 3-5, 7, 8 on a 2-worker"
        " pool: what regenerating the paper costs; loads core, crypto,"
        " sim, cache writes"
    ),
    "paper_warm": (
        "The same sweep requests answered from a run cache filled in set-up:"
        " exercises cache reads and the run path while sim, core and crypto"
        " stay idle"
    ),
    "stream_epidemic": (
        "Vanilla epidemic over a streamed 10k-node, 12-chunk synthetic"
        " trace: the memory-bound traces/sim/protocols path that bypasses"
        " core, crypto and experiments"
    ),
}

#: End-to-end metrics of untraced runs: name -> (unit, better, bound,
#: meaning).  ``bound`` is the share of the parent's median by which
#: the metric may worsen before a change counts as a regression.
#: Times are CPU seconds of the benchmark process and its worker
#: processes, scaled to the machine's usual speed by reference samples
#: taken during the same phase (``calibrate.py``): the shared virtual
#: machines the benchmark runs on slow down by up to 2.5x for minutes
#: at a time, in wall and CPU time alike.  Unscaled times and wall time
#: are still printed, as unchecked lines.  Peak RSS depends on the
#: input set, not on machine load; on stream_epidemic it differs by up
#: to 20% between input sets, so its bound is the largest too.
END_TO_END: Dict[str, Tuple[str, str, float, str]] = {
    "setup_s": (
        "s", "lower", 0.25,
        "median scaled set-up CPU time: import, evaluation traces and"
        " communities, stream source, and (paper_warm) the run-cache fill",
    ),
    "cpu_s": (
        "s", "lower", 0.25,
        "median CPU seconds of one pass over the workload's runs, at the"
        " machine's usual speed",
    ),
    "runs_per_cpu_s": (
        "1/s", "higher", 0.25,
        "simulation runs satisfied per scaled CPU second (median over"
        " passes)",
    ),
    "events_per_cpu_s": (
        "1/s", "higher", 0.25,
        "engine event dispatches of the satisfied runs per scaled CPU"
        " second",
    ),
    "contacts_per_cpu_s": (
        "1/s", "higher", 0.25,
        "contacts streamed into the engine by the satisfied runs per"
        " scaled CPU second",
    ),
    "peak_rss_mb": (
        "MB", "lower", 0.25,
        "peak RSS of the benchmark process or any of its worker processes",
    ),
}

#: Printed with every untraced run but not a gated metric: on a
#: correct program it reads 0, and a gated metric must never be 0.
#: The result line carries the same figure as ``failed``/``attempted``.
FAILED_FRAC = ("failed_frac", "ratio")

#: Per-layer metrics of the traced run: name -> (unit, better, what
#: end-to-end metric it should move, on which workload).
PER_LAYER: Dict[str, Tuple[str, str, str]] = {
    "traces.eval_trace_s": ("s", "lower", "setup_s on paper_sweep"),
    "traces.stream_s": ("s", "lower", "contacts_per_cpu_s on stream_epidemic"),
    "traces.stream_contacts": ("count", "lower", "exact count"),
    "traces.stream_chunks": ("count", "lower", "exact count"),
    "social.community_s": ("s", "lower", "setup_s on paper_sweep"),
    "sim.self_s": (
        "s", "lower",
        "contacts_per_cpu_s on stream_epidemic, runs_per_cpu_s on paper_sweep",
    ),
    "sim.events": ("count", "lower", "events_per_cpu_s (exact count)"),
    "sim.host_us_per_event": ("us", "lower", "events_per_cpu_s"),
    "sim.buffer_scans": ("count", "lower", "events_per_cpu_s (exact count)"),
    "sim.buffer_scanned": ("count", "lower", "events_per_cpu_s (exact count)"),
    "protocols.hook_s": ("s", "lower", "contacts_per_cpu_s on stream_epidemic"),
    "core.self_s": ("s", "lower", "runs_per_cpu_s on paper_sweep"),
    "core.relay_entries": ("count", "lower", "runs_per_cpu_s on paper_sweep"),
    "core.handoff_ratio": ("ratio", "higher", "runs_per_cpu_s on paper_sweep"),
    "core.encoding_hit_ratio": (
        "ratio", "higher", "runs_per_cpu_s on paper_sweep",
    ),
    "core.detections": ("count", "higher", "exact count"),
    "crypto.s": ("s", "lower", "runs_per_cpu_s on paper_sweep"),
    "crypto.signatures": ("count", "lower", "runs_per_cpu_s on paper_sweep"),
    "crypto.verifications": ("count", "lower", "runs_per_cpu_s on paper_sweep"),
    "crypto.mac_hit_ratio": ("ratio", "higher", "runs_per_cpu_s on paper_sweep"),
    "crypto.cert_hit_ratio": ("ratio", "higher", "runs_per_cpu_s on paper_sweep"),
    "telemetry.span_s": ("s", "lower", "runs_per_cpu_s on paper_sweep"),
    "telemetry.spans_recorded": ("count", "lower", "runs_per_cpu_s on paper_sweep"),
    "experiments.cache_get_s": ("s", "lower", "runs_per_cpu_s on paper_warm"),
    "experiments.cache_hit_ratio": (
        "ratio", "higher", "runs_per_cpu_s on paper_warm",
    ),
    "experiments.cache_put_s": ("s", "lower", "runs_per_cpu_s on paper_sweep"),
    "experiments.run_s_p50": ("s", "lower", "runs_per_cpu_s on paper_sweep"),
    "experiments.pool_busy_ratio": (
        "ratio", "higher", "runs_per_cpu_s on paper_sweep",
    ),
    "bench.trace_overhead_s": (
        "s", "lower", "none: traced minus untraced cpu_s of one pass",
    ),
}

#: The protocol hooks the engine calls.
HOOKS = ("on_contact_start", "on_contact_end", "on_message_generated", "on_timer")


def _hooks(*classes: str) -> Tuple[str, ...]:
    return tuple(f"{cls}.{hook}" for cls in classes for hook in HOOKS)


#: Span name (layer first) -> the ``repro`` entry points it covers, as
#: ``module:qualname``.  The traced passes wrap each of them, except
#: the set-up spans, which the workload's set-up opens around its own
#: calls.  Self time is a span's duration minus its child spans.
SPANS: Dict[str, Tuple[str, ...]] = {
    "traces.eval_trace": ("repro.experiments.setting:evaluation_trace",),
    "traces.stream": (
        "repro.traces.stream:SyntheticStreamSource.iter_chunks",
        "repro.traces.stream:InMemorySource.iter_chunks",
    ),
    "social.community": ("repro.experiments.setting:evaluation_community",),
    "sim.run": ("repro.sim.engine:Simulation.run",),
    "protocols.hook": _hooks(
        "repro.protocols.epidemic:EpidemicForwarding",
        "repro.protocols.delegation:DelegationForwarding",
    ),
    "core.hook": _hooks(
        "repro.core.g2g_epidemic:G2GEpidemicForwarding",
        "repro.core.g2g_delegation:G2GDelegationForwarding",
    ),
    "crypto": (
        "repro.crypto.provider:SimulatedCryptoProvider.sign",
        "repro.crypto.provider:SimulatedCryptoProvider.verify",
        "repro.crypto.provider:SimulatedCryptoProvider.verify_batch",
        "repro.crypto.hashing:HeavyHmac.compute",
        "repro.crypto.hashing:HeavyHmac.verify",
    ),
    "telemetry.span": (
        "repro.telemetry.spans:SpanRecorder.begin",
        "repro.telemetry.spans:SpanRecorder.end",
    ),
    "experiments.run": ("repro.experiments.parallel:execute_request",),
    "experiments.cache_get": ("repro.experiments.cache:RunCache.get",),
    "experiments.cache_put": ("repro.experiments.cache:RunCache.put",),
}

#: Spans the workload's set-up opens itself.
SETUP_SPANS = ("traces.eval_trace", "social.community")
