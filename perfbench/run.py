"""The repository benchmark: end-to-end and per-layer cost of ``repro``.

Run from the repository root::

    python3 perfbench/run.py --workload paper_sweep --seed 1 --seconds 12 --trace 0

Workloads (see ``spec.WORKLOADS`` for why each is here):

* ``paper_sweep`` — the paper's G2G adversary sweeps and Fig. 8 points
  through ``repro.api.sweep`` on a 2-worker pool, cold run cache.
* ``paper_warm`` — the same requests answered from a run cache that
  set-up filled.
* ``stream_epidemic`` — vanilla epidemic through ``Simulation`` over a
  streamed 10k-node synthetic trace.

``--seed`` picks the workload's inputs (``seed % spec.SLOTS``); the
program only sees the generated requests.  The measured phase repeats
whole passes until ``--seconds`` of pass time have elapsed and reports
medians over passes.  Its times are CPU seconds of the benchmark
process and the worker processes it reaped, scaled to the machine's
usual speed by reference samples taken in the same phase (see
``calibrate.py``); the median wall time of a pass and the speed factor
are printed too, as unchecked lines.

``--trace 0`` reports the end-to-end metrics of untraced passes.
``--trace 1`` reports per-layer metrics: it alternates untraced and
traced in-process passes (spans around every layer's entry points, see
``tracer.py``) until ``--seconds`` of pass time have elapsed
or ``TRACED_PASSES`` pairs have run, and reports the tracing overhead
as the median over pairs of traced minus untraced pass CPU time.

Every run's results digest and pinned counters are checked against
``reference.json`` (regenerate with ``pin.py``).  The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import json
import multiprocessing
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence

import calibrate
import spec
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: At most this many untraced/traced pass pairs: enough for a steady
#: median on the sub-second paper_warm pass, few enough to keep a
#: traced run well inside its time limit.
TRACED_PASSES = 10


def parse_args(argv: Optional[Sequence[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(spec.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=12.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--size", choices=("full", "tiny"), default="full",
        help="tiny is the self-test's reduced input",
    )
    parser.add_argument(
        "--setup-sample", action="store_true",
        help="only time the workload's set-up and print it as JSON",
    )
    return parser.parse_args(argv)


def setup_sample(args: argparse.Namespace) -> float:
    """Time the workload's set-up in a fresh interpreter."""
    proc = subprocess.run(
        [
            sys.executable, str(Path(__file__).resolve()), "--setup-sample",
            "--workload", args.workload, "--seed", str(args.seed),
            "--size", args.size,
        ],
        cwd=str(ROOT), capture_output=True, text=True, timeout=120,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"set-up sample failed:\n{proc.stderr}")
    return float(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])


def measure(workload: Any, seconds: float, workers: int,
            checker: workloads.Checker) -> List[workloads.PassResult]:
    """Whole passes until ``seconds`` of pass time have elapsed."""
    passes: List[workloads.PassResult] = []
    elapsed = 0.0
    while not passes or elapsed < seconds:
        gc.collect()
        result = workload.run_pass(workers)
        passes.append(result)
        elapsed += result.wall
        if multiprocessing.active_children():
            checker.problems.append(
                "worker processes outlived a pass: their CPU time is not counted"
            )
        checker.runs(result)
        checker.problems.extend(workload.check_pass(result))
    return passes


def median_rate(passes: List[workloads.PassResult],
                amount: Callable[[workloads.PassResult], int],
                factor: float) -> float:
    return statistics.median(amount(p) / p.cpu for p in passes) / factor


def scaled_setup(workload: Any) -> float:
    """Set-up CPU seconds at the machine's usual speed."""
    calibration = workload.calibration
    calibration.sample(calibrate.SAMPLES_AROUND_SETUP)
    spent = calibration.cpu_spent
    calibration.start()
    try:
        seconds = workload.setup()
    finally:
        calibration.stop()
    seconds -= calibration.cpu_spent - spent
    calibration.sample(calibrate.SAMPLES_AROUND_SETUP)
    return seconds * calibration.factor


def fill(workload: Any, checker: workloads.Checker) -> float:
    """Fill the workload's run cache, if it has one; CPU seconds."""
    seconds = workload.fill()
    if seconds:
        checker.runs(workload.filled, count=False)
        checker.problems.extend(workload.check_pass(workload.filled))
    return seconds


def untraced(args: argparse.Namespace, workload: Any,
             checker: workloads.Checker) -> Dict[str, float]:
    calibration = workload.calibration
    setup_s = scaled_setup(workload)
    calibration.start()
    try:
        fill_s = fill(workload, checker) * calibration.factor
        calibration.reset()
        passes = measure(workload, args.seconds, spec.WORKERS, checker)
    finally:
        calibration.stop()
    factor = calibration.factor
    # Read before the set-up samples, which are children too.
    rss = workloads.peak_rss_mb()
    samples = [setup_s] + [
        setup_sample(args) for _ in range(spec.SETUP_SAMPLES - 1)
    ]
    cpus = sorted(p.cpu for p in passes)
    print(
        f"# {len(passes)} passes, unscaled cpu_s min {cpus[0]:.4f}"
        f" max {cpus[-1]:.4f}; speed factor {factor:.4f}"
        f" from {len(calibration.samples)} reference samples"
    )
    print(f"wall_s = {statistics.median(p.wall for p in passes)} s")
    return {
        "setup_s": statistics.median(samples) + fill_s,
        "cpu_s": statistics.median(p.cpu for p in passes) * factor,
        "runs_per_cpu_s": median_rate(passes, lambda p: len(p.runs), factor),
        "events_per_cpu_s": median_rate(passes, lambda p: p.events, factor),
        "contacts_per_cpu_s": median_rate(passes, lambda p: p.contacts, factor),
        "peak_rss_mb": rss,
    }


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def traced(args: argparse.Namespace, workload: Any,
           checker: workloads.Checker) -> Dict[str, float]:
    import tracer
    from repro.perf import COUNTERS

    recorder = tracer.SpanRecorder()
    workload.setup(recorder)
    fill(workload, checker)
    pool_busy = 0.0
    if workload.name == "paper_sweep":
        # The traced passes run in-process; the pool's busy share comes
        # from one untraced pooled pass: worker CPU over worker time.
        pooled = workload.run_pass(spec.WORKERS)
        checker.runs(pooled)
        pool_busy = pooled.child_cpu_s / (spec.WORKERS * pooled.wall)
    # Untraced and traced in-process passes alternate, so a change in
    # machine speed during the run hits both sides of the overhead.
    baseline: List[workloads.PassResult] = []
    passes: List[workloads.PassResult] = []
    ops: List[Dict[str, int]] = []
    elapsed = 0.0
    while not baseline or (elapsed < args.seconds and len(baseline) < TRACED_PASSES):
        gc.collect()
        result = workload.run_pass(1)
        baseline.append(result)
        gc.collect()
        restore = tracer.instrument(recorder)
        try:
            before = COUNTERS.snapshot()
            traced_result = workload.run_pass(1)
            ops.append(COUNTERS.diff(before))
        finally:
            restore()
        passes.append(traced_result)
        elapsed += result.wall + traced_result.wall
        for checked in (result, traced_result):
            checker.runs(checked)
            checker.problems.extend(workload.check_pass(checked))
    if any(diff != ops[0] for diff in ops):
        checker.problems.append("op counters differ between same-seed passes")
    op = ops[0]
    n = len(passes)
    spans = recorder.summary()
    executed = [r.counters for r in passes[0].runs if r.counters is not None]
    events = sum(workloads.events_of(c) for c in executed)
    sim_self = spans["sim.run"]["self_s"] / n
    runs = spans["experiments.run"]["durations"]
    return {
        "traces.eval_trace_s": spans["traces.eval_trace"]["self_s"],
        "traces.stream_s": spans["traces.stream"]["self_s"] / n,
        "traces.stream_contacts": op["stream_contacts"],
        "traces.stream_chunks": op["stream_chunks"],
        "social.community_s": spans["social.community"]["self_s"],
        "sim.self_s": sim_self,
        "sim.events": events,
        "sim.host_us_per_event": _ratio(sim_self * 1e6, events),
        "sim.buffer_scans": op["buffer_scans"],
        "sim.buffer_scanned": op["buffer_scanned"],
        "protocols.hook_s": spans["protocols.hook"]["self_s"] / n,
        "core.self_s": spans["core.hook"]["self_s"] / n,
        "core.relay_entries": op["relay_entries"],
        "core.handoff_ratio": _ratio(op["relay_handoffs"], op["relay_entries"]),
        "core.encoding_hit_ratio": _ratio(
            op["encoding_cache_hits"], op["encoding_cache_hits"] + op["encodings"]
        ),
        "core.detections": int(sum(c.get("run.detections", 0) for c in executed)),
        "crypto.s": spans["crypto"]["self_s"] / n,
        "crypto.signatures": op["signatures"],
        "crypto.verifications": op["verifications"],
        "crypto.mac_hit_ratio": _ratio(op["mac_cache_hits"], op["verifications"]),
        "crypto.cert_hit_ratio": _ratio(
            op["cert_cache_hits"], op["cert_cache_hits"] + op["cert_checks"]
        ),
        "telemetry.span_s": spans["telemetry.span"]["self_s"] / n,
        "telemetry.spans_recorded": op["spans_recorded"],
        "experiments.cache_get_s": spans["experiments.cache_get"]["self_s"] / n,
        "experiments.cache_hit_ratio": _ratio(
            passes[0].cached, len(passes[0].runs)
        ),
        "experiments.cache_put_s": spans["experiments.cache_put"]["self_s"] / n,
        "experiments.run_s_p50": float(statistics.median(runs)) if len(runs) else 0.0,
        "experiments.pool_busy_ratio": pool_busy,
        "bench.trace_overhead_s": statistics.median(
            t.cpu - u.cpu for t, u in zip(passes, baseline)
        ),
    }


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workdir = workloads.work_dir(ROOT)
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed, args.size, workdir)
        if args.setup_sample:
            print(json.dumps({"setup_s": scaled_setup(workload)}))
            return 0
        checker = workloads.Checker(workloads.load_reference())
        if args.trace:
            values = traced(args, workload, checker)
            units = {name: meta[0] for name, meta in spec.PER_LAYER.items()}
        else:
            values = untraced(args, workload, checker)
            units = {name: meta[0] for name, meta in spec.END_TO_END.items()}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    meta = checker.reference.get("meta", {})
    print(
        f"# {args.workload} seed={args.seed} (input set"
        f" {args.seed % spec.SLOTS}) trace={args.trace}"
        f" python={platform.python_version()} nproc={os.cpu_count()}"
        f" crypto_tier={spec.CRYPTO_TIER} reference_commit={meta.get('commit')}"
    )
    for note in workload.notes:
        print(f"# note: {note}")
    for problem in dict.fromkeys(checker.problems):
        print(f"! {problem}")
    if not args.trace:
        name, unit = spec.FAILED_FRAC
        print(f"{name} = {checker.failed / max(1, checker.attempted)} {unit}")
    for name, value in values.items():
        print(f"{name} = {value} {units[name]}")
    print(json.dumps({
        "correct": checker.correct,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in values.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
