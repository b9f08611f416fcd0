"""The benchmark's workloads: inputs from the seed, one pass, checks.

A workload is built from ``(seed, size)``; ``setup`` pays its one-off
costs and ``run_pass`` runs its simulations once.  ``repro`` is
imported inside ``setup`` so that the import counts as set-up time.

Every run a pass satisfies becomes a :class:`RunOutcome` carrying the
digest of its results — sha256 over the canonical JSON of
``results_to_dict``, the formula of the repository's golden and
determinism suites — and its telemetry counters.  :class:`Checker`
compares them with the pinned reference.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import os
import resource
import shutil
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional

import calibrate
import spec

#: Telemetry counters pinned per run besides the digest: the engine's
#: event dispatches by kind and the contacts and chunks it streamed.
#: They are simulated statistics, so a change that touches only speed
#: leaves them identical.  Implementation counters (encodings, cache
#: hits, scans) may legitimately move with an optimisation and are
#: only required to repeat exactly within one invocation.
PINNED_COUNTER_PREFIXES = ("engine.", "ops.stream_")

REFERENCE = Path(__file__).resolve().parent / "reference.json"


@dataclass
class RunOutcome:
    """One satisfied run: its identity, digest and counters."""

    run_id: str
    digest: Optional[str] = None
    counters: Optional[Dict[str, float]] = None
    detections: int = 0
    delivered: int = 0
    error: Optional[str] = None


@dataclass
class PassResult:
    """One pass over a workload's runs."""

    wall: float
    runs: List[RunOutcome]
    cpu: float = 0.0
    events: int = 0
    contacts: int = 0
    cached: int = 0
    child_cpu_s: float = 0.0


def results_digest(results: Any) -> str:
    from repro.sim.serialize import results_to_dict

    payload = json.dumps(
        results_to_dict(results), sort_keys=True, separators=(",", ":")
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def outcome_of(run_id: str, results: Any) -> RunOutcome:
    telemetry = results.telemetry
    return RunOutcome(
        run_id=run_id,
        digest=results_digest(results),
        counters=dict(telemetry["counters"]) if telemetry else None,
        detections=len(results.detections),
        delivered=results.delivered,
    )


def events_of(counters: Dict[str, float]) -> int:
    """Engine event dispatches: the sum of the ``engine.*`` counters."""
    return int(sum(v for k, v in counters.items() if k.startswith("engine.")))


def pinned_counts(counters: Dict[str, float]) -> Dict[str, float]:
    return {
        name: value
        for name, value in sorted(counters.items())
        if name.startswith(PINNED_COUNTER_PREFIXES)
    }


def children_cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def cpu_s() -> float:
    """CPU seconds of this process and its waited-for children.

    The benchmark's times are CPU times: on a virtual machine whose
    kernel accounts steal time (``PARAVIRT_TIME_ACCOUNTING``), they
    leave out the time the host gave the CPU to someone else, which
    wall time does not.  Slowdowns the guest does not see as steal are
    taken out by scaling (``calibrate.py``).
    """
    return time.process_time() + children_cpu_s()


def peak_rss_mb() -> float:
    """Peak RSS of this process or any waited-for child, in MB."""
    self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(self_kb, child_kb) / 1024.0


class _PassTimer:
    """CPU and wall seconds of a pass, less its reference samples."""

    def __init__(self, calibration: calibrate.Calibration) -> None:
        self.calibration = calibration
        self.cpu = cpu_s() - calibration.cpu_spent
        self.wall = time.perf_counter() - calibration.wall_spent

    def result(self, **fields: Any) -> PassResult:
        return PassResult(
            wall=time.perf_counter() - self.calibration.wall_spent - self.wall,
            cpu=cpu_s() - self.calibration.cpu_spent - self.cpu,
            runs=[], **fields,
        )


def _span(recorder: Any, name: str, fn: Any, *args: Any) -> Any:
    return fn(*args) if recorder is None else recorder.span(name, fn, *args)


class PaperSweep:
    """The G2G adversary sweeps and Fig. 8 points, cold run cache."""

    name = "paper_sweep"

    def __init__(self, seed: int, size: str, workdir: Path) -> None:
        self.slot = seed % spec.SLOTS
        self.seeds = spec.paper_seeds(self.slot, size)
        self.sweeps = (
            spec.PAPER_SWEEPS if size == "full" else spec.PAPER_SWEEPS_TINY
        )
        self.workdir = workdir
        self.calibration = calibrate.Calibration()
        self.notes: List[str] = []

    def setup(self, recorder: Any = None) -> float:
        """Import ``repro`` and build the evaluation traces; CPU seconds."""
        started = cpu_s()
        self.api = importlib.import_module("repro.api")
        self.parallel = importlib.import_module("repro.experiments.parallel")
        setting = importlib.import_module("repro.experiments.setting")
        for trace in sorted({sweep[0] for sweep in self.sweeps}):
            _span(recorder, "traces.eval_trace", setting.evaluation_trace, trace)
            _span(recorder, "social.community", setting.evaluation_community, trace)
        return cpu_s() - started

    def fill(self) -> float:
        """No cache to fill: every pass starts cold."""
        return 0.0

    @staticmethod
    def run_id(trace: str, protocol: str, kind: Optional[str],
               count: int, seed: int) -> str:
        return f"{trace}/{protocol}/{kind if count else 'honest'}/{count}/{seed}"

    def _sweep_pass(self, workers: int, cache_dir: str,
                    prefix: str = "") -> PassResult:
        report = self.parallel.RunReport()
        answers: List[Any] = []
        timer = _PassTimer(self.calibration)
        children_before = children_cpu_s()
        for trace, protocol, kind, counts in self.sweeps:
            extra = {"adversary": kind} if kind is not None else {}
            try:
                answers.append(self.api.sweep(
                    trace, protocol, counts, seeds=self.seeds,
                    workers=workers, cache_dir=cache_dir, report=report,
                    **extra,
                ))
            except Exception:  # a failed sweep fails its runs, not the pass
                answers.append(traceback.format_exc())
        result = timer.result(
            cached=report.cached, child_cpu_s=children_cpu_s() - children_before,
        )
        for (trace, protocol, kind, counts), answer in zip(self.sweeps, answers):
            if isinstance(answer, str):
                print(answer, file=sys.stderr)
                result.runs.extend(
                    RunOutcome(
                        prefix + self.run_id(trace, protocol, kind, c, s),
                        error=answer,
                    )
                    for c in counts for s in self.seeds
                )
                continue
            for count, point in answer:
                for seed, results in zip(self.seeds, point.runs):
                    result.runs.append(outcome_of(
                        prefix + self.run_id(trace, protocol, kind, count, seed),
                        results,
                    ))
        return result

    def run_pass(self, workers: int) -> PassResult:
        cache_dir = tempfile.mkdtemp(prefix="cold-", dir=self.workdir)
        try:
            result = self._sweep_pass(workers, cache_dir)
        finally:
            shutil.rmtree(cache_dir, ignore_errors=True)
        for run in result.runs:
            if run.counters is not None:
                result.events += events_of(run.counters)
                result.contacts += int(run.counters.get("ops.stream_contacts", 0))
        return result

    def check_pass(self, result: PassResult) -> List[str]:
        """Workload-level checks: every adversarial point detects."""
        problems = []
        detections: Dict[str, int] = {}
        for run in result.runs:
            trace, protocol, kind, count, _ = run.run_id.split("/")
            if count != "0":
                key = f"{trace}/{protocol}/{kind}/{count}"
                detections[key] = detections.get(key, 0) + run.detections
        for key, total in sorted(detections.items()):
            if total <= 0:
                problems.append(f"{key}: no detections at a non-zero adversary count")
        return problems


class PaperWarm(PaperSweep):
    """The same sweep requests, answered from a run cache set-up filled."""

    name = "paper_warm"

    #: Warm runs pin their own digests: a cache hit re-derives
    #: ``summary.total_energy`` from the per-node energies in the
    #: cache file's key order, so its last bits can differ from the
    #: fresh run's.  The difference is reported as a note.
    prefix = "warm:"

    def fill(self) -> float:
        """Fill the run cache with one pooled cold pass; CPU seconds."""
        self.cache_dir = tempfile.mkdtemp(prefix="warm-", dir=self.workdir)
        self.filled = self._sweep_pass(spec.WORKERS, self.cache_dir)
        # Cache hits carry no telemetry: a hit stands for the events and
        # contacts its run simulated when the cache was filled.
        self.fresh = {run.run_id: run for run in self.filled.runs}
        return self.filled.cpu

    def run_pass(self, workers: int) -> PassResult:
        result = self._sweep_pass(workers, self.cache_dir, self.prefix)
        differ = 0
        for run in result.runs:
            fresh = self.fresh.get(run.run_id[len(self.prefix):])
            if fresh is None or fresh.counters is None:
                continue
            result.events += events_of(fresh.counters)
            result.contacts += int(fresh.counters.get("ops.stream_contacts", 0))
            differ += int(run.digest != fresh.digest)
        self.notes = [
            f"{differ} of {len(result.runs)} cache hits have another results"
            " digest than the fresh run that filled the cache"
        ] if differ else []
        return result

    def check_pass(self, result: PassResult) -> List[str]:
        if result is self.filled:
            return super().check_pass(result)
        if result.cached != len(result.runs):
            return [
                f"warm pass answered {result.cached} of {len(result.runs)}"
                " runs from the cache; expected all"
            ]
        return []


class StreamEpidemic:
    """Vanilla epidemic over a streamed synthetic 10k-node trace."""

    name = "stream_epidemic"

    def __init__(self, seed: int, size: str, workdir: Path) -> None:
        self.slot = seed % spec.SLOTS
        self.draws = spec.stream_draws(self.slot)
        self.size = size
        self.params = spec.STREAM_SIZES[size]
        self.calibration = calibrate.Calibration()
        self.notes: List[str] = []

    def setup(self, recorder: Any = None) -> float:
        """Import ``repro`` and build the stream source; CPU seconds."""
        started = cpu_s()
        stream = importlib.import_module("repro.traces.stream")
        config = importlib.import_module("repro.sim.config")
        self.engine = importlib.import_module("repro.sim.engine")
        self.epidemic = importlib.import_module("repro.protocols.epidemic")
        params = self.params
        duration = float(params["duration"])
        self.source = stream.SyntheticStreamSource(stream.StreamModelConfig(
            nodes=int(params["nodes"]),
            duration=duration,
            seed=spec.STREAM_TRACE_SEED,
            contacts_per_node=float(params["contacts_per_node"]),
        ))
        silent_tail = duration / 4.0
        self.configs = [
            config.SimulationConfig(
                run_length=duration,
                silent_tail=silent_tail,
                mean_interarrival=(duration - silent_tail) / params["messages"],
                ttl=duration / 2.0,
                seed=draw,
                track_memory=False,
            )
            for draw in self.draws
        ]
        return cpu_s() - started

    def fill(self) -> float:
        return 0.0

    def run_pass(self, workers: int) -> PassResult:
        """One simulation per traffic draw, in-process."""
        answers: List[Any] = []
        timer = _PassTimer(self.calibration)
        for config in self.configs:
            try:
                answers.append(self.engine.Simulation(
                    self.source, self.epidemic.EpidemicForwarding(), config
                ).run())
            except Exception:  # a failed draw fails its run, not the pass
                answers.append(traceback.format_exc())
        result = timer.result()
        for draw, answer in zip(self.draws, answers):
            run_id = f"stream/{self.size}/{draw}"
            if isinstance(answer, str):
                print(answer, file=sys.stderr)
                result.runs.append(RunOutcome(run_id, error=answer))
                continue
            run = outcome_of(run_id, answer)
            counters = run.counters or {}
            result.runs.append(run)
            result.events += events_of(counters)
            result.contacts += int(counters.get("ops.stream_contacts", 0))
        return result

    def check_pass(self, result: PassResult) -> List[str]:
        return [
            f"{run.run_id}: delivered no messages"
            for run in result.runs
            if run.error is None and run.delivered <= 0
        ]


WORKLOADS = {cls.name: cls for cls in (PaperSweep, PaperWarm, StreamEpidemic)}


def load_reference() -> Dict[str, Any]:
    with open(REFERENCE) as handle:
        return json.load(handle)


@dataclass
class Checker:
    """Compares outcomes with the pins and with earlier passes."""

    reference: Dict[str, Any]
    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)
    _seen: Dict[str, Dict[str, float]] = field(default_factory=dict)

    def runs(self, result: PassResult, count: bool = True) -> None:
        """Check one pass's runs.

        ``count`` adds them to attempted/failed; set-up runs (the warm
        cache fill) leave it off, and a failure among them only makes
        the benchmark incorrect.
        """
        pins = self.reference["runs"]
        for run in result.runs:
            pin = pins.get(run.run_id)
            bad = run.error is not None or pin is None or run.digest != pin["digest"]
            if bad:
                reason = (
                    "raised" if run.error is not None
                    else "has no pinned reference" if pin is None
                    else "results digest differs from the pinned reference"
                )
                self.problems.append(f"{run.run_id}: {reason}")
            if count:
                self.attempted += 1
                self.failed += int(bad)
            if run.counters is None or pin is None:
                continue
            got = pinned_counts(run.counters)
            if got != pin["counts"]:
                self.problems.append(
                    f"{run.run_id}: pinned counts differ: {got} != {pin['counts']}"
                )
            earlier = self._seen.setdefault(run.run_id, run.counters)
            if earlier != run.counters:
                self.problems.append(
                    f"{run.run_id}: counters differ between two same-seed runs"
                )

    @property
    def correct(self) -> bool:
        return self.failed == 0 and not self.problems


def work_dir(root: Path) -> Path:
    base = root / ".perfbench_work"
    base.mkdir(exist_ok=True)
    return Path(tempfile.mkdtemp(prefix=f"{os.getpid()}-", dir=base))
