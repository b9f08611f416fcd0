"""Regenerate ``reference.json``: the pinned digest and counts of every run.

Run from the repository root after a change that alters simulated
results on purpose::

    python3 perfbench/pin.py

It runs every input set (``spec.SLOTS`` of them) of every workload
once, records each run's results digest and its pinned counters, and
refuses to write a reference in which a workload-level check fails.
A change that touches only speed must leave this file unchanged.
"""

from __future__ import annotations

import json
import os
import platform
import shutil
import subprocess
import sys
from typing import Any, Dict

import spec
import workloads
from run import ROOT, SRC


def commit() -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=str(ROOT),
            capture_output=True, text=True, timeout=30,
        )
    except OSError:
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def main() -> int:
    sys.path.insert(0, str(SRC))
    workdir = workloads.work_dir(ROOT)
    runs: Dict[str, Any] = {}
    problems = []
    try:
        for slot in range(spec.SLOTS):
            built = [workloads.PaperWarm(slot, "full", workdir)] + [
                workloads.StreamEpidemic(slot, size, workdir)
                for size in spec.STREAM_SIZES
            ]
            for workload in built:
                workload.setup()
                passes = []
                if workload.fill():  # the fill is a paper_sweep pass
                    passes.append(workload.filled)
                passes.append(workload.run_pass(spec.WORKERS))
                for result in passes:
                    problems.extend(workload.check_pass(result))
                runs_of = [run for result in passes for run in result.runs]
                for run in runs_of:
                    if run.error is not None:
                        problems.append(f"{run.run_id}: did not complete")
                        continue
                    runs[run.run_id] = {
                        "digest": run.digest,
                        "counts": workloads.pinned_counts(run.counters or {}),
                    }
                print(f"pinned {workload.name} input set {slot}", file=sys.stderr)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if problems:
        print("\n".join(problems), file=sys.stderr)
        return 1
    reference = {
        "meta": {
            "commit": commit(),
            "python": platform.python_version(),
            "nproc": os.cpu_count(),
            "crypto_tier": spec.CRYPTO_TIER,
            "slots": spec.SLOTS,
        },
        "runs": dict(sorted(runs.items())),
    }
    with open(workloads.REFERENCE, "w") as handle:
        json.dump(reference, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
