"""Self-test of the benchmark: every workload at a tiny size.

Run from the repository root::

    python3 -m pytest perfbench

Each workload runs untraced and traced on the self-test's reduced
input (``--size tiny``); the test checks that the result line is
correct and names every metric of ``BENCHMARK.json`` with its unit.
It also checks that ``BENCHMARK.json`` and ``spec.py`` agree, and that
the benchmark fails without the program next to it.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import spec

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=str(cwd), capture_output=True, text=True, timeout=600,
    )


def test_benchmark_json_matches_spec() -> None:
    assert BENCHMARK["paths"] == ["perfbench"]
    assert {w["name"]: w["why"] for w in BENCHMARK["workloads"]} == spec.WORKLOADS
    assert {
        m["name"]: (m["unit"], m["better"], m["bound"])
        for m in BENCHMARK["end_to_end"]
    } == {name: meta[:3] for name, meta in spec.END_TO_END.items()}
    assert {
        m["name"]: (m["unit"], m["better"]) for m in BENCHMARK["per_layer"]
    } == {name: meta[:2] for name, meta in spec.PER_LAYER.items()}


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", sorted(spec.WORKLOADS))
def test_workload_emits_every_metric(workload: str, trace: str) -> None:
    proc = bench(
        "--workload", workload, "--seed", "3", "--seconds", "1",
        "--trace", trace, "--size", "tiny",
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stdout
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = BENCHMARK["per_layer" if trace == "1" else "end_to_end"]
    assert {
        name: metric["unit"] for name, metric in result["metrics"].items()
    } == {metric["name"]: metric["unit"] for metric in declared}
    for name, metric in result["metrics"].items():
        assert isinstance(metric["value"], (int, float)), name
        assert f"{name} = " in proc.stdout
    if trace == "0":
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_fails_without_the_program(tmp_path: Path) -> None:
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "paper_sweep", "--seed", "1", "--seconds", "1",
                 "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
