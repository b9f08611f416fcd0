"""Smoke tests for the perf harness (`repro.perf.bench` + `repro perf`)."""

from __future__ import annotations

import json

from repro.cli import build_parser
from repro.perf import bench


class TestMicrobenchmarks:
    def test_encoding(self):
        out = bench.microbench_encoding(number=50)
        assert out["encode_cold_ns"] > 0
        assert out["encode_cached_ns"] > 0
        # The whole point of the memo: a cached read must beat a fresh
        # construct-and-encode by a wide margin.
        assert out["encode_cached_ns"] < out["encode_cold_ns"]

    def test_hmac(self):
        out = bench.microbench_hmac(number=50)
        assert out["hmac_oneshot_ns"] > 0
        assert out["hmac_prepared_ns"] > 0

    def test_buffer_scan_equivalence(self):
        # microbench_buffer_scan asserts internally that the indexed
        # scan returns exactly what the naive full-buffer filter does.
        out = bench.microbench_buffer_scan(buffer_size=16, number=20)
        assert out["scan_naive_ns"] > 0
        assert out["scan_indexed_ns"] > 0

    def test_batch_verify(self):
        # microbench_batch_verify asserts internally that both paths
        # accept the whole batch.
        out = bench.microbench_batch_verify(batch=8, number=20)
        assert out["verify_loop_ns"] > 0
        assert out["verify_batched_ns"] > 0

    def test_expiry_index(self):
        out = bench.microbench_expiry_index(size=16, number=50)
        assert out["expiry_dict_scan_ns"] > 0
        assert out["expiry_array_probe_ns"] > 0
        # The point of the sorted-array sidecar: the steady-state
        # probe must not scale with the buffer, the dict scan does.
        assert out["expiry_array_probe_ns"] < out["expiry_dict_scan_ns"]


class TestHotpathBenchmark:
    def test_single_run_smoke(self):
        report = bench.hotpath_benchmark(
            repeats=1, trace_name="infocom05", profile=False
        )
        assert report["spec"]["trace"] == "infocom05"
        assert len(report["wall_seconds_all"]) == 1
        assert report["wall_seconds_best"] > 0
        assert report["metrics"]["success_rate"] > 0
        assert report["counters"]["relay_entries"] > 0
        assert "profiled_seconds" not in report

    def test_write_report_reproduces_baseline_metrics(self, tmp_path):
        path = tmp_path / "BENCH_hotpath.json"
        report = bench.write_report(str(path), repeats=1, profile=False)
        on_disk = json.loads(path.read_text())
        assert on_disk["optimized"]["spec"] == report["optimized"]["spec"]
        assert on_disk["speedup_wall"] > 0
        # The acceptance gate of the overhaul: the optimized benchmark
        # run must reproduce the pre-overhaul metrics bit-for-bit.
        assert on_disk["optimized"]["metrics"] == bench.BASELINE["metrics"]
        assert (
            on_disk["optimized"]["metrics"]
            == bench.SAME_MACHINE_BASELINE["metrics"]
        )
        assert on_disk["speedup_wall_same_machine"] > 0
        assert set(on_disk["microbenchmarks"]) == {
            "encoding", "hmac", "buffer_scan", "batch_verify",
            "expiry_index",
        }
        # The tiers block: interpreted tiers measured and digest-equal,
        # the real tier deliberately skipped.
        tiers = on_disk["tiers"]
        assert tiers["identical_results"] is True
        assert tiers["simulated"]["metrics"] == tiers["accounting"]["metrics"]
        assert tiers["real"]["status"] == "skipped"


class TestCli:
    def test_perf_defaults(self):
        args = build_parser().parse_args(["perf"])
        assert args.command == "perf"
        assert args.out == "BENCH_hotpath.json"
        assert args.repeats == 5
        assert not args.no_profile
        assert args.provider is None

    def test_perf_flags(self):
        args = build_parser().parse_args(
            ["perf", "--out", "x.json", "--repeats", "2", "--no-profile",
             "--provider", "accounting"]
        )
        assert args.out == "x.json"
        assert args.repeats == 2
        assert args.no_profile
        assert args.provider == "accounting"


class TestScaleBenchNotes:
    def test_growth_note_states_the_measured_slope(self):
        from repro.perf.scalebench import _growth_note

        points = [
            {"contacts": 10_000, "peak_rss_bytes": 40_000_000},
            {"contacts": 40_000, "peak_rss_bytes": 60_000_000},
        ]
        assert _growth_note(points) == (
            " From 10000 to 40000 contacts (4.0x) peak RSS grows"
            " from 40 to 60 MB (1.5x)."
        )
        assert _growth_note(points[:1]) == ""
