"""Cross-worker telemetry merge determinism.

The tentpole guarantee of the telemetry subsystem: a grid point's
merged telemetry totals are identical whether its runs executed
sequentially (``workers=1``) or across a process pool — and the
simulation results themselves stay bit-identical too.
"""

import pytest

from repro.experiments.parallel import ExecutionOptions
from repro.experiments.runner import run_point
from repro.experiments.setting import ReplicationPlan
from repro.sim.serialize import results_to_dict

#: Shortened window (long enough for Δ1 sender tests and PoMs to
#: fire) so the 3x4-run matrix stays test-suite fast.
TINY = {"run_length": 4500.0, "silent_tail": 1800.0}

SEEDS = (1, 2, 3, 4)


def _point(workers):
    return run_point(
        "cambridge06",
        "g2g_epidemic",
        deviation="dropper",
        deviation_count=5,
        plan=ReplicationPlan(seeds=SEEDS),
        config_overrides=dict(TINY),
        options=ExecutionOptions(workers=workers),
    )


@pytest.fixture(scope="module")
def sequential_point():
    return _point(1)


class TestCrossWorkerMerge:
    @pytest.mark.parametrize("workers", [2, 4])
    def test_parallel_merge_equals_sequential(self, sequential_point, workers):
        parallel_point = _point(workers)
        assert sequential_point.telemetry is not None
        assert parallel_point.telemetry == sequential_point.telemetry
        # The underlying results stay bit-identical as well.
        for seq_run, par_run in zip(
            sequential_point.runs, parallel_point.runs
        ):
            assert results_to_dict(par_run) == results_to_dict(seq_run)

    def test_merged_totals_cover_every_run(self, sequential_point):
        telemetry = sequential_point.telemetry
        counters = telemetry["counters"]
        assert counters["run.count"] == len(SEEDS)
        assert counters["run.generated"] == sum(
            run.generated for run in sequential_point.runs
        )
        assert counters["run.delivered"] == sum(
            run.delivered for run in sequential_point.runs
        )
        assert counters["ops.signatures"] > 0
        # Delivery-delay histogram folds one observation per delivery.
        hist = telemetry["histograms"]["run.delivery_delay_seconds"]
        assert hist["count"] == counters["run.delivered"]

    def test_spans_cover_protocol_phases(self, sequential_point):
        spans = sequential_point.telemetry["spans"]
        assert spans["relay_handshake"]["count"] > 0
        assert spans["sender_test"]["count"] > 0
        assert spans["pom_eviction"]["count"] > 0
        handshake = spans["relay_handshake"]
        assert handshake["first_time"] <= handshake["last_time"]

    def test_results_digest_unaffected_by_telemetry(self, sequential_point):
        # The telemetry sidecar must never leak into the serialized
        # (digest-bearing) result form.
        for run in sequential_point.runs:
            assert "telemetry" not in results_to_dict(run)
