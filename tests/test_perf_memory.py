"""Tests for the memory-measurement helpers (repro.perf.memory) and the
scale sweep's memory-growth note (repro.perf.scalebench)."""

import tracemalloc

from repro.perf import current_rss_bytes, measure_peak_alloc, peak_rss_bytes


class TestMeasurePeakAlloc:
    def test_known_allocation_is_measured(self):
        # A single 8 MB bytearray dominates the callable's footprint;
        # the traced peak must land on it (tracemalloc is exact, so
        # only the surrounding bookkeeping adds slack).
        size = 8_000_000

        result, peak = measure_peak_alloc(lambda: len(bytearray(size)))
        assert result == size
        assert size <= peak < size * 1.05

    def test_peak_not_residency(self):
        # Two sequential 4 MB blocks: both are freed before return, so
        # the *peak* sees one block, never the sum.
        size = 4_000_000

        def churn():
            for _ in range(2):
                block = bytearray(size)
                del block
            return True

        result, peak = measure_peak_alloc(churn)
        assert result is True
        assert size <= peak < size * 1.5

    def test_nested_tracing_preserved(self):
        # When the caller already traces, the helper must neither stop
        # tracing nor report the caller's baseline as its own peak.
        tracemalloc.start()
        try:
            outer = bytearray(1_000_000)
            _, peak = measure_peak_alloc(lambda: bytearray(2_000_000))
            assert tracemalloc.is_tracing()
            assert 2_000_000 <= peak < 2_100_000
            assert len(outer) == 1_000_000
        finally:
            tracemalloc.stop()

    def test_zero_allocation_clamped(self):
        _, peak = measure_peak_alloc(lambda: None)
        assert peak >= 0


class TestRssProbes:
    def test_peak_rss_positive_and_monotone(self):
        first = peak_rss_bytes()
        assert first > 0
        ballast = bytearray(1_000_000)
        assert peak_rss_bytes() >= first
        assert len(ballast) == 1_000_000

    def test_current_rss_on_linux(self):
        rss = current_rss_bytes()
        if rss is not None:  # Linux container: always taken
            assert 0 < rss <= peak_rss_bytes()


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
