"""Seed-determinism regression: identical runs must be bit-identical.

This is the dynamic counterpart of lint rule G2G001 (no global-RNG
draws): after auditing every ``import random`` module and converting
the unseeded fallbacks to fixed-seed instances, two executions of the
same seeded run (on either synthetic trace) must serialize to
byte-identical JSON —
the property all paper-figure comparisons rest on.  If this test ever
fails, some code path started drawing from outside the injected
per-run RNGs.
"""

import pytest

from repro.experiments.parallel import RunRequest, execute_request
# Re-exported: the other digest suites import it from this module.
from repro.sim.serialize import results_digest


#: Shortened cambridge06 setting so the double-runs stay quick while
#: still exercising generation, relay, proof, and detection paths.
QUICK = (
    ("run_length", 1800.0),
    ("silent_tail", 600.0),
    ("mean_interarrival", 60.0),
    ("ttl", 600.0),
    ("heavy_hmac_iterations", 4),
)


class TestSeededRunsAreReproducible:
    # Both synthetic traces: a determinism leak that only manifests on
    # one trace's contact pattern (e.g. a timer/contact tie) would slip
    # past a single-trace check.
    @pytest.mark.parametrize("trace_name", ["cambridge06", "infocom05"])
    def test_identical_seeded_runs_identical_digests(self, trace_name):
        request = RunRequest(
            trace_name=trace_name,
            family="epidemic",
            protocol_name="g2g_epidemic",
            seed=1,
            overrides=QUICK,
        )
        first = results_digest(execute_request(request))
        second = results_digest(execute_request(request))
        assert first == second

    def test_identical_adversarial_runs_identical_digests(self):
        # Adversary placement, camouflage draws, and detection all pull
        # randomness; they must pull it from the injected RNGs only.
        request = RunRequest(
            trace_name="cambridge06",
            family="epidemic",
            protocol_name="g2g_epidemic",
            seed=2,
            deviation="dropper",
            deviation_count=5,
            overrides=QUICK,
        )
        first = results_digest(execute_request(request))
        second = results_digest(execute_request(request))
        assert first == second

    def test_different_seeds_differ(self):
        # Guard against the digest comparing constants: changing the
        # seed must change the run.
        base = dict(
            trace_name="cambridge06",
            family="epidemic",
            protocol_name="g2g_epidemic",
            overrides=QUICK,
        )
        one = results_digest(execute_request(RunRequest(seed=1, **base)))
        other = results_digest(execute_request(RunRequest(seed=2, **base)))
        assert one != other
