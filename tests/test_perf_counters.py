"""Counter-based perf tests for the relay-loop hot path.

Wall-clock assertions are flaky on shared machines, so these tests pin
*operation counts* instead: for a fixed trace and seed the simulator is
deterministic, and the counters recorded below are exact.  A change
that performs more signatures, encodings, or relay-phase entries than
the recorded budget is a hot-path regression even if it happens to run
fast on the test machine.
"""

from __future__ import annotations

import pytest

from repro.core.g2g_delegation import G2GDelegationForwarding
from repro.core.g2g_epidemic import G2GEpidemicForwarding
from repro.experiments.setting import evaluation_trace, standard_config
from repro.perf import COUNTERS, OpCounters
from repro.sim import Simulation
from repro.sim.engine import run_simulation
from repro.sim.serialize import results_digest


#: Exact op counts of the budget run (mini_synthetic x quick_config,
#: G2G Epidemic, all honest).  Deterministic for the fixture seeds;
#: regenerate by printing ``COUNTERS.diff(before)`` after the run.
BUDGET = {
    "signatures": 954,
    "verifications": 1080,
    "hmac_prepares": 386,
    "hmac_copies": 1464,
    "encodings": 1030,
    "relay_entries": 756,
    "buffer_scans": 585,
    "buffer_scanned": 4622,
}

#: Exact totals for the signature path of the budget run.  Pinned
#: with ``==`` (not ``<=``): the collect-then-verify batching at the
#: handshake choke points must fold counter *bumps*, never change the
#: *count* of signatures checked — a drop here means verifications
#: were skipped, an increase means the batching re-verifies.
BATCHED_VERIFY_PINS = {
    "signatures": 954,
    "verifications": 1080,
    "mac_cache_hits": 1080,
    "cert_checks": 84,
    "cert_cache_hits": 912,
}


#: Op counts of the same run under honest G2G Delegation (last
#: contact).  Only the FQ_RESP declarations a record reads are signed
#: (a source's failed ones when a hand-off first embeds them), so
#: ``signatures``/``encodings`` are upper budgets; the relay-phase
#: work and the verifications are exact.
DELEGATION_BUDGET = {
    "signatures": 553,
    "encodings": 629,
}
DELEGATION_PINS = {
    "verifications": 408,
    "relay_entries": 1198,
    "relay_handoffs": 236,
}
#: Results digest of the delegation budget run: building fewer
#: declarations must not change a single result.
DELEGATION_DIGEST = (
    "e439e99b26787143e2645630602bf7f7266b547fdbdac900e6ff6f918cc9bc2a"
)

#: The full-length hot-path run: cambridge06 / G2G Epidemic / seed 1
#: under ``standard_config``.  Every relay-loop optimisation must
#: reproduce its digest and headline metrics bit for bit.
HOTPATH_DIGEST = (
    "a8652842493ac8a3b933f3bac73ca0525b351682224ff84effe62708d0ac81b0"
)
HOTPATH_METRICS = {
    "success_rate": 0.702733,
    "cost": 23.604214,
    "total_energy": 2550.404531,
}


@pytest.fixture
def budget_run(mini_synthetic, quick_config):
    """Counter diff of one honest G2G Epidemic run on the mini trace."""
    before = COUNTERS.snapshot()
    results = Simulation(
        mini_synthetic.trace, G2GEpidemicForwarding(), quick_config
    ).run()
    return COUNTERS.diff(before), results


class TestOpCounters:
    def test_reset_zeroes_everything(self):
        counters = OpCounters()
        counters.signatures += 3
        counters.reset()
        assert all(v == 0 for v in counters.snapshot().values())

    def test_diff_is_per_field(self):
        counters = OpCounters()
        before = counters.snapshot()
        counters.encodings += 2
        counters.relay_entries += 1
        delta = counters.diff(before)
        assert delta["encodings"] == 2
        assert delta["relay_entries"] == 1
        assert delta["signatures"] == 0


class TestHotPathBudgets:
    def test_deterministic(self, mini_synthetic, quick_config):
        runs = []
        for _ in range(2):
            before = COUNTERS.snapshot()
            Simulation(
                mini_synthetic.trace, G2GEpidemicForwarding(), quick_config
            ).run()
            runs.append(COUNTERS.diff(before))
        assert runs[0] == runs[1]

    def test_relay_budget(self, budget_run):
        diff, _ = budget_run
        assert diff["relay_entries"] <= BUDGET["relay_entries"]
        # The seen-filter runs before _relay_one, so in an all-honest
        # epidemic run every entered relay completes with a hand-off.
        assert diff["relay_handoffs"] == diff["relay_entries"]

    def test_encoding_budget(self, budget_run):
        diff, _ = budget_run
        assert diff["encodings"] <= BUDGET["encodings"]
        # The memoized payload()/wire_bytes() must actually be serving
        # verifiers: more hits than fresh encodings would be impossible
        # without the cache; zero hits means it broke.
        assert diff["encoding_cache_hits"] > 0

    def test_hmac_budget(self, budget_run):
        diff, _ = budget_run
        assert diff["signatures"] <= BUDGET["signatures"]
        assert diff["verifications"] <= BUDGET["verifications"]
        assert diff["hmac_prepares"] <= BUDGET["hmac_prepares"]
        assert diff["hmac_copies"] <= BUDGET["hmac_copies"]

    def test_mac_memo_serves_every_verification(self, budget_run):
        diff, _ = budget_run
        # Every artifact verified in an honest run was signed by this
        # same provider moments earlier, so the signature memo should
        # answer all of them without recomputing a single HMAC.
        assert diff["mac_cache_hits"] == diff["verifications"]
        assert diff["mac_cache_hits"] > 0

    def test_buffer_scan_budget(self, budget_run):
        diff, _ = budget_run
        assert diff["buffer_scans"] <= BUDGET["buffer_scans"]
        assert diff["buffer_scanned"] <= BUDGET["buffer_scanned"]

    def test_batched_verify_counter_totals(self, budget_run):
        diff, _ = budget_run
        for field, expected in BATCHED_VERIFY_PINS.items():
            assert diff[field] == expected, field

    def test_run_still_delivers(self, budget_run):
        _, results = budget_run
        assert results.delivered > 0
        assert results.success_rate > 0.5


class TestDelegationBudget:
    @pytest.fixture
    def delegation_run(self, mini_synthetic, quick_config):
        before = COUNTERS.snapshot()
        results = Simulation(
            mini_synthetic.trace, G2GDelegationForwarding(), quick_config
        ).run()
        return COUNTERS.diff(before), results

    def test_signature_and_encoding_budget(self, delegation_run):
        diff, _ = delegation_run
        for field, budget in DELEGATION_BUDGET.items():
            assert diff[field] <= budget, field

    def test_exact_relay_and_verify_counts(self, delegation_run):
        diff, _ = delegation_run
        for field, expected in DELEGATION_PINS.items():
            assert diff[field] == expected, field

    def test_results_digest_unchanged(self, delegation_run):
        _, results = delegation_run
        assert results_digest(results) == DELEGATION_DIGEST


class TestHotPathDigest:
    def test_full_cambridge06_run_is_bit_identical(self):
        results = run_simulation(
            evaluation_trace("cambridge06"),
            G2GEpidemicForwarding(),
            standard_config("cambridge06", "epidemic", 1),
        )
        assert results_digest(results) == HOTPATH_DIGEST
        assert {
            name: round(getattr(results, name), 6) for name in HOTPATH_METRICS
        } == HOTPATH_METRICS
