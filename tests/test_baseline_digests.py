"""Results-digest pins for the vanilla baselines: Epidemic and
Delegation, with droppers and with a bounded buffer."""

import dataclasses

import pytest

from repro.adversaries import Dropper
from repro.protocols import DelegationForwarding, EpidemicForwarding
from repro.sim import Simulation
from tests.test_determinism_seeds import results_digest

#: ``results_to_dict`` sha256 of each baseline on mini_synthetic x
#: quick_config.  The buffer-scan and relay-loop fast paths must leave
#: every one of them unchanged: a moved digest means an optimisation
#: changed which copy moved, in what order, or what it cost.
BASELINE_DIGESTS = {
    "delegation_last_contact": (
        "1e0704ecf239c24564a3df977b5bf5f535da998e4aab88379b186591b0fa092c"
    ),
    "epidemic": (
        "0d8c30901b3c93d999d6fb3a31e2421cc2603db902b6cbc8b42eefc5b00df1bd"
    ),
    "epidemic_capacity_2": (
        "dbbd643fecbc22a4ff2483c9e6d36656d4c6acc1aa3173a5c6eff62d79579c63"
    ),
    "epidemic_droppers": (
        "e4d69359aef9054203d2c974e474781e8b46b62d56356883167ac9d1ccb21e39"
    ),
}

#: Nodes that silently drop what they relay (``epidemic_droppers``).
DROPPERS = (1, 6)


def baseline_run(case, trace, config):
    strategies = None
    if case == "epidemic":
        protocol = EpidemicForwarding()
    elif case == "delegation_last_contact":
        protocol = DelegationForwarding("last_contact")
    elif case == "epidemic_droppers":
        protocol = EpidemicForwarding()
        strategies = {node: Dropper() for node in DROPPERS}
    else:
        assert case == "epidemic_capacity_2"
        protocol = EpidemicForwarding()
        config = dataclasses.replace(config, buffer_capacity=2)
    return Simulation(trace, protocol, config, strategies=strategies).run()


class TestBaselineDigests:
    @pytest.mark.parametrize("case", sorted(BASELINE_DIGESTS))
    def test_digest_pinned(self, case, mini_synthetic, quick_config):
        results = baseline_run(case, mini_synthetic.trace, quick_config)
        assert results.relay_attempts > 0
        if case == "epidemic_droppers":
            # The keep_relayed_copy path actually ran.
            assert set(results.deviation_counts) <= set(DROPPERS)
            assert results.deviation_counts
        if case == "epidemic_capacity_2":
            # The make_room path actually evicted.
            assert results.buffer_evictions > 0
        assert results_digest(results) == BASELINE_DIGESTS[case]
