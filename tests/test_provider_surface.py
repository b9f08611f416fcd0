"""The crypto provider interface holds exactly what a G2G run calls.

A G2G Epidemic golden and a G2G Delegation golden run over a recording
subclass of the default simulated tier.  Every abstract method of
:class:`~repro.crypto.CryptoProvider` must be called at least once, so
the interface cannot regrow a method that no run uses, and the results
must stay bit-identical to the plain provider's: the recording changes
nothing the runs can observe.
"""

import pytest

from repro.crypto import (
    PROVIDER_TIERS,
    CryptoProvider,
    SimulatedCryptoProvider,
)
from repro.experiments import run_point
from repro.sim.serialize import results_digest
from tests.test_experiments_golden import CASES, PLAN, TINY

#: The provider methods a run must reach.
SURFACE = frozenset(CryptoProvider.__abstractmethods__)

#: One golden per G2G family.
G2G_GOLDENS = ("fig4", "fig7")


class RecordingProvider(SimulatedCryptoProvider):
    """The simulated tier, logging each interface method a run calls."""

    calls: set = set()


def _recorded(name):
    inner = getattr(SimulatedCryptoProvider, name)

    def method(self, *args):
        RecordingProvider.calls.add(name)
        return inner(self, *args)

    return method


for _name in SURFACE:
    setattr(RecordingProvider, _name, _recorded(_name))


def golden_digests(name):
    case = CASES[name]
    point = run_point(
        "infocom05",
        case["protocol"],
        deviation=case["deviation"],
        deviation_count=case["count"],
        plan=PLAN,
        config_overrides={**TINY, **case.get("overrides", {})},
    )
    return [results_digest(run) for run in point.runs]


@pytest.fixture(scope="module")
def recorded_runs():
    """Digests of both goldens over the recording tier, and its calls."""
    RecordingProvider.calls = set()
    saved = PROVIDER_TIERS["simulated"]
    PROVIDER_TIERS["simulated"] = RecordingProvider
    try:
        digests = {name: golden_digests(name) for name in G2G_GOLDENS}
    finally:
        PROVIDER_TIERS["simulated"] = saved
    return digests, frozenset(RecordingProvider.calls)


def test_goldens_reach_every_abstract_method(recorded_runs):
    _, calls = recorded_runs
    assert calls == SURFACE, (
        f"CryptoProvider methods no G2G golden calls: "
        f"{sorted(SURFACE - calls)}"
    )


@pytest.mark.parametrize("name", G2G_GOLDENS)
def test_recording_leaves_results_unchanged(recorded_runs, name):
    digests, _ = recorded_runs
    assert digests[name] == golden_digests(name)
