"""Conformance suite for the crypto provider tiers.

The contract: the provider tier changes *wall-clock*, never *results*.
Real (from-scratch RSA) and simulated (HMAC-backed registry) must
produce bit-identical :class:`SimulationResults` — same success rate,
cost, energy ledger, detections, evictions — on the golden specs.
G2G's equilibrium argument depends on what is verified, not on how the
verification is computed, so any digest divergence here means a tier
leaked into the simulation's observable behavior.

The real tier runs with small (384-bit) keys and its own seeded RNG to
stay test-sized; that is itself part of the contract under test —
results must be insensitive to how much randomness the crypto layer
consumes, because the provider draws from a stream the simulation
never reads for protocol decisions.
"""

import random

import pytest

from repro import api
from repro.adversaries import Cheater, Liar
from repro.core import G2GDelegationForwarding, G2GEpidemicForwarding
from repro.crypto import (
    PROVIDER_TIERS,
    RealCryptoProvider,
    SimulatedCryptoProvider,
    TIER_NAMES,
    make_provider,
)
from repro.sim import Simulation, SimulationConfig
from tests.test_determinism_seeds import QUICK, results_digest

#: Golden specs: both evaluation traces, shortened (QUICK) so the
#: cross-tier matrix stays test-sized while exercising generation,
#: relay, proofs, detection, and Δ2 purges.
GOLDEN_SPECS = ("cambridge06", "infocom05")


def run_tier(trace_name, provider, *, seed=1, **kwargs):
    return api.run(
        trace_name,
        G2GEpidemicForwarding(provider=provider),
        dict(QUICK),
        seed=seed,
        **kwargs,
    )


def metrics_of(results):
    return (
        round(results.success_rate, 9),
        round(results.cost, 9),
        round(results.total_energy, 9),
        sorted((d.offender, d.msg_id, d.deviation) for d in results.detections),
    )


class TestTierRegistry:
    def test_tier_names_cover_the_registry(self):
        assert set(TIER_NAMES) == set(PROVIDER_TIERS)
        assert TIER_NAMES == ("real", "simulated")

    def test_make_provider_rejects_unknown_names(self):
        with pytest.raises(ValueError, match="unknown crypto provider tier"):
            make_provider("quantum")

    def test_make_provider_builds_each_tier(self):
        provider = make_provider("simulated", random.Random(1))
        private_key, public_key = provider.generate_keypair()
        payload = b"tier-check"
        assert provider.verify(
            public_key, payload, provider.sign(private_key, payload)
        )


class TestGoldenSpecConformance:
    @pytest.mark.parametrize("trace_name", GOLDEN_SPECS)
    def test_real_matches_simulated(self, trace_name):
        # A provider instance with its own RNG: the run must not care
        # how much (or whether) the crypto layer draws randomness.
        real = run_tier(
            trace_name,
            RealCryptoProvider(key_bits=384, rng=random.Random(99)),
        )
        simulated = run_tier(trace_name, "simulated")
        assert metrics_of(real) == metrics_of(simulated)
        assert results_digest(real) == results_digest(simulated)

    def test_adversarial_detections_match_across_tiers(self):
        simulated = run_tier("cambridge06", "simulated", mix={"dropper": 0.2})
        assert simulated.detections  # the spec must actually convict


#: The deviating nodes of the delegation parity runs; both are
#: convicted on every tier.
DEVIATORS = (3, 7)


def real_provider():
    return RealCryptoProvider(key_bits=384, rng=random.Random(99))


def run_delegation(mini_synthetic, variant, deviation, provider):
    """The mini_synthetic spec of the delegation liar test, any deviation."""
    cfg = SimulationConfig(
        run_length=2 * 3600.0, silent_tail=1800.0,
        mean_interarrival=60.0, ttl=1500.0, seed=4,
        quality_timeframe=600.0, heavy_hmac_iterations=2,
    )
    results = Simulation(
        mini_synthetic.trace,
        G2GDelegationForwarding(variant, provider=provider),
        cfg,
        strategies={node: deviation() for node in DEVIATORS},
    ).run()
    assert sorted(d.offender for d in results.detections) == sorted(DEVIATORS)
    return results


class TestDelegationParityAcrossTiers:
    """G2G Delegation signs its FQ_RESP declarations lazily; the tier
    must still not leak into results."""

    def test_cheaters_match_on_every_tier(self, mini_synthetic):
        digests = {
            results_digest(run_delegation(
                mini_synthetic, "last_contact", Cheater, provider
            ))
            for provider in ("simulated", real_provider())
        }
        assert len(digests) == 1

    @pytest.mark.xfail(
        strict=True,
        reason=(
            "ROADMAP 'Camouflage draws depend on the crypto tier': a "
            "liar's deviation counts follow the D' draws, which share "
            "ctx.rng with the crypto provider"
        ),
    )
    def test_liars_match_on_real(self, mini_synthetic):
        real = run_delegation(
            mini_synthetic, "frequency", Liar, real_provider()
        )
        simulated = run_delegation(
            mini_synthetic, "frequency", Liar, "simulated"
        )
        assert results_digest(real) == results_digest(simulated)


class TestSelectionSurfaces:
    def test_api_run_accepts_provider_instances(self):
        provider = SimulatedCryptoProvider(random.Random(3))
        results = run_tier("cambridge06", provider)
        assert results.generated > 0

    def test_api_run_rejects_provider_for_plain_epidemic(self):
        with pytest.raises(ValueError, match="does not take a crypto"):
            api.run(
                "cambridge06", "epidemic", dict(QUICK), seed=1,
                provider="simulated",
            )

    def test_use_provider_refuses_rebind(self):
        protocol = G2GEpidemicForwarding()
        api.run("cambridge06", protocol, dict(QUICK), seed=1)
        with pytest.raises(RuntimeError, match="before bind"):
            protocol.use_provider("simulated")

    def test_cli_provider_flag_is_wired(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(
            ["simulate", "--provider", "simulated"]
        )
        assert args.provider == "simulated"

