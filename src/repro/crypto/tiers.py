"""The provider-tier registry: real / simulated by name.

One canonical mapping from tier name to constructor so every selection
surface — ``Give2GetBase(provider=...)``, ``api.run(provider=...)``,
the CLI's ``--provider`` — resolves names identically.  Tiers order by
fidelity-versus-speed:

* ``"real"`` — from-scratch RSA; the ground truth, minutes per run.
* ``"simulated"`` — HMAC-backed registry; the default, bit-identical
  results at a small fraction of the cost (the conformance suite in
  ``tests/test_provider_tiers.py`` holds it to that).
"""

from __future__ import annotations

import random
from typing import Callable, Dict, Optional, Tuple

from .provider import (
    CryptoProvider,
    RealCryptoProvider,
    SimulatedCryptoProvider,
)

#: Tier name -> constructor over the run's seeded RNG.
PROVIDER_TIERS: Dict[
    str, Callable[[Optional[random.Random]], CryptoProvider]
] = {
    "real": lambda rng: RealCryptoProvider(rng=rng),
    "simulated": lambda rng: SimulatedCryptoProvider(rng),
}

#: Tier names in fidelity order (stable for CLI choices and reports).
TIER_NAMES: Tuple[str, ...] = ("real", "simulated")


def make_provider(
    name: str, rng: Optional[random.Random] = None
) -> CryptoProvider:
    """Construct the named provider tier over ``rng``.

    Raises:
        ValueError: for an unknown tier name.
    """
    try:
        factory = PROVIDER_TIERS[name]
    except KeyError:
        raise ValueError(
            f"unknown crypto provider tier {name!r}; "
            f"expected one of {sorted(PROVIDER_TIERS)}"
        ) from None
    return factory(rng)
