"""Simulation configuration and the energy/memory cost model.

The defaults encode the paper's standard experimental setting
(Sec. V-C): a 3-hour run, Poisson traffic averaging one message per
4 seconds with uniformly random endpoints, a silent final hour,
infinite buffers, and Δ2 = 2·Δ1.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional

#: Paper defaults.
DEFAULT_RUN_LENGTH = 3 * 3600.0
DEFAULT_SILENT_TAIL = 3600.0
DEFAULT_MEAN_INTERARRIVAL = 4.0
DEFAULT_DELTA2_FACTOR = 2.0

#: Who initiates G2G test phases (the ``testers`` config field).
TESTER_MODES = ("source", "any_giver")


@dataclass(frozen=True)
class EnergyModel:
    """Energy prices (joules) for the payoff accounting.

    The Nash argument needs the heavy HMAC to cost more than relaying
    a message would have; the defaults respect that ordering.  These
    numbers parameterize *relative* costs — the simulator reports
    joules, but only comparisons matter.
    """

    transmit_per_kb: float = 0.02
    receive_per_kb: float = 0.015
    signature: float = 0.005
    verification: float = 0.002
    heavy_hmac: float = 0.5
    storage_per_kb_hour: float = 0.001

    def transfer_cost(self, size_bytes: int) -> float:
        """Sender-side energy to transmit ``size_bytes``."""
        return self.transmit_per_kb * size_bytes / 1024.0

    def receive_cost(self, size_bytes: int) -> float:
        """Receiver-side energy to take ``size_bytes``."""
        return self.receive_per_kb * size_bytes / 1024.0


@dataclass(frozen=True)
class SimulationConfig:
    """Knobs of one simulation run.

    Attributes:
        run_length: simulated seconds (paper: 3 hours).
        silent_tail: trailing period with no new traffic (paper: 1 h).
        mean_interarrival: mean seconds between message generations
            (paper: 4 s).
        ttl: message TTL Δ1 in seconds (per trace and protocol family;
            see :mod:`repro.traces.presets`).
        delta2_factor: Δ2 = factor · Δ1 (paper: 2).
        quality_timeframe: delegation forwarding-quality timeframe
            (paper: 34 minutes).
        relay_fanout: G2G relay cap (paper: 2 — the "give 2" rule).
        source_fanout: relay cap for a message's own source; the paper
            has the sender relay "to the first two (at least) nodes it
            meets", so the source may seed more copies than a relay —
            None (default) means unbounded.
        buffer_capacity: maximum message bodies a node buffers at once.
            None (default) reproduces the paper's infinite-buffer
            assumption.  A finite capacity forces evictions
            (earliest-expiring body first), which in G2G runs can make
            an honest node fail a storage challenge — the memory
            pressure vs false-conviction trade-off the Δ2 discussion
            alludes to; see benchmarks/test_ablations.py.
        seed: master RNG seed; traffic, crypto, and adversary draws all
            derive from it.
        message_size: payload bytes, for memory/energy accounting.
        instant_blacklist: True = a PoM reaches everyone immediately
            (the paper's broadcast assumption); False = PoMs gossip
            from node to node during contacts.
        blacklist_round_interval: with gossip (``instant_blacklist=
            False``), an optional period of scheduler-driven
            propagation rounds that push every published PoM to every
            node — out-of-band broadcast with bounded staleness.  None
            (default) keeps dissemination purely contact-driven.
        testers: who initiates G2G test phases.  ``"source"`` (default)
            is the paper's protocol — only the message source audits
            its direct relays, which is what makes testing incentive-
            compatible.  ``"any_giver"`` has every relay audit its own
            takers too; it is NOT a Nash equilibrium (relays gain
            nothing from spending energy on tests) and exists purely
            as an ablation of detection speed vs audit effort.
        energy: the cost model.
        heavy_hmac_iterations: chain length of the storage challenge.
        track_memory: record per-node memory usage over time (slight
            overhead; on by default).
        track_events: record a structured protocol event log
            (:mod:`repro.sim.eventlog`) on the results; off by default
            — intended for debugging and audits, not sweeps.
    """

    run_length: float = DEFAULT_RUN_LENGTH
    silent_tail: float = DEFAULT_SILENT_TAIL
    mean_interarrival: float = DEFAULT_MEAN_INTERARRIVAL
    ttl: float = 30 * 60.0
    delta2_factor: float = DEFAULT_DELTA2_FACTOR
    quality_timeframe: float = 34 * 60.0
    relay_fanout: int = 2
    source_fanout: Optional[int] = None
    buffer_capacity: Optional[int] = None
    seed: int = 0
    message_size: int = 1024
    instant_blacklist: bool = True
    blacklist_round_interval: Optional[float] = None
    testers: str = "source"
    energy: EnergyModel = field(default_factory=EnergyModel)
    heavy_hmac_iterations: int = 64
    track_memory: bool = True
    track_events: bool = False

    def __post_init__(self) -> None:
        if self.run_length <= 0:
            raise ValueError("run_length must be positive")
        if not 0 <= self.silent_tail < self.run_length:
            raise ValueError("silent_tail must lie within the run")
        if self.mean_interarrival <= 0:
            raise ValueError("mean_interarrival must be positive")
        if self.ttl <= 0:
            raise ValueError("ttl must be positive")
        if self.delta2_factor <= 1:
            raise ValueError("delta2_factor must exceed 1 (Δ2 > Δ1)")
        if self.relay_fanout < 1:
            raise ValueError("relay_fanout must be >= 1")
        if self.buffer_capacity is not None and self.buffer_capacity < 1:
            raise ValueError("buffer_capacity must be >= 1 (or None)")
        if self.quality_timeframe <= 0:
            raise ValueError("quality_timeframe must be positive")
        if (
            self.blacklist_round_interval is not None
            and self.blacklist_round_interval <= 0
        ):
            raise ValueError(
                "blacklist_round_interval must be positive (or None)"
            )
        if self.testers not in TESTER_MODES:
            raise ValueError(
                f"testers must be one of {TESTER_MODES}, got {self.testers!r}"
            )

    @property
    def delta1(self) -> float:
        """Alias: the TTL is Δ1."""
        return self.ttl

    @property
    def delta2(self) -> float:
        """The test-phase horizon Δ2."""
        return self.delta2_factor * self.ttl

    @property
    def generation_deadline(self) -> float:
        """Last instant at which traffic may be generated."""
        return self.run_length - self.silent_tail

    def with_ttl(self, ttl: float) -> "SimulationConfig":
        """Copy with a different TTL."""
        return replace(self, ttl=ttl)

    def with_seed(self, seed: int) -> "SimulationConfig":
        """Copy with a different master seed."""
        return replace(self, seed=seed)


def config_for(
    trace_name: str,
    family: str,
    seed: int = 0,
    **overrides: object,
) -> SimulationConfig:
    """Build the paper's configuration for a trace/protocol family.

    Args:
        trace_name: "infocom05" or "cambridge06".
        family: "epidemic" or "delegation" — selects the paper TTL.
        seed: master seed.
        **overrides: any :class:`SimulationConfig` field.

    Raises:
        KeyError: on unknown trace or family names.
    """
    from ..traces.presets import DELEGATION_TTL, EPIDEMIC_TTL, QUALITY_TIMEFRAME

    ttl_table = {"epidemic": EPIDEMIC_TTL, "delegation": DELEGATION_TTL}
    if family not in ttl_table:
        raise KeyError(f"unknown protocol family {family!r}")
    ttl = ttl_table[family][trace_name]
    base = SimulationConfig(
        ttl=ttl, quality_timeframe=QUALITY_TIMEFRAME, seed=seed
    )
    return replace(base, **overrides) if overrides else base
