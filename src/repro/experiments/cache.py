"""On-disk caching of per-run simulation results.

Re-running a figure after an unrelated change should not re-simulate:
each (trace, protocol, adversary, config, seed) run is keyed by a
stable content hash and its :class:`~repro.sim.results.SimulationResults`
archived as JSON under the cache directory.  The key covers *every*
input that can change the output:

* trace name;
* protocol family and catalog name (which encodes the factory
  parameters — e.g. ``delegation_last_contact`` vs
  ``delegation_frequency``);
* adversary spec (deviation kind and count, or explicit placement);
* every :class:`~repro.sim.config.SimulationConfig` field, including
  the nested :class:`~repro.sim.config.EnergyModel`;
* the replication seed;
* a code-version tag (bump :data:`CACHE_VERSION` whenever simulation
  semantics change).

Corrupted or unreadable entries are treated as misses, never errors:
a crashed writer or a stale format can cost a re-run but cannot
poison an experiment.  Writes are atomic (temp file + ``os.replace``)
so a killed process never leaves a half-written entry under the final
name.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Mapping, Optional, Sequence, Union

from ..sim.config import SimulationConfig
from ..sim.results import SimulationResults
from ..sim.serialize import (
    FORMAT_VERSION,
    results_from_dict,
    results_to_dict,
)

PathLike = Union[str, Path]

#: Bump whenever simulation semantics change in a way that should
#: invalidate previously cached runs (the serialize format version is
#: hashed in independently).
CACHE_VERSION = 1

#: Default cache location used by the CLI.
DEFAULT_CACHE_DIR = ".repro-cache"


def run_key(
    trace_name: str,
    family: str,
    protocol_name: str,
    deviation: Optional[str],
    deviation_count: int,
    seed: int,
    config: SimulationConfig,
    scenario: Optional[Mapping[str, Any]] = None,
    source: Optional[Sequence[Sequence[Any]]] = None,
    placement: Optional[Sequence[Sequence[Any]]] = None,
) -> str:
    """Stable content hash identifying one simulation run.

    The hash is a SHA-256 over the canonical JSON of every run input;
    it is stable across processes and hosts (no reliance on Python's
    randomized ``hash()``).

    ``scenario`` carries the extra inputs of scenario runs (adversary
    mix, churn schedule, energy-budget spec); ``source`` carries the
    streaming-source spec of synthetic mega-trace runs; ``placement``
    the explicit ``(node, kind)`` adversaries of best-response runs.
    Each is folded into the payload only when present, so every
    pre-scenario (and pre-source, pre-placement) key — and every entry
    written under one — stays valid.
    """
    payload = {
        "cache_version": CACHE_VERSION,
        "format_version": FORMAT_VERSION,
        "trace": trace_name,
        "family": family,
        "protocol": protocol_name,
        "deviation": deviation,
        "deviation_count": deviation_count,
        "seed": seed,
        "config": dataclasses.asdict(config),
    }
    if scenario:
        payload["scenario"] = dict(scenario)
    if source:
        payload["source"] = [list(pair) for pair in source]
    if placement:
        payload["placement"] = [list(pair) for pair in placement]
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


@dataclass
class CacheStats:
    """Hit/miss accounting of one :class:`RunCache`."""

    hits: int = 0
    misses: int = 0
    writes: int = 0
    corrupt: int = 0

    def summary(self) -> str:
        """One-line human rendering."""
        parts = [f"{self.hits} hits", f"{self.misses} misses"]
        if self.writes:
            parts.append(f"{self.writes} writes")
        if self.corrupt:
            parts.append(f"{self.corrupt} corrupt entries ignored")
        return ", ".join(parts)


@dataclass
class RunCache:
    """Content-addressed store of serialized simulation results."""

    cache_dir: PathLike
    stats: CacheStats = field(default_factory=CacheStats)

    def __post_init__(self) -> None:
        self._dir = Path(self.cache_dir)
        self._dir.mkdir(parents=True, exist_ok=True)

    def path_for(self, key: str) -> Path:
        """Cache file of one run key."""
        return self._dir / f"{key}.json"

    def get(self, key: str) -> Optional[SimulationResults]:
        """Load a cached run, or None on miss.

        Unreadable, truncated, or wrong-version entries count as
        misses (and are tallied in :attr:`CacheStats.corrupt`).
        """
        path = self.path_for(key)
        if not path.exists():
            self.stats.misses += 1
            return None
        try:
            results = results_from_dict(json.loads(path.read_text()))
        except (OSError, ValueError, LookupError, TypeError, AttributeError):
            # Everything a truncated, garbled, or wrong-schema entry
            # can raise on read/deserialize (JSONDecodeError is a
            # ValueError; missing fields raise KeyError/TypeError).
            # Anything else — MemoryError, KeyboardInterrupt, a
            # genuine bug in results_from_dict — must propagate.
            self.stats.corrupt += 1
            self.stats.misses += 1
            return None
        self.stats.hits += 1
        return results

    def put(self, key: str, results: SimulationResults) -> None:
        """Atomically archive one run under its key."""
        path = self.path_for(key)
        # Compact separators keep CPython on its C encoder (``indent``
        # forces the pure-Python one).  ``sort_keys`` stays: a cache
        # hit re-sums the energy ledger in file key order, so the key
        # order is part of what a hit returns.
        payload = json.dumps(
            results_to_dict(results), sort_keys=True, separators=(",", ":")
        )
        fd, tmp_name = tempfile.mkstemp(
            prefix=f".{key[:12]}-", suffix=".tmp", dir=str(self._dir)
        )
        try:
            with os.fdopen(fd, "w") as handle:
                handle.write(payload)
            os.replace(tmp_name, path)
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise
        self.stats.writes += 1
