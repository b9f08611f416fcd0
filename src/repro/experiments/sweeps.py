"""Resumable parameter sweeps with per-run archival.

The figure modules run their grids in memory; for *long* campaigns
(full paper grids, many seeds, parameter studies) you want each run
archived as JSON the moment it finishes, and an interrupted sweep to
resume where it stopped.  :class:`SweepRunner` provides exactly that:

* a sweep is a list of :class:`RunSpec` grid points;
* each completed run is written to
  ``<archive>/<sweep>/<spec_id>.json`` via
  :mod:`repro.sim.serialize`;
* re-running the sweep skips specs whose archive file exists
  (delete files to force re-runs);
* :meth:`SweepRunner.collect` loads everything back for analysis.

Example::

    runner = SweepRunner(archive_dir="runs", sweep="dropper-grid")
    specs = [
        RunSpec(trace="infocom05", protocol="g2g_epidemic",
                deviation="dropper", count=c, seed=s)
        for c in (0, 10, 20, 30, 40) for s in (1, 2, 3)
    ]
    runner.run_all(specs)
    frame = runner.collect()
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional, Union

from ..sim.results import SimulationResults
from ..sim.serialize import load_results, save_results
from .catalog import protocol
from .parallel import ExecutionOptions, RunRequest, execute_request, run_requests

PathLike = Union[str, Path]


@dataclass(frozen=True)
class RunSpec:
    """One grid point of a sweep.

    Attributes:
        trace: "infocom05" or "cambridge06".
        protocol: a name from :data:`repro.experiments.catalog.PROTOCOLS`.
        seed: replication seed.
        deviation: adversary kind, or None.
        count: number of deviating nodes.
        overrides: frozen (key, value) pairs of SimulationConfig
            overrides — a tuple so the spec stays hashable.
    """

    trace: str
    protocol: str
    seed: int = 1
    deviation: Optional[str] = None
    count: int = 0
    overrides: tuple = ()

    @property
    def spec_id(self) -> str:
        """Stable filesystem-safe identifier of the grid point."""
        parts = [self.trace, self.protocol, f"s{self.seed}"]
        if self.deviation and self.count:
            parts.append(f"{self.deviation}{self.count}")
        for key, value in self.overrides:
            parts.append(f"{key}={value}")
        return "_".join(str(p) for p in parts)

    def request(self) -> RunRequest:
        """The :class:`RunRequest` this grid point executes as.

        :meth:`SweepRunner.run_one` executes it in-process and the
        pooled :meth:`SweepRunner.run_all` batches it through
        :func:`run_requests`, so both archive bit-identical results.
        """
        family, _ = protocol(self.protocol)
        return RunRequest(
            trace_name=self.trace,
            family=family,
            protocol_name=self.protocol,
            seed=self.seed,
            deviation=self.deviation if self.count else None,
            deviation_count=self.count if self.deviation else 0,
            overrides=tuple(sorted(self.overrides)),
        )


@dataclass
class SweepRunner:
    """Executes :class:`RunSpec` grids with archival and resume."""

    archive_dir: PathLike
    sweep: str
    #: Called after each run with (spec, results, was_cached).
    on_result: Optional[Callable[[RunSpec, SimulationResults, bool], None]] = (
        None
    )

    def __post_init__(self) -> None:
        self._dir = Path(self.archive_dir) / self.sweep
        self._dir.mkdir(parents=True, exist_ok=True)

    def path_for(self, spec: RunSpec) -> Path:
        """Archive location of one spec."""
        return self._dir / f"{spec.spec_id}.json"

    def is_done(self, spec: RunSpec) -> bool:
        """True when the spec's archive file exists."""
        return self.path_for(spec).exists()

    def run_one(self, spec: RunSpec, force: bool = False) -> SimulationResults:
        """Run (or load) one grid point."""
        path = self.path_for(spec)
        if path.exists() and not force:
            results = load_results(path)
            if self.on_result:
                self.on_result(spec, results, True)
            return results
        return self._archive(spec, execute_request(spec.request()))

    def _archive(
        self, spec: RunSpec, results: SimulationResults
    ) -> SimulationResults:
        """Archive one freshly executed run and report it."""
        save_results(results, self.path_for(spec))
        if self.on_result:
            self.on_result(spec, results, False)
        return results

    def run_all(
        self,
        specs: List[RunSpec],
        force: bool = False,
        options: Optional[ExecutionOptions] = None,
    ) -> Dict[RunSpec, SimulationResults]:
        """Run every spec (skipping archived ones unless ``force``).

        With ``options.workers > 1`` the non-archived specs execute as
        one batch over the process pool (bit-identical to the
        sequential path) and are archived as the batch lands; archived
        specs still load in spec order and report ``was_cached=True``.
        """
        workers = options.workers if options is not None else 1
        if workers <= 1:
            return {spec: self.run_one(spec, force=force) for spec in specs}
        pending = [spec for spec in specs if force or not self.is_done(spec)]
        fresh = dict(
            zip(pending, run_requests([spec.request() for spec in pending], options))
        )
        return {
            spec: self._archive(spec, fresh[spec]) if spec in fresh else self.run_one(spec)
            for spec in specs
        }

    def collect(self) -> Dict[str, SimulationResults]:
        """Load every archived run of this sweep, keyed by spec id."""
        out: Dict[str, SimulationResults] = {}
        for path in sorted(self._dir.glob("*.json")):
            out[path.stem] = load_results(path)
        return out

    def summary_rows(self) -> List[Dict[str, object]]:
        """Flat summary table of the archived runs (for CSV export)."""
        rows: List[Dict[str, object]] = []
        for spec_id, results in self.collect().items():
            row: Dict[str, object] = {"spec_id": spec_id}
            row.update(
                {
                    "protocol": results.protocol,
                    "trace": results.trace,
                    "seed": results.seed,
                }
            )
            row.update(results.summary())
            rows.append(row)
        return rows


    def summary_csv(self, path: PathLike) -> int:
        """Write the archived-run summaries as CSV.

        Returns:
            Number of data rows written.
        """
        import csv

        rows = self.summary_rows()
        path = Path(path)
        if not rows:
            path.write_text("")
            return 0
        fields = list(rows[0].keys())
        with path.open("w", newline="") as handle:
            writer = csv.DictWriter(handle, fieldnames=fields)
            writer.writeheader()
            writer.writerows(rows)
        return len(rows)


def dropper_grid(
    trace: str,
    protocol_name: str,
    counts: tuple,
    seeds: tuple = (1, 2, 3),
    deviation: str = "dropper",
) -> List[RunSpec]:
    """Convenience grid: deviation counts x seeds for one protocol."""
    return [
        RunSpec(
            trace=trace,
            protocol=protocol_name,
            seed=seed,
            deviation=deviation if count else None,
            count=count,
        )
        for count in counts
        for seed in seeds
    ]
