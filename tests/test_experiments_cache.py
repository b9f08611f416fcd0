"""Tests for the on-disk run cache: keys, hits/misses, robustness.

The cache key must move when *any* run input moves (every
SimulationConfig field, the protocol, the adversary spec, the seed,
the trace) and stay put otherwise — including across interpreter
processes, where Python's randomized ``hash()`` would betray a naive
implementation.  Damaged entries must read as misses, never as
crashes, and disabling the cache must bypass reads and writes alike.
"""

import dataclasses
import json
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.experiments import (
    ExecutionOptions,
    ReplicationPlan,
    RunCache,
    RunReport,
    run_key,
    run_point,
)
from repro.sim.config import EnergyModel, SimulationConfig, config_for
from repro.sim.engine import Simulation
from repro.sim.results import SimulationResults
from repro.sim.serialize import results_digest, results_to_dict

BASE_KEY_ARGS = dict(
    trace_name="infocom05",
    family="epidemic",
    protocol_name="g2g_epidemic",
    deviation="dropper",
    deviation_count=5,
    seed=3,
)


def base_config():
    return config_for("infocom05", "epidemic", seed=3)


def key_of(config=None, **overrides):
    args = {**BASE_KEY_ARGS, **overrides}
    return run_key(config=config or base_config(), **args)


class TestRunKey:
    def test_same_inputs_same_key(self):
        assert key_of() == key_of()

    def test_key_is_hex_digest(self):
        key = key_of()
        assert len(key) == 64
        int(key, 16)  # parses as hex

    def test_key_stable_across_processes(self):
        """No reliance on per-process hash randomization."""
        src_dir = Path(repro.__file__).resolve().parents[1]
        code = (
            f"import sys; sys.path.insert(0, {str(src_dir)!r})\n"
            "from repro.experiments.cache import run_key\n"
            "from repro.sim.config import config_for\n"
            "print(run_key(trace_name='infocom05', family='epidemic',"
            " protocol_name='g2g_epidemic', deviation='dropper',"
            " deviation_count=5, seed=3,"
            " config=config_for('infocom05', 'epidemic', seed=3)))\n"
        )
        child = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            check=True,
        )
        assert child.stdout.strip() == key_of()

    def test_every_config_field_is_key_relevant(self):
        """Changing any SimulationConfig field must miss the cache."""
        base = base_config()
        changed_values = {
            "run_length": base.run_length + 60.0,
            "silent_tail": base.silent_tail + 60.0,
            "mean_interarrival": base.mean_interarrival * 2,
            "ttl": base.ttl + 60.0,
            "delta2_factor": base.delta2_factor + 0.5,
            "quality_timeframe": base.quality_timeframe + 60.0,
            "relay_fanout": base.relay_fanout + 1,
            "source_fanout": 3,
            "buffer_capacity": 7,
            "seed": base.seed + 1,
            "message_size": base.message_size * 2,
            "instant_blacklist": not base.instant_blacklist,
            "blacklist_round_interval": 600.0,
            "testers": "any_giver",
            "energy": dataclasses.replace(base.energy, heavy_hmac=9.9),
            "heavy_hmac_iterations": base.heavy_hmac_iterations * 2,
            "track_memory": not base.track_memory,
            "track_events": not base.track_events,
        }
        # future-proofing: a new config field without a row here should
        # fail loudly, so the cache key can't silently ignore it
        assert set(changed_values) == {
            f.name for f in dataclasses.fields(SimulationConfig)
        }
        reference = key_of()
        for field_name, new_value in changed_values.items():
            modified = dataclasses.replace(base, **{field_name: new_value})
            assert key_of(config=modified) != reference, field_name

    def test_nested_energy_model_fields_matter(self):
        for field in dataclasses.fields(EnergyModel):
            modified = dataclasses.replace(
                base_config(),
                energy=dataclasses.replace(
                    EnergyModel(), **{field.name: 123.456}
                ),
            )
            assert key_of(config=modified) != key_of(), field.name

    @pytest.mark.parametrize(
        "override",
        [
            dict(trace_name="cambridge06"),
            dict(family="delegation"),
            dict(protocol_name="epidemic"),
            dict(deviation="liar"),
            dict(deviation=None, deviation_count=0),
            dict(deviation_count=6),
            dict(seed=4),
        ],
    )
    def test_run_identity_fields_matter(self, override):
        assert key_of(**override) != key_of()


def tiny_results(seed=1):
    """A real (but very small) simulation result to round-trip."""
    from repro.traces import ContactTrace, make_contact

    trace = ContactTrace(
        name="pair",
        nodes=(0, 1),
        contacts=(
            make_contact(0, 1, 100.0, 200.0),
            make_contact(0, 1, 900.0, 1000.0),
        ),
    )
    config = SimulationConfig(
        run_length=1800.0,
        silent_tail=600.0,
        mean_interarrival=120.0,
        ttl=600.0,
        seed=seed,
    )
    from repro.protocols.epidemic import EpidemicForwarding

    return Simulation(trace, EpidemicForwarding(), config).run()


class TestRunCache:
    def test_roundtrip(self, tmp_path):
        cache = RunCache(tmp_path)
        results = tiny_results()
        cache.put("a" * 64, results)
        loaded = cache.get("a" * 64)
        assert loaded is not None
        assert loaded.seed == results.seed
        assert loaded.success_rate == results.success_rate
        assert cache.stats.hits == 1
        assert cache.stats.writes == 1

    def test_compact_entry_keeps_results_digest(self, tmp_path):
        cache = RunCache(tmp_path)
        results = tiny_results()
        key = "e" * 64
        cache.put(key, results)
        text = cache.path_for(key).read_text()
        # Compact, key-sorted JSON: no newlines, no indentation.
        assert "\n" not in text
        assert text == json.dumps(
            json.loads(text), sort_keys=True, separators=(",", ":")
        )
        assert results_digest(cache.get(key)) == results_digest(results)

    def test_indented_entry_still_loads(self, tmp_path):
        cache = RunCache(tmp_path)
        results = tiny_results()
        key = "f" * 64
        cache.path_for(key).write_text(
            json.dumps(results_to_dict(results), indent=1, sort_keys=True)
        )
        assert results_digest(cache.get(key)) == results_digest(results)

    def test_missing_key_is_miss(self, tmp_path):
        cache = RunCache(tmp_path)
        assert cache.get("b" * 64) is None
        assert cache.stats.misses == 1

    @pytest.mark.parametrize(
        "garbage",
        [
            "not json at all {{{",
            "",
            json.dumps({"format_version": 999}),
            json.dumps({"format_version": 1}),  # valid version, no body
            json.dumps([1, 2, 3]),
        ],
    )
    def test_corrupted_entry_is_miss_not_crash(self, tmp_path, garbage):
        cache = RunCache(tmp_path)
        key = "c" * 64
        cache.path_for(key).write_text(garbage)
        assert cache.get(key) is None
        assert cache.stats.corrupt == 1
        # and a fresh put repairs the slot
        cache.put(key, tiny_results())
        assert cache.get(key) is not None

    def test_put_is_atomic_no_temp_leftovers(self, tmp_path):
        cache = RunCache(tmp_path)
        cache.put("d" * 64, tiny_results())
        assert list(Path(tmp_path).glob("*.tmp")) == []
        assert cache.path_for("d" * 64).exists()

    def test_creates_directory(self, tmp_path):
        target = tmp_path / "nested" / "cache"
        RunCache(target)
        assert target.is_dir()


TINY_OVERRIDES = {
    "run_length": 1800.0,
    "silent_tail": 600.0,
    "mean_interarrival": 60.0,
    "heavy_hmac_iterations": 4,
}


def run_tiny_point(options):
    return run_point(
        "infocom05",
        "epidemic",
        plan=ReplicationPlan(seeds=(1, 2)),
        config_overrides=TINY_OVERRIDES,
        options=options,
    )


class TestNoCacheBypass:
    def test_disabled_cache_neither_reads_nor_writes(self, tmp_path):
        cache = RunCache(tmp_path)
        run_tiny_point(ExecutionOptions(cache=cache))
        files_after_warm = sorted(p.name for p in Path(tmp_path).iterdir())
        assert cache.stats.writes == 2

        # cache=None (the CLI's --no-cache): every run re-executes and
        # the cache directory is untouched
        report = RunReport()
        run_tiny_point(ExecutionOptions(cache=None, report=report))
        assert report.executed == 2
        assert report.cached == 0
        assert (
            sorted(p.name for p in Path(tmp_path).iterdir())
            == files_after_warm
        )
        assert cache.stats.hits == 0


class TestCliWiring:
    def parse(self, *argv):
        from repro.cli import build_parser

        return build_parser().parse_args(list(argv))

    def test_no_cache_flag_disables_cache(self):
        from repro.cli import execution_options

        options = execution_options(
            self.parse("experiment", "fig3", "--no-cache", "--workers", "3")
        )
        assert options.cache is None
        assert options.workers == 3
        assert options.report is not None

    def test_cache_dir_flag(self, tmp_path):
        from repro.cli import execution_options

        target = tmp_path / "cli-cache"
        options = execution_options(
            self.parse("experiment", "fig3", "--cache-dir", str(target))
        )
        assert options.cache is not None
        assert target.is_dir()

    def test_defaults(self):
        args = self.parse("experiment", "fig3")
        assert args.workers == 1
        assert args.no_cache is False
        assert args.cache_dir is None

    def test_cache_dir_collision_is_clean_error(self, tmp_path):
        from repro.cli import execution_options

        collision = tmp_path / "not-a-dir"
        collision.write_text("occupied")
        for command in (
            ("experiment", "fig3"),
            ("scenarios", "run", "--preset", "help"),
            ("sweep",),
        ):
            with pytest.raises(SystemExit, match="unusable cache directory"):
                execution_options(
                    self.parse(*command, "--cache-dir", str(collision))
                )
