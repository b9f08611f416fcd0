"""Public-API snapshot: pins ``repro.__all__`` and the facade surface.

Breaking any assertion here means a compatibility break for downstream
users — change it deliberately, with a changelog entry, or not at all.
The subpackage check keeps the library no larger than what the
reproduction calls: every ``repro.<subpackage>.__all__`` name needs a
user outside the tests.
"""

import ast
import importlib
import inspect
import pathlib
import pkgutil
import re

import repro
from repro import api

#: The blessed top-level surface, exactly as exported.
EXPECTED_ALL = [
    "Cheater",
    "CommunityMap",
    "Dodger",
    "Contact",
    "ContactTrace",
    "DelegationForwarding",
    "Dropper",
    "EpidemicForwarding",
    "ForwardingProtocol",
    "G2GDelegationForwarding",
    "G2GEpidemicForwarding",
    "GossipBlacklist",
    "InstantBlacklist",
    "Liar",
    "Message",
    "MetricsRegistry",
    "OutsiderConditioned",
    "ProofOfMisbehavior",
    "RunTelemetry",
    "Simulation",
    "SimulationConfig",
    "SimulationResults",
    "Strategy",
    "TelemetryCollector",
    "api",
    "cambridge06",
    "config_for",
    "infocom05",
    "load_trace",
    "make_strategy",
    "run_simulation",
    "standard_window",
    "strategy_population",
    "trace_by_name",
    "__version__",
]


class TestTopLevelSurface:
    def test_all_is_pinned(self):
        assert repro.__all__ == EXPECTED_ALL

    def test_every_name_resolves(self):
        for name in repro.__all__:
            assert getattr(repro, name) is not None, name

    def test_version_string(self):
        major = int(repro.__version__.split(".")[0])
        assert major >= 1


class TestFacadeSurface:
    def test_api_all_is_pinned(self):
        assert api.__all__ == ["TelemetrySink", "run", "sweep"]

    def test_run_signature(self):
        params = inspect.signature(api.run).parameters
        assert list(params) == [
            "trace",
            "protocol",
            "config",
            "seed",
            "adversary",
            "adversary_count",
            "mix",
            "churn",
            "energy_budgets",
            "strategies",
            "community",
            "blacklist",
            "telemetry",
            "provider",
        ]
        # Everything after config is keyword-only: the facade can grow
        # without positional-argument breakage.
        for name in list(params)[3:]:
            assert params[name].kind is inspect.Parameter.KEYWORD_ONLY, name

    def test_sweep_signature(self):
        params = inspect.signature(api.sweep).parameters
        assert list(params) == [
            "trace",
            "protocol",
            "counts",
            "adversary",
            "seeds",
            "config_overrides",
            "workers",
            "cache_dir",
            "report",
            "telemetry",
        ]
        for name in list(params)[3:]:
            assert params[name].kind is inspect.Parameter.KEYWORD_ONLY, name
        assert params["seeds"].default == (1, 2, 3)
        assert params["workers"].default == 1

    def test_run_defaults_are_benign(self):
        params = inspect.signature(api.run).parameters
        assert params["config"].default is None
        assert params["adversary_count"].default == 0
        assert params["telemetry"].default is None


class TestLegacyEntryPoints:
    """The wrapped paths stay public and importable (supported aliases)."""

    def test_simulation_layer(self):
        assert callable(repro.Simulation)
        assert callable(repro.run_simulation)

    def test_experiment_layer(self):
        from repro.experiments import run_point, run_series

        assert callable(run_point)
        assert callable(run_series)

    def test_facade_reachable_from_package(self):
        assert repro.api is api
        assert callable(repro.api.run)
        assert callable(repro.api.sweep)


#: Trees whose code counts as reaching the library.  Tests do not: a
#: name that only its own test calls is a name nothing needs.
REACHING_TREES = ("src/repro", "benchmarks", "perfbench", "examples")

#: Subpackage exports kept although only tests reference them.
UNREACHED_EXEMPT = {
    # The one-proof check the PoR tests call; runs check proofs in bulk.
    "core.verify_proof_of_relay",
    # The string-input linter entry the rule tests drive without files.
    "analysis.lint_source",
    # The paper's Sec. V config for one run, which experiment tests build.
    "experiments.standard_config",
    # Fig. 1/2 message formats whose payload encodings test_core_wire pins.
    "core.RelayRequest",
    "core.RelayAccept",
    "core.StorageChallenge",
}


def _bound_names(stmt):
    """Names a top-level statement binds (def, class, assignment, import)."""
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return {stmt.name}
    if isinstance(stmt, (ast.Import, ast.ImportFrom)):
        return {(a.asname or a.name).split(".")[0] for a in stmt.names}
    if isinstance(stmt, ast.Assign):
        targets = stmt.targets
    elif isinstance(stmt, (ast.AnnAssign, ast.AugAssign)):
        targets = [stmt.target]
    else:
        return set()
    return {
        node.id
        for target in targets
        for node in ast.walk(target)
        if isinstance(node, ast.Name)
    }


def _referenced_words():
    """Every word in the reaching trees outside the statement binding it.

    A word-boundary scan: a name written only inside its own definition
    (a recursive call, the import that binds it) does not count, and
    package ``__init__`` files, which only re-export, are skipped.
    """
    root = pathlib.Path(__file__).resolve().parents[1]
    used = set()
    for tree in REACHING_TREES:
        for path in sorted((root / tree).rglob("*.py")):
            if tree == "src/repro" and path.name == "__init__.py":
                continue
            source = path.read_text(encoding="utf-8")
            own = set()
            for stmt in ast.parse(source).body:
                first = min(
                    [stmt.lineno]
                    + [d.lineno for d in getattr(stmt, "decorator_list", ())]
                )
                for name in _bound_names(stmt):
                    own.update(
                        (name, line) for line in range(first, stmt.end_lineno + 1)
                    )
            for line, text in enumerate(source.splitlines(), start=1):
                used.update(
                    word
                    for word in re.findall(r"\w+", text)
                    if (word, line) not in own
                )
    return used


class TestSubpackageSurface:
    def test_every_export_is_reached(self):
        used = _referenced_words()
        exported = set()
        unreached = []
        for info in pkgutil.iter_modules(repro.__path__):
            if not info.ispkg:
                continue
            package = importlib.import_module(f"repro.{info.name}")
            for name in getattr(package, "__all__", ()):
                key = f"{info.name}.{name}"
                exported.add(key)
                if name not in used and key not in UNREACHED_EXEMPT:
                    unreached.append(key)
        assert unreached == [], (
            "exported but reached only by tests; delete them or use them: "
            f"{sorted(unreached)}"
        )
        assert UNREACHED_EXEMPT <= exported, "stale exemption"
