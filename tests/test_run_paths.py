"""Guard: every ``Simulation(...)`` sits at a known site.

Experiments describe a run by catalog protocol name and execute it
through ``execute_request``; a new place that builds a ``Simulation``
in ``src/repro`` or ``benchmarks/`` is a new, uncached execution path
and has to be added here on purpose.
"""

import ast
from pathlib import Path

import repro

#: (module, enclosing function) of every allowed construction.
ALLOWED_SITES = {
    ("repro.sim.engine", "run_simulation"),
    ("repro.api", "run"),
    ("repro.experiments.parallel", "execute_request"),
}

#: The same for the benchmark suite, which builds none.
ALLOWED_BENCHMARK_SITES = set()

BENCHMARKS = Path(__file__).resolve().parent.parent / "benchmarks"


def _constructs_simulation(node: ast.AST) -> bool:
    if not isinstance(node, ast.Call):
        return False
    func = node.func
    return (isinstance(func, ast.Name) and func.id == "Simulation") or (
        isinstance(func, ast.Attribute) and func.attr == "Simulation"
    )


def _collect(node, module, function, sites):
    """Add (module, innermost enclosing function) of each construction."""
    for child in ast.iter_child_nodes(node):
        if _constructs_simulation(child):
            sites.add((module, function))
        inner = function
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            inner = child.name
        _collect(child, module, inner, sites)


def construction_sites(root, package, pattern):
    """(module, enclosing function) of every ``Simulation(...)`` call."""
    sites = set()
    for path in sorted(root.glob(pattern)):
        parts = path.relative_to(root).with_suffix("").parts
        module = ".".join((package,) + parts)
        tree = ast.parse(path.read_text(), filename=str(path))
        _collect(tree, module, "<module>", sites)
    return sites


def test_simulation_is_built_only_at_the_known_sites():
    root = Path(repro.__file__).resolve().parent
    assert construction_sites(root, "repro", "**/*.py") == ALLOWED_SITES


def test_benchmarks_build_simulations_only_at_the_known_sites():
    assert (
        construction_sites(BENCHMARKS, "benchmarks", "*.py")
        == ALLOWED_BENCHMARK_SITES
    )
