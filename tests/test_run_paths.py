"""Guard: every ``Simulation(...)`` in ``src/repro`` sits at a known site.

Experiments describe a run by catalog protocol name and execute it
through ``execute_request``; a new place that builds a ``Simulation``
is a new, uncached execution path and has to be added here on purpose.
"""

import ast
from pathlib import Path

import repro

#: (module, enclosing function) of every allowed construction.
ALLOWED_SITES = {
    ("repro.sim.engine", "run_simulation"),
    ("repro.api", "run"),
    ("repro.experiments.parallel", "execute_request"),
    ("repro.core.payoff", "best_response_check"),
}


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


def construction_sites():
    """(module, enclosing function) of every ``Simulation(...)`` call."""
    root = Path(repro.__file__).resolve().parent
    sites = set()
    for path in sorted(root.rglob("*.py")):
        parts = path.relative_to(root).with_suffix("").parts
        module = ".".join(("repro",) + parts)
        tree = ast.parse(path.read_text(), filename=str(path))
        _collect(tree, module, "<module>", sites)
    return sites


def test_simulation_is_built_only_at_the_known_sites():
    assert construction_sites() == ALLOWED_SITES
