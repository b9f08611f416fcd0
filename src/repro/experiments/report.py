"""Assemble a reproduction report from saved benchmark outputs.

``pytest benchmarks/ --benchmark-only`` writes each experiment's
rendered table (and chart) under ``benchmarks/results/``;
:func:`build_report` stitches those files into one markdown document,
grouped by experiment, with the paper reference up top — a
regenerate-able companion to the hand-curated EXPERIMENTS.md.
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, List, Tuple, Union

PathLike = Union[str, Path]

#: Section order and titles; files are matched by name prefix.
SECTIONS: Tuple[Tuple[str, str], ...] = (
    ("fig3", "Figure 3 — droppers vs Epidemic Forwarding"),
    ("fig4", "Figure 4 — dropper detection in G2G Epidemic"),
    ("fig5", "Figure 5 — droppers and liars vs Delegation Forwarding"),
    ("table1", "Table I — G2G Delegation detection performance"),
    ("fig7", "Figure 7 — detection time vs adversary count"),
    ("fig8", "Figure 8 — G2G vs vanilla performance"),
    ("nash", "Nash equilibrium — empirical best-response checks"),
    ("dodger", "The test-dodger gap — a reproduction finding"),
    ("ablation", "Ablations — design-choice sweeps"),
)

HEADER = """# Give2Get reproduction report

Auto-assembled from `benchmarks/results/` (regenerate with
`pytest benchmarks/ --benchmark-only`, then
`python -m repro.experiments.report`).

Paper: Mei & Stefa, *Give2Get: Forwarding in Social Mobile Wireless
Networks of Selfish Individuals*, ICDCS 2010.  See EXPERIMENTS.md for
the curated paper-vs-measured analysis and divergence notes.
"""


def collect_outputs(results_dir: PathLike) -> Dict[str, List[Path]]:
    """Group the saved ``.txt`` outputs by report section."""
    directory = Path(results_dir)
    grouped: Dict[str, List[Path]] = {prefix: [] for prefix, _ in SECTIONS}
    leftovers: List[Path] = []
    for path in sorted(directory.glob("*.txt")):
        for prefix, _title in SECTIONS:
            if path.name.startswith(prefix):
                grouped[prefix].append(path)
                break
        else:
            leftovers.append(path)
    if leftovers:
        grouped.setdefault("other", []).extend(leftovers)
    return grouped


def build_report(results_dir: PathLike) -> str:
    """Render the full markdown report.

    Raises:
        FileNotFoundError: if ``results_dir`` does not exist.
    """
    directory = Path(results_dir)
    if not directory.is_dir():
        raise FileNotFoundError(f"no benchmark results at {directory}")
    grouped = collect_outputs(directory)
    parts = [HEADER]
    titles = dict(SECTIONS)
    titles["other"] = "Other outputs"
    for prefix, files in grouped.items():
        if not files:
            continue
        parts.append(f"\n## {titles[prefix]}\n")
        for path in files:
            parts.append(f"```text\n{path.read_text().rstrip()}\n```\n")
    return "\n".join(parts)


def write_report(
    results_dir: PathLike, output: PathLike = "REPORT.md"
) -> Path:
    """Build and save the report; returns the output path."""
    output = Path(output)
    output.write_text(build_report(results_dir))
    return output


def main() -> int:  # pragma: no cover - thin CLI shim
    """``python -m repro.experiments.report [results_dir] [output]``."""
    import sys

    results_dir = sys.argv[1] if len(sys.argv) > 1 else "benchmarks/results"
    output = sys.argv[2] if len(sys.argv) > 2 else "REPORT.md"
    path = write_report(results_dir, output)
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
