"""The campaign matrix: one row per (scenario, seed), canonical digest.

The matrix is the campaign's tabular product — headline delivery
metrics plus the per-adversary-class breakdown for every run — in a
versioned JSON document whose canonical encoding is digestable: the
digest of a campaign is a SHA-256 over sorted-key compact JSON, so two
campaigns agree iff their matrices are byte-identical.  The runner
guarantees the rows themselves are worker-count independent (results
merge in request order); the digest turns that guarantee into a
one-line regression check.
"""

from __future__ import annotations

import hashlib
import json
import os
from typing import Any, Dict, Sequence

#: Bump when row fields change incompatibly.
MATRIX_SCHEMA_VERSION = 1

#: Per-row columns guaranteed present (per-class columns are dynamic:
#: ``class.<name>.nodes`` / ``.energy`` / ``.detections`` /
#: ``.evictions`` for every class in the row's population).
MATRIX_COLUMNS = (
    "scenario",
    "trace",
    "protocol",
    "seed",
    "generated",
    "delivered",
    "success_rate",
    "cost",
    "mean_delay",
    "detections",
    "evictions",
    "total_energy",
)


def build_matrix(rows: Sequence[Dict[str, Any]]) -> Dict[str, Any]:
    """Wrap campaign rows in the versioned matrix document.

    Raises:
        ValueError: if a row misses a guaranteed column.
    """
    for position, row in enumerate(rows):
        missing = [name for name in MATRIX_COLUMNS if name not in row]
        if missing:
            raise ValueError(
                f"matrix row {position} misses columns: {', '.join(missing)}"
            )
    return {
        "schema": MATRIX_SCHEMA_VERSION,
        "kind": "campaign_matrix",
        "rows": list(rows),
    }


def matrix_digest(matrix: Dict[str, Any]) -> str:
    """SHA-256 over the matrix's canonical JSON encoding."""
    canonical = json.dumps(matrix, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def write_matrix(path: str, matrix: Dict[str, Any]) -> None:
    """Write the matrix document as stable, diff-friendly JSON."""
    directory = os.path.dirname(path)
    if directory:
        os.makedirs(directory, exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(matrix, handle, indent=1, sort_keys=True)
        handle.write("\n")


def load_matrix(path: str) -> Dict[str, Any]:
    """Read a matrix document back.

    Raises:
        ValueError: on a wrong schema or kind.
    """
    with open(path, "r", encoding="utf-8") as handle:
        matrix = json.load(handle)
    if (
        not isinstance(matrix, dict)
        or matrix.get("schema") != MATRIX_SCHEMA_VERSION
        or matrix.get("kind") != "campaign_matrix"
    ):
        raise ValueError(f"{path}: not a campaign matrix document")
    return matrix


def render_matrix(matrix: Dict[str, Any]) -> str:
    """Human-readable table of the headline columns."""
    header = (
        f"{'scenario':<20} {'seed':>4} {'succ':>6} {'cost':>7}"
        f" {'PoMs':>5} {'evic':>5} {'energy':>10}"
    )
    lines = [header, "-" * len(header)]
    for row in matrix["rows"]:
        lines.append(
            f"{row['scenario']:<20} {row['seed']:>4}"
            f" {row['success_rate']:>6.3f} {row['cost']:>7.2f}"
            f" {int(row['detections']):>5} {int(row['evictions']):>5}"
            f" {row['total_energy']:>10.2f}"
        )
    return "\n".join(lines)
