"""Golden regression tests: one tiny grid point per figure module.

Each paper figure/table gets one representative grid point — the same
protocol, family, and adversary kind that figure sweeps — executed on
a short slice of the synthetic Infocom 05 trace and compared against
committed golden JSON with *exact* equality.  Any runner refactor
that shifts reproduced numbers (a reordered RNG draw, a changed
default, a lossy merge) fails these tests instead of silently bending
the curves.

Regenerate the goldens after an *intentional* semantic change with::

    PYTHONPATH=src python tests/test_experiments_golden.py --regenerate

and commit the diff; the review trail of the golden file documents
every accepted change to reproduced numbers.
"""

import json
from pathlib import Path

import pytest

from repro.experiments import ReplicationPlan, run_point

GOLDEN_PATH = Path(__file__).parent / "golden" / "experiment_points.json"

#: Short runs with an in-window TTL so delivery *and* detection paths
#: both execute; quality_timeframe is shortened likewise so delegation
#: declarations stay verifiable inside the slice.
TINY = {
    "run_length": 1800.0,
    "silent_tail": 600.0,
    "mean_interarrival": 60.0,
    "ttl": 600.0,
    "quality_timeframe": 480.0,
    "heavy_hmac_iterations": 4,
}

PLAN = ReplicationPlan(seeds=(1, 2))

#: One representative grid point per figure module: the protocol that
#: figure plots and an adversary kind it sweeps.  The G2G Delegation
#: cases run a longer window (detection there takes tens of minutes in
#: the paper too) so the goldens pin the detection path, not just
#: delivery.
CASES = {
    "fig3": dict(protocol="epidemic", deviation="dropper", count=5),
    "fig4": dict(protocol="g2g_epidemic", deviation="dropper", count=5),
    "fig5": dict(
        protocol="delegation_last_contact", deviation="liar", count=5
    ),
    "fig7": dict(
        protocol="g2g_delegation_last_contact",
        deviation="cheater",
        count=10,
        overrides={
            "run_length": 3600.0,
            "silent_tail": 1800.0,
            "mean_interarrival": 30.0,
        },
    ),
    "fig8": dict(protocol="g2g_epidemic", deviation=None, count=0),
    "table1": dict(
        protocol="g2g_delegation_last_contact",
        deviation="dropper_with_outsiders",
        count=10,
        overrides={
            "run_length": 3600.0,
            "silent_tail": 1800.0,
            "mean_interarrival": 30.0,
        },
    ),
    # G2G Delegation liars: pins the camouflage draws of
    # G2GDelegationForwarding._camouflage_subject.
    "table1_liar": dict(
        protocol="g2g_delegation_last_contact",
        deviation="liar",
        count=10,
        overrides={
            "run_length": 3600.0,
            "silent_tail": 1800.0,
            "mean_interarrival": 30.0,
        },
    ),
}


def measure(case):
    """Run one tiny grid point and summarize it as plain JSON data."""
    point = run_point(
        "infocom05",
        case["protocol"],
        deviation=case["deviation"],
        deviation_count=case["count"],
        plan=PLAN,
        config_overrides={**TINY, **case.get("overrides", {})},
    )
    return {
        "success_rate": point.success_rate,
        "mean_delay": point.mean_delay,
        "cost": point.cost,
        "memory_byte_seconds": point.memory_byte_seconds,
        "detection_rate": point.detection_rate,
        "detection_delay": point.detection_delay,
        "detection_delay_after_ttl": point.detection_delay_after_ttl,
        "false_positives": point.false_positives,
        "generated": [run.generated for run in point.runs],
        "delivered": [run.delivered for run in point.runs],
        "detections": [len(run.detections) for run in point.runs],
    }


def load_golden():
    return json.loads(GOLDEN_PATH.read_text())


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_point(name):
    golden = load_golden()
    assert name in golden, (
        f"no golden entry for {name}; regenerate with "
        f"`python {Path(__file__).name} --regenerate`"
    )
    measured = measure(CASES[name])
    # exact equality: JSON round-trips floats losslessly, and the
    # deterministic merge order makes reruns bit-identical
    assert measured == golden[name]


def test_golden_covers_every_case():
    assert set(load_golden()) == set(CASES)


def regenerate():
    GOLDEN_PATH.parent.mkdir(parents=True, exist_ok=True)
    golden = {name: measure(case) for name, case in sorted(CASES.items())}
    GOLDEN_PATH.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN_PATH} ({len(golden)} entries)")


if __name__ == "__main__":
    import sys

    if "--regenerate" in sys.argv:
        regenerate()
    else:
        print(__doc__)
