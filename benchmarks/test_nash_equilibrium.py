"""Benchmark: empirical best-response check (Theorems 1 and 2).

The paper proves G2G Epidemic and G2G Delegation are Nash equilibria.
This benchmark measures the claim: for probe nodes and every rational
deviation, the deviant's *expected* utility (averaged over traffic
seeds) must not exceed its honest utility.
"""

from repro.experiments.payoff import best_response_check

from .conftest import run_once, save_and_print


def test_nash_g2g_epidemic(benchmark, results_dir):
    report = run_once(
        benchmark,
        lambda: best_response_check(
            "infocom05", "g2g_epidemic", deviations=("dropper",)
        ),
    )
    save_and_print(results_dir, "nash-g2g-epidemic", report.render())
    assert report.nash_holds
    assert all(o.detected for o in report.outcomes)


def test_nash_g2g_delegation(benchmark, results_dir):
    report = run_once(
        benchmark,
        lambda: best_response_check(
            "infocom05",
            "g2g_delegation_last_contact",
            deviations=("dropper", "liar", "cheater"),
        ),
    )
    save_and_print(results_dir, "nash-g2g-delegation", report.render())
    assert report.nash_holds
