#!/usr/bin/env python3
"""Sweep campaign: cached runs, resumability, and terminal charts.

Shows the workflow a measurement study would use on top of this
library:

1. sweep dropper counts x seeds for two protocols with
   ``repro.api.sweep``, against an on-disk run cache — rerunning the
   script reuses finished runs instead of resimulating;
2. chart the Fig. 3-style delivery curves in the terminal.

For a flat per-run CSV of the same sweep, use the CLI:
``python -m repro sweep --protocol g2g_epidemic --counts 0,10,20,30
--seeds 1 --csv sweep.csv``.

Run:  python examples/sweep_campaign.py          (first run simulates)
      python examples/sweep_campaign.py          (second run is instant)
"""

from pathlib import Path

from repro import api
from repro.experiments import RunReport
from repro.experiments.runner import FigureData, Series
from repro.metrics import chart_figure

#: Keep the demo snappy: two protocols, four counts, one seed.
COUNTS = (0, 10, 20, 30)
SEEDS = (1,)
PROTOCOLS = ("epidemic", "g2g_epidemic")

#: Run cache next to this script so re-runs resume (delete to reset).
CACHE_DIR = Path(__file__).parent / ".repro-cache"


def main() -> None:
    figure = FigureData(
        figure_id="campaign",
        title="Droppers vs delivery (cached sweep)",
        x_label="Droppers Number",
        y_label="Delivery %",
    )
    for protocol in PROTOCOLS:
        report = RunReport()
        # Two workers overlap the fresh runs; cached ones just load.
        points = api.sweep(
            "infocom05", protocol, COUNTS, seeds=SEEDS, workers=2,
            cache_dir=str(CACHE_DIR), report=report,
        )
        print(f"{protocol}: {report.summary()}")
        series = Series(label=protocol)
        for count, point in points:
            series.add(count, point.success_percent)
        figure.series.append(series)
    print()
    print(chart_figure(figure))


if __name__ == "__main__":
    main()
