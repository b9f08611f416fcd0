"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``simulate`` — one simulation run: trace × protocol × adversaries,
  printing the headline metrics (and the conviction list for G2G
  runs).
* ``experiment`` — regenerate one paper table/figure (fig3, fig4,
  fig5, fig7, fig8, table1) and print its text rendering.
* ``sweep`` — an adversary-count sweep of one protocol, resumable via
  the run cache, with an optional per-run CSV.
* ``trace`` — generate a synthetic evaluation trace, print its
  profile, and optionally save it in the CRAWDAD-style text format.
* ``communities`` — run k-clique community detection on a trace.
* ``scenarios`` — run a campaign of mixed-adversary / churn / energy
  scenarios and emit the campaign matrix (see docs/scenarios.md).
* ``telemetry`` — summarize or validate exported telemetry JSONL.
* ``scale-bench`` — sweep synthetic streaming sources across node
  scales and write the nodes-vs-wall / nodes-vs-RSS curves to
  ``BENCH_scale.json``.
* ``lint`` — run the G2G determinism/invariant lint rules over source
  trees (see ``docs/development.md``).

The run-shaped commands (``simulate``, ``sweep``, ``trace``,
``communities``) share their ``--trace``/``--protocol``/``--seed``
flags via common parent parsers, and ``--workers``,
``--cache-dir``/``--no-cache`` and ``--telemetry-dir`` are spelled
identically wherever they appear — one flag vocabulary across the
whole CLI.

Examples::

    python -m repro simulate --trace infocom05 --protocol g2g_epidemic \
        --adversary dropper --count 10 --telemetry-dir telemetry/
    python -m repro experiment fig8 --workers 4
    python -m repro telemetry summarize telemetry/
    python -m repro trace --trace cambridge06 --out cambridge06.contacts
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import List, Optional, Tuple

from .adversaries.factory import DEVIATIONS
from .crypto import TIER_NAMES
from .experiments import LABELS, PROTOCOLS
from .social import CommunityMap
from .traces import TraceProfile, save_trace, trace_by_name


def _trace_parent() -> argparse.ArgumentParser:
    """Shared ``--trace`` flag (identical on every run-shaped command)."""
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument(
        "--trace", choices=("infocom05", "cambridge06"), default="infocom05",
        help="evaluation trace (default: infocom05)",
    )
    return parent


def _protocol_parent() -> argparse.ArgumentParser:
    """Shared ``--protocol`` flag (identical on simulate and sweep)."""
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument(
        "--protocol", choices=sorted(PROTOCOLS), default="g2g_epidemic",
        help="catalog protocol name (default: g2g_epidemic)",
    )
    return parent


def _seed_parent(default: int) -> argparse.ArgumentParser:
    """Shared ``--seed`` flag; the default varies per command."""
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument(
        "--seed", type=int, default=default,
        help=f"master seed (default: {default})",
    )
    return parent


def _workers_parent() -> argparse.ArgumentParser:
    """Shared ``--workers`` flag (identical on experiment and sweep)."""
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument(
        "--workers", type=int, default=1,
        help="simulation worker processes (1 = sequential; parallel "
        "output is bit-identical to sequential)",
    )
    return parent


def _cache_parent() -> argparse.ArgumentParser:
    """Shared ``--cache-dir``/``--no-cache`` pair (experiment, scenarios
    run and sweep)."""
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument(
        "--cache-dir", default=None, metavar="DIR",
        help="per-run result cache directory (default: .repro-cache)",
    )
    parent.add_argument(
        "--no-cache", action="store_true",
        help="bypass the run cache entirely (no reads, no writes)",
    )
    return parent


def _adversary_kinds() -> Tuple[str, ...]:
    """Every ``--adversary`` value: each deviation kind and its
    ``_with_outsiders`` form."""
    return tuple(
        kind + suffix
        for kind in DEVIATIONS
        for suffix in ("", "_with_outsiders")
    )


def _int_list(text: str) -> Tuple[int, ...]:
    """Parse a comma-separated list of integers (``--counts``/``--seeds``)."""
    values = []
    for item in text.split(","):
        try:
            values.append(int(item))
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"invalid integer {item!r} in {text!r}"
            ) from None
    return tuple(values)


def _non_negative(value: int) -> int:
    """Reject a negative adversary count (``--count``/``--counts``)."""
    if value < 0:
        raise argparse.ArgumentTypeError(
            f"adversary count must be >= 0, got {value}"
        )
    return value


def _count(text: str) -> int:
    """Parse ``--count``: one non-negative integer."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid integer {text!r}") from None
    return _non_negative(value)


def _count_list(text: str) -> Tuple[int, ...]:
    """Parse ``--counts``: comma-separated non-negative integers."""
    return tuple(_non_negative(value) for value in _int_list(text))


def _telemetry_parent() -> argparse.ArgumentParser:
    """Shared ``--telemetry-dir`` flag (simulate/experiment/sweep)."""
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument(
        "--telemetry-dir", default=None, metavar="DIR",
        help="append per-run telemetry JSONL records under this "
        "directory (see docs/observability.md)",
    )
    return parent


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser (exposed for tests)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Give2Get (ICDCS 2010) reproduction toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    simulate = sub.add_parser(
        "simulate", help="run one simulation",
        parents=[
            _trace_parent(), _protocol_parent(), _seed_parent(1),
            _telemetry_parent(),
        ],
    )
    simulate.add_argument(
        "--provider", choices=TIER_NAMES, default=None,
        help="crypto provider tier for Give2Get protocols: real "
        "(from-scratch RSA, slow) or simulated (default; see "
        "docs/simulator.md)",
    )
    simulate.add_argument(
        "--adversary", choices=_adversary_kinds(), default=None,
        metavar="KIND", help="deviation kind, one of: %(choices)s",
    )
    simulate.add_argument("--count", type=_count, default=0,
                          help="number of deviating nodes")
    simulate.set_defaults(usage_error=simulate.error)
    simulate.add_argument(
        "--json", action="store_true",
        help="print the run as one JSON record (the same schema as "
        "the telemetry JSONL export) instead of the human summary",
    )

    experiment = sub.add_parser(
        "experiment", help="regenerate a paper table/figure",
        parents=[_workers_parent(), _cache_parent(), _telemetry_parent()],
    )
    experiment.add_argument(
        "name",
        choices=(
            "fig3", "fig4", "fig5", "fig7", "fig8", "table1", "ablations",
        ),
    )
    experiment.add_argument(
        "--full", action="store_true", help="full paper grids (slow)"
    )

    trace = sub.add_parser(
        "trace", help="generate and inspect a trace",
        parents=[_trace_parent(), _seed_parent(0)],
    )
    trace.add_argument("--out", default=None, help="save to this path")

    sweep = sub.add_parser(
        "sweep", help="run an adversary sweep, resumable via the run cache",
        parents=[
            _trace_parent(), _protocol_parent(), _workers_parent(),
            _cache_parent(), _telemetry_parent(),
        ],
    )
    sweep.add_argument(
        "--adversary", choices=_adversary_kinds(), default="dropper",
        metavar="KIND",
        help="deviation kind (default: dropper), one of: %(choices)s",
    )
    sweep.add_argument(
        "--counts", type=_count_list, default="0,10,20,30",
        help="comma-separated adversary counts",
    )
    sweep.add_argument(
        "--seeds", type=_int_list, default="1,2",
        help="comma-separated seeds",
    )
    sweep.add_argument(
        "--csv", default=None,
        help="also write one summary row per (count, seed) run here",
    )

    telemetry = sub.add_parser(
        "telemetry", help="summarize or validate telemetry exports"
    )
    telemetry.add_argument(
        "action", choices=("summarize", "validate"),
        help="summarize: merge every *.jsonl under DIR and print a "
        "Prometheus-style text summary; validate: schema-check every "
        "record",
    )
    telemetry.add_argument("dir", help="directory of telemetry JSONL files")
    telemetry.add_argument(
        "--json", action="store_true",
        help="(summarize) print the merged snapshot as JSON instead "
        "of Prometheus-style text",
    )

    scale = sub.add_parser(
        "scale-bench",
        help="sweep streaming sources across node scales and write "
        "BENCH_scale.json",
        parents=[_seed_parent(0)],
    )
    scale.add_argument(
        "--scales", default=None, metavar="N,N,...",
        help="comma-separated node counts for the nodes_vs sweep "
        "(default: 1000,10000,100000,1000000)",
    )
    scale.add_argument(
        "--durations", default=None, metavar="S,S,...",
        help="comma-separated stream durations (seconds) for the "
        "fixed-node contacts_vs sweep "
        "(default: 3600,14400,43200,86400)",
    )
    scale.add_argument(
        "--contacts-nodes", type=int, default=10_000,
        help="universe size of the contacts_vs sweep (default: 10000)",
    )
    scale.add_argument(
        "--out", default="BENCH_scale.json",
        help="report path (default: BENCH_scale.json)",
    )
    scale.add_argument(
        "--timeout", type=float, default=1_800.0,
        help="per-point subprocess timeout in seconds (default: 1800)",
    )

    lint = sub.add_parser(
        "lint", help="run the G2G determinism/invariant lint rules"
    )
    lint.add_argument(
        "paths", nargs="*", default=["src"],
        help="files or directories to lint (default: src)",
    )
    lint.add_argument(
        "--select", default=None, metavar="RULES",
        help="comma-separated rule ids to run (default: all), "
        "e.g. G2G001,G2G006",
    )
    lint.add_argument(
        "--list-rules", action="store_true",
        help="print the rule catalogue and exit",
    )
    lint.add_argument(
        "--project", action="store_true",
        help="also run the whole-program flow rules (G2G008-G2G013)",
    )
    lint.add_argument(
        "--format", default="text", choices=["text", "json", "sarif"],
        dest="fmt", help="report format (default: text)",
    )
    lint.add_argument(
        "--output", default=None, metavar="FILE",
        help="write the report to FILE instead of stdout",
    )

    communities = sub.add_parser(
        "communities", help="k-clique community detection",
        parents=[_trace_parent(), _seed_parent(0)],
    )
    communities.add_argument("--k", type=int, default=3)
    communities.add_argument("--quantile", type=float, default=0.9)
    # Detection validates k and the quantile; its message becomes the
    # subcommand's usage error.
    communities.set_defaults(usage_error=communities.error)

    scenarios = sub.add_parser(
        "scenarios", help="run or inspect adversary campaigns"
    )
    scenarios_sub = scenarios.add_subparsers(
        dest="scenarios_action", required=True
    )
    scenarios_run = scenarios_sub.add_parser(
        "run", help="execute a campaign and write its matrix",
        parents=[_workers_parent(), _cache_parent(), _telemetry_parent()],
    )
    source = scenarios_run.add_mutually_exclusive_group(required=True)
    source.add_argument(
        "--spec", default=None, metavar="FILE",
        help="campaign spec file: a JSON scenario object or a list "
        "of them (see docs/scenarios.md)",
    )
    source.add_argument(
        "--preset", default=None,
        help="named preset campaign (see `repro scenarios run "
        "--preset help`)",
    )
    scenarios_run.add_argument(
        "--out", default=None, metavar="FILE",
        help="write the campaign matrix JSON here",
    )
    scenarios_report = scenarios_sub.add_parser(
        "report", help="render a previously written campaign matrix"
    )
    scenarios_report.add_argument("matrix", help="campaign matrix JSON file")
    scenarios_report.add_argument(
        "--json", action="store_true",
        help="print the matrix document instead of the table",
    )
    return parser


def cmd_simulate(args) -> int:
    from . import api
    from .experiments import evaluation_community, evaluation_trace
    from .experiments.parallel import expand_population
    from .telemetry.export import record_line, run_record

    if args.count and not args.adversary:
        args.usage_error(f"--count {args.count} needs --adversary KIND")
    misbehaving = ()
    try:
        if args.adversary and args.count > 0:
            misbehaving = expand_population(
                evaluation_trace(args.trace).nodes,
                args.seed,
                evaluation_community(args.trace),
                deviation=args.adversary,
                deviation_count=args.count,
            ).roles[args.adversary]
            if not args.json:
                print(
                    f"planted {args.count} x {args.adversary}: "
                    f"nodes {list(misbehaving)}"
                )
        results = api.run(
            args.trace,
            args.protocol,
            seed=args.seed,
            adversary=args.adversary or None,
            adversary_count=args.count,
            telemetry=args.telemetry_dir,
            provider=args.provider,
        )
    except ValueError as exc:
        raise SystemExit(f"error: {exc}")
    if args.json:
        print(record_line(run_record(results)))
        return 0
    print(f"protocol : {LABELS[args.protocol]} on {args.trace}")
    print(f"messages : {results.generated} generated, "
          f"{results.delivered} delivered ({results.success_rate:.1%})")
    print(f"delay    : mean {results.mean_delay / 60:.1f} min, "
          f"median {results.median_delay / 60:.1f} min")
    print(f"cost     : {results.cost:.2f} replicas/message")
    print(f"energy   : {results.total_energy:.1f} J network-wide")
    if misbehaving:
        print(
            f"detection: {results.detection_rate(misbehaving):.0%} of "
            f"misbehaving nodes convicted, "
            f"{len(results.false_positives(misbehaving))} false positives"
        )
        for offender, record in sorted(results.first_detections().items()):
            print(
                f"  node {offender} convicted as {record.deviation} "
                f"by node {record.detector} at {record.time / 60:.0f} min"
            )
    if args.telemetry_dir:
        print(
            f"telemetry: appended to "
            f"{os.path.join(args.telemetry_dir, 'runs.jsonl')}"
        )
    return 0


def execution_options(args) -> "ExecutionOptions":
    """Build :class:`ExecutionOptions` from the experiment CLI flags."""
    from .experiments import ExecutionOptions, RunCache, RunReport
    from .experiments.cache import DEFAULT_CACHE_DIR
    from .telemetry.export import TelemetryCollector

    cache = None
    if not args.no_cache:
        cache_dir = args.cache_dir or DEFAULT_CACHE_DIR
        try:
            cache = RunCache(cache_dir)
        except OSError as exc:
            raise SystemExit(
                f"error: unusable cache directory {cache_dir!r}: {exc}"
            )
    telemetry = None
    if getattr(args, "telemetry_dir", None):
        telemetry = TelemetryCollector()
    return ExecutionOptions(
        workers=max(1, args.workers), cache=cache, report=RunReport(),
        telemetry=telemetry,
    )


def _print_batch_tail(
    options: "ExecutionOptions", telemetry_dir: Optional[str], name: str
) -> None:
    """Print a batch's run report and cache stats, and export its
    telemetry to ``<telemetry_dir>/<name>.jsonl``."""
    if options.report is not None and options.report.total:
        cache_note = ""
        if options.cache is not None:
            cache_note = f" [cache: {options.cache.stats.summary()}]"
        print(f"-- {options.report.summary()}{cache_note}")
    if options.telemetry is not None and telemetry_dir:
        path = os.path.join(telemetry_dir, f"{name}.jsonl")
        written = options.telemetry.write_jsonl(path)
        skipped = options.telemetry.skipped
        print(
            f"telemetry: {written} run records -> {path}"
            + (f" ({skipped} cache hits without telemetry)" if skipped else "")
        )


def cmd_experiment(args) -> int:
    from .experiments import ablations, fig3, fig4, fig5, fig7, fig8, table1

    quick = not args.full
    options = execution_options(args)
    if args.name == "fig3":
        for figure in fig3.run(quick=quick, options=options).values():
            print(figure.render())
    elif args.name == "fig4":
        for detection in fig4.run(quick=quick, options=options).values():
            print(detection.figure.render())
            for label, rate in detection.detection_rates.items():
                print(f"detection probability [{label}]: {rate:.1%}")
    elif args.name == "fig5":
        for figure in fig5.run(quick=quick, options=options).values():
            print(figure.render())
    elif args.name == "fig7":
        for figure in fig7.run(quick=quick, options=options).values():
            print(figure.render())
    elif args.name == "fig8":
        for panel in fig8.run(quick=quick, options=options).values():
            print(panel.render())
    elif args.name == "ablations":
        print(ablations.fanout_sweep(options=options).render())
        print(ablations.delta2_sweep(options=options).render())
        print(ablations.timeframe_sweep(options=options).render())
        print(ablations.buffer_capacity_sweep(options=options).render())
    else:
        print(table1.run(quick=quick, options=options).render())
    _print_batch_tail(options, args.telemetry_dir, args.name)
    return 0


def cmd_trace(args) -> int:
    synthetic = trace_by_name(args.trace, seed=args.seed)
    print(TraceProfile.of(synthetic.trace).describe())
    truth = synthetic.assignment
    print(
        f"  ground-truth communities: "
        f"{[len(truth.members(c)) for c in range(truth.num_communities)]}, "
        f"travelers {list(truth.travelers)}"
    )
    if args.out:
        save_trace(synthetic.trace, args.out)
        print(f"  saved to {args.out}")
    return 0


def cmd_sweep(args) -> int:
    import csv

    from .experiments import ReplicationPlan, run_series

    options = execution_options(args)
    print(
        f"sweep {args.trace}-{args.protocol}-{args.adversary}: "
        f"{len(args.counts) * len(args.seeds)} runs"
    )
    points = run_series(
        args.trace, args.protocol, args.counts, args.adversary,
        plan=ReplicationPlan(seeds=args.seeds), options=options,
    )
    rows = []
    for count, point in points:
        for seed, results in zip(args.seeds, point.runs):
            print(
                f"  count {count} seed {seed}: "
                f"success {results.success_rate:.1%}, "
                f"{len(results.detections)} PoMs"
            )
            rows.append({
                "trace": args.trace, "protocol": args.protocol,
                "adversary": args.adversary, "count": count, "seed": seed,
                **results.summary(),
            })
    _print_batch_tail(options, args.telemetry_dir, "sweep")
    if args.csv:
        with open(args.csv, "w", newline="") as handle:
            writer = csv.DictWriter(handle, fieldnames=list(rows[0]))
            writer.writeheader()
            writer.writerows(rows)
        print(f"wrote {len(rows)} summary rows to {args.csv}")
    return 0


def cmd_telemetry(args) -> int:
    from .telemetry.export import (
        read_jsonl,
        summarize_dir,
        to_prometheus,
        validate_record,
    )

    if not os.path.isdir(args.dir):
        raise SystemExit(f"error: not a directory: {args.dir}")
    if args.action == "validate":
        files = sorted(
            entry for entry in os.listdir(args.dir)
            if entry.endswith(".jsonl")
        )
        total = 0
        problems = 0
        for entry in files:
            path = os.path.join(args.dir, entry)
            for lineno, record in enumerate(read_jsonl(path), start=1):
                total += 1
                for problem in validate_record(record):
                    problems += 1
                    print(f"{path}:{lineno}: {problem}")
        if problems:
            print(f"{total} records, {problems} problems")
            return 1
        print(f"{total} records valid ({len(files)} files)")
        return 0
    try:
        summary = summarize_dir(args.dir)
    except ValueError as exc:
        raise SystemExit(f"error: {exc}")
    if args.json:
        print(json.dumps(summary, indent=2, sort_keys=True))
        return 0
    print(
        f"telemetry summary: {summary['runs']} runs "
        f"from {summary['files']} files"
    )
    print(to_prometheus(summary["telemetry"]), end="")
    return 0


def cmd_scale_bench(args) -> int:
    from .perf.scalebench import (
        DEFAULT_DURATIONS,
        DEFAULT_SCALES,
        scale_bench,
        write_report,
    )

    try:
        scales = (
            tuple(int(s) for s in args.scales.split(","))
            if args.scales else DEFAULT_SCALES
        )
        durations = (
            tuple(float(d) for d in args.durations.split(","))
            if args.durations else DEFAULT_DURATIONS
        )
    except ValueError as exc:
        raise SystemExit(f"error: bad --scales/--durations: {exc}")
    try:
        report = scale_bench(
            scales=scales,
            durations=durations,
            contacts_nodes=args.contacts_nodes,
            seed=args.seed,
            point_timeout=args.timeout,
            progress=True,
        )
    except RuntimeError as exc:
        raise SystemExit(f"error: {exc}")
    write_report(report, args.out)
    for point in report["nodes_vs"]:
        print(
            f"  {point['nodes']:>9} nodes: {point['contacts']:>9} contacts, "
            f"{point['wall_s']:>8.3f} s, "
            f"{point['peak_rss_bytes'] / 1e6:>8.1f} MB peak RSS"
        )
    for point in report["contacts_vs"]:
        print(
            f"  {point['duration_s'] / 3600:>6.1f} h stream @ "
            f"{point['nodes']} nodes: {point['contacts']:>9} contacts, "
            f"{point['wall_s']:>8.3f} s, "
            f"{point['peak_rss_bytes'] / 1e6:>8.1f} MB peak RSS"
        )
    print(f"wrote {args.out}")
    return 0


def cmd_lint(args) -> int:
    from pathlib import Path

    from .analysis import PROJECT_RULE_REGISTRY, RULE_REGISTRY, lint_tree
    from .analysis.output import render

    if args.list_rules:
        catalogue = dict(RULE_REGISTRY)
        catalogue.update(PROJECT_RULE_REGISTRY)
        for rule_id, rule_cls in sorted(catalogue.items()):
            scope = (
                " [--project]" if rule_id in PROJECT_RULE_REGISTRY else ""
            )
            print(f"{rule_id}  {' '.join(rule_cls.summary.split())}{scope}")
        return 0
    select = None
    if args.select:
        select = [r.strip() for r in args.select.split(",") if r.strip()]
    try:
        violations = lint_tree(args.paths, select=select, project=args.project)
    except (FileNotFoundError, ValueError) as exc:
        raise SystemExit(f"error: {exc}")
    report = render(violations, args.fmt)
    if args.output:
        Path(args.output).write_text(
            report if report.endswith("\n") else report + "\n"
        )
        print(f"wrote {args.output}")
    else:
        print(report, end="" if report.endswith("\n") else "\n")
    return 1 if violations else 0


def cmd_scenarios(args) -> int:
    from .scenarios import (
        CAMPAIGN_JSONL,
        PRESETS,
        ScenarioSpec,
        load_matrix,
        preset,
        render_matrix,
        run_campaign,
        write_matrix,
    )

    if args.scenarios_action == "report":
        try:
            matrix = load_matrix(args.matrix)
        except (OSError, ValueError) as exc:
            raise SystemExit(f"error: {exc}")
        if args.json:
            print(json.dumps(matrix, indent=2, sort_keys=True))
        else:
            print(render_matrix(matrix))
        return 0

    if args.preset is not None:
        if args.preset == "help":
            for name in sorted(PRESETS):
                print(name)
            return 0
        try:
            specs = preset(args.preset)
        except KeyError as exc:
            raise SystemExit(f"error: {exc.args[0]}")
    else:
        try:
            with open(args.spec, "r", encoding="utf-8") as handle:
                data = json.load(handle)
        except (OSError, ValueError) as exc:
            raise SystemExit(f"error: unreadable spec {args.spec!r}: {exc}")
        entries = data if isinstance(data, list) else [data]
        try:
            specs = [ScenarioSpec.from_dict(entry) for entry in entries]
        except (KeyError, TypeError, ValueError) as exc:
            raise SystemExit(f"error: invalid spec {args.spec!r}: {exc}")
    options = execution_options(args)
    total = sum(len(spec.seeds) for spec in specs)
    print(f"campaign: {len(specs)} scenarios, {total} runs")
    result = run_campaign(
        specs,
        workers=max(1, args.workers),
        cache=options.cache,
        telemetry_dir=args.telemetry_dir,
        on_progress=lambda done, n, cached: print(
            f"  [{done}/{n}] {'cached' if cached else 'ran'}"
        ),
    )
    print(render_matrix(result.matrix))
    print(f"matrix digest: {result.digest}")
    print(f"-- {result.report.summary()}")
    if args.out:
        write_matrix(args.out, result.matrix)
        print(f"wrote matrix to {args.out}")
    if args.telemetry_dir:
        print(
            f"telemetry: {len(result.records)} run records -> "
            f"{os.path.join(args.telemetry_dir, CAMPAIGN_JSONL)}"
        )
    return 0


def cmd_communities(args) -> int:
    synthetic = trace_by_name(args.trace, seed=args.seed)
    try:
        cmap = CommunityMap.detect(
            synthetic.trace, k=args.k, edge_quantile=args.quantile
        )
    except ValueError as exc:
        args.usage_error(str(exc))
    print(
        f"{cmap.num_communities} communities "
        f"(k={args.k}, edge quantile {args.quantile}), "
        f"coverage {cmap.coverage():.0%}"
    )
    for i, community in enumerate(cmap.communities):
        print(f"  community {i}: {sorted(community)}")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point."""
    args = build_parser().parse_args(argv)
    handlers = {
        "simulate": cmd_simulate,
        "experiment": cmd_experiment,
        "trace": cmd_trace,
        "communities": cmd_communities,
        "sweep": cmd_sweep,
        "scenarios": cmd_scenarios,
        "telemetry": cmd_telemetry,
        "scale-bench": cmd_scale_bench,
        "lint": cmd_lint,
    }
    return handlers[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
