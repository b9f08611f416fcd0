"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import build_parser, main
from repro.telemetry import read_jsonl, validate_record


class TestParser:
    def test_simulate_defaults(self):
        args = build_parser().parse_args(["simulate"])
        assert args.trace == "infocom05"
        assert args.protocol == "g2g_epidemic"
        assert args.count == 0

    def test_experiment_choices(self):
        args = build_parser().parse_args(["experiment", "fig8"])
        assert args.name == "fig8"
        with pytest.raises(SystemExit):
            build_parser().parse_args(["experiment", "fig9"])

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])

    def test_bad_protocol(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["simulate", "--protocol", "prophet"])

    @pytest.mark.parametrize("argv", [
        ["simulate", "--adversary", "bogus", "--count", "2"],
        ["sweep", "--adversary", "bogus", "--counts", "1", "--seeds", "1"],
    ])
    def test_unknown_adversary_fails_at_the_boundary(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "invalid choice: 'bogus'" in err
        for kind in ("dropper", "liar", "cheater", "dodger_with_outsiders"):
            assert f"'{kind}'" in err

    @pytest.mark.parametrize("flag, value, bad", [
        ("--counts", "x", "x"),
        ("--counts", "0,1.5", "1.5"),
        ("--seeds", "1,,2", ""),
    ])
    def test_bad_sweep_int_list_names_the_value(self, flag, value, bad,
                                                capsys):
        argv = ["sweep", "--protocol", "epidemic", "--counts", "1",
                "--seeds", "1", flag, value]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "error:" in err and "Traceback" not in err
        assert f"argument {flag}: invalid integer {bad!r} in {value!r}" in err

    @pytest.mark.parametrize("argv, flag, value", [
        (["simulate", "--adversary", "dropper", "--count", "-3"],
         "--count", -3),
        (["sweep", "--counts=-1", "--seeds", "1"], "--counts", -1),
        (["sweep", "--counts", "0,-2", "--seeds", "1"], "--counts", -2),
    ])
    def test_negative_adversary_count_fails_at_the_boundary(
            self, argv, flag, value, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert (
            f"argument {flag}: adversary count must be >= 0, got {value}"
            in err
        )

    def test_count_without_adversary_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--count", "5"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "--count 5 needs --adversary KIND" in err
        assert "Traceback" not in err

    def test_seeds_may_be_negative(self):
        args = build_parser().parse_args(["sweep", "--seeds=-1,2"])
        assert args.seeds == (-1, 2)

    def test_sweep_int_lists_parse(self):
        args = build_parser().parse_args(
            ["sweep", "--counts", "0,5", "--seeds", "3"]
        )
        assert args.counts == (0, 5) and args.seeds == (3,)
        defaults = build_parser().parse_args(["sweep"])
        assert defaults.counts == (0, 10, 20, 30)
        assert defaults.seeds == (1, 2)

    def test_shared_flags_are_uniform(self):
        """--trace/--protocol parse identically on every command."""
        for command in ("simulate", "sweep", "trace", "communities"):
            args = build_parser().parse_args(
                [command] + (["fake"] if command == "experiment" else [])
            )
            assert args.trace == "infocom05"
        for command in ("simulate", "sweep"):
            args = build_parser().parse_args(
                [command, "--protocol", "epidemic"]
            )
            assert args.protocol == "epidemic"
        for command, extra in (("experiment", ["fig8"]), ("sweep", [])):
            args = build_parser().parse_args(
                [command, *extra, "--workers", "3"]
            )
            assert args.workers == 3
            assert args.telemetry_dir is None


class TestCommands:
    def test_trace_command(self, capsys, tmp_path):
        out = tmp_path / "t.contacts"
        code = main(
            ["trace", "--trace", "infocom05", "--out", str(out)]
        )
        assert code == 0
        captured = capsys.readouterr().out
        assert "41 nodes" in captured
        assert out.exists()

    def test_communities_command(self, capsys):
        code = main(["communities", "--trace", "infocom05", "--k", "3"])
        assert code == 0
        assert "communities" in capsys.readouterr().out

    @pytest.mark.parametrize("flag, value, message", [
        ("--k", "1", "k must be >= 2, got 1"),
        ("--quantile", "2", "quantile must be in [0, 1), got 2.0"),
    ])
    def test_communities_bad_parameter_is_a_usage_error(
            self, flag, value, message, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["communities", "--trace", "infocom05", flag, value])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"repro communities: error: {message}" in err
        assert "Traceback" not in err

    def test_simulate_command(self, capsys):
        code = main(
            [
                "simulate",
                "--trace", "infocom05",
                "--protocol", "epidemic",
                "--seed", "1",
            ]
        )
        assert code == 0
        captured = capsys.readouterr().out
        assert "Epidemic on infocom05" in captured
        assert "replicas/message" in captured

    def test_simulate_with_adversaries(self, capsys):
        code = main(
            [
                "simulate",
                "--trace", "infocom05",
                "--protocol", "g2g_epidemic",
                "--adversary", "dropper",
                "--count", "5",
                "--seed", "1",
            ]
        )
        assert code == 0
        captured = capsys.readouterr().out
        assert "planted 5 x dropper" in captured
        assert "detection:" in captured


class TestSweepCommand:
    @staticmethod
    def sweep_args(*extra):
        return [
            "sweep",
            "--trace", "infocom05",
            "--protocol", "epidemic",
            "--counts", "0,2",
            "--seeds", "1",
            *extra,
        ]

    def test_sweep_runs_and_resumes(self, capsys, tmp_path):
        args = self.sweep_args("--cache-dir", str(tmp_path))
        assert main(args) == 0
        first = capsys.readouterr().out
        assert "-- 2 runs: 2 simulated, 0 cache hits" in first
        assert main(args) == 0
        second = capsys.readouterr().out
        assert "-- 2 runs: 0 simulated, 2 cache hits" in second
        assert first.splitlines()[:3] == second.splitlines()[:3]

    def test_no_cache_resimulates(self, capsys, tmp_path):
        assert main(self.sweep_args("--cache-dir", str(tmp_path))) == 0
        entries = sorted(tmp_path.iterdir())
        capsys.readouterr()
        assert main(
            self.sweep_args("--cache-dir", str(tmp_path), "--no-cache")
        ) == 0
        out = capsys.readouterr().out
        assert "-- 2 runs: 2 simulated, 0 cache hits" in out
        assert "[cache:" not in out
        assert sorted(tmp_path.iterdir()) == entries

    def test_sweep_csv_export(self, capsys, tmp_path):
        out = tmp_path / "rows.csv"
        code = main(
            self.sweep_args(
                "--cache-dir", str(tmp_path / "cache"), "--csv", str(out)
            )
        )
        assert code == 0
        assert "wrote 2 summary rows" in capsys.readouterr().out
        lines = out.read_text().splitlines()
        assert lines[0] == (
            "trace,protocol,adversary,count,seed,generated,delivered,"
            "success_rate,mean_delay,median_delay,cost,detections,"
            "total_energy"
        )
        assert [line.split(",")[:5] for line in lines[1:]] == [
            ["infocom05", "epidemic", "dropper", "0", "1"],
            ["infocom05", "epidemic", "dropper", "2", "1"],
        ]

    def test_sweep_runs_are_api_sweep_runs(self, capsys, tmp_path):
        from repro import api
        from repro.experiments import RunReport
        from repro.sim.serialize import results_digest

        cache_dir = str(tmp_path / "cache")
        argv = [
            "sweep", "--trace", "infocom05", "--protocol", "g2g_epidemic",
            "--adversary", "dropper", "--counts", "0,3", "--seeds", "1,2",
            "--cache-dir", cache_dir,
        ]
        assert main(argv) == 0

        def sweep(cache_dir, report=None):
            return api.sweep(
                "infocom05", "g2g_epidemic", (0, 3), adversary="dropper",
                seeds=(1, 2), cache_dir=cache_dir, report=report,
            )

        def digests(points):
            return [
                results_digest(run) for _, point in points
                for run in point.runs
            ]

        report = RunReport()
        from_cli = sweep(cache_dir, report)
        assert (report.cached, report.executed) == (4, 0)
        # Compare hit with hit: a hit re-sums the energy ledger in the
        # cache file's key order, so it need not match a fresh run's
        # last bit.
        api_dir = str(tmp_path / "api-cache")
        sweep(api_dir)
        assert digests(from_cli) == digests(sweep(api_dir))


class TestTelemetryCLI:
    def test_simulate_json_emits_valid_record(self, capsys):
        code = main(
            [
                "simulate",
                "--trace", "infocom05",
                "--protocol", "epidemic",
                "--seed", "1",
                "--json",
            ]
        )
        assert code == 0
        record = json.loads(capsys.readouterr().out)
        assert validate_record(record) == []
        assert record["protocol"] == "epidemic"
        assert record["seed"] == 1

    def test_simulate_telemetry_dir_then_summarize(self, capsys, tmp_path):
        code = main(
            [
                "simulate",
                "--trace", "infocom05",
                "--protocol", "epidemic",
                "--seed", "1",
                "--telemetry-dir", str(tmp_path),
            ]
        )
        assert code == 0
        records = read_jsonl(str(tmp_path / "runs.jsonl"))
        assert len(records) == 1
        assert validate_record(records[0]) == []

        assert main(["telemetry", "validate", str(tmp_path)]) == 0
        assert "1 records valid" in capsys.readouterr().out

        assert main(["telemetry", "summarize", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "telemetry summary: 1 runs" in out
        assert "# TYPE run_count counter" in out

    def test_telemetry_summarize_json(self, capsys, tmp_path):
        main(
            [
                "simulate",
                "--trace", "infocom05",
                "--protocol", "epidemic",
                "--seed", "1",
                "--telemetry-dir", str(tmp_path),
            ]
        )
        capsys.readouterr()
        assert main(["telemetry", "summarize", str(tmp_path), "--json"]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["kind"] == "summary"
        assert summary["runs"] == 1
        assert summary["telemetry"]["counters"]["run.count"] == 1

    def test_telemetry_validate_flags_bad_records(self, capsys, tmp_path):
        (tmp_path / "bad.jsonl").write_text('{"schema": 99}\n')
        assert main(["telemetry", "validate", str(tmp_path)]) == 1
        assert "problems" in capsys.readouterr().out

    def test_sweep_parallel_with_telemetry(self, capsys, tmp_path):
        telemetry = tmp_path / "telemetry"
        code = main(
            [
                "sweep",
                "--trace", "infocom05",
                "--protocol", "epidemic",
                "--counts", "0",
                "--seeds", "1,2",
                "--no-cache",
                "--workers", "2",
                "--telemetry-dir", str(telemetry),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "-- 2 runs: 2 simulated, 0 cache hits" in out
        assert f"telemetry: 2 run records -> {telemetry}" in out
        records = read_jsonl(str(telemetry / "sweep.jsonl"))
        assert len(records) == 2
        assert all(validate_record(r) == [] for r in records)


class TestExperimentCommand:
    def test_experiment_fig8_stubbed(self, capsys, monkeypatch):
        from repro.experiments import fig8 as fig8_module
        from repro.experiments.fig8 import Fig8Panel, ProtocolPoint

        panel = Fig8Panel(trace="infocom05")
        for name, label in (
            ("epidemic", "Epidemic"),
            ("g2g_epidemic", "G2G Epidemic"),
            ("delegation_last_contact", "Deleg.Dest Last Contact"),
            ("g2g_delegation_last_contact", "G2G Dest Last Contact"),
            ("delegation_frequency", "Deleg.Dest Frequency"),
            ("g2g_delegation_frequency", "G2G Dest Frequency"),
        ):
            panel.points.append(
                ProtocolPoint(
                    protocol=name, label=label, success_percent=50.0,
                    mean_delay_s=600.0, cost=10.0,
                )
            )
        monkeypatch.setattr(
            fig8_module, "run",
            lambda quick, options=None: {"infocom05": panel},
        )
        assert main(["experiment", "fig8"]) == 0
        out = capsys.readouterr().out
        assert "G2G Epidemic" in out


class TestExperimentCommandAllFigures:
    """Each experiment subcommand prints its stubbed rendering."""

    @pytest.fixture
    def stub_all(self, monkeypatch):
        from repro.experiments import fig3, fig4, fig5, fig7, table1
        from repro.experiments.fig4 import DetectionFigure
        from repro.experiments.runner import FigureData, Series

        figure = FigureData(
            figure_id="stub", title="stub", x_label="x", y_label="y",
            series=[Series(label="s", xs=[0.0], ys=[1.0])],
        )
        monkeypatch.setattr(
            fig3, "run",
            lambda quick, options=None: {"infocom05": figure},
        )
        monkeypatch.setattr(
            fig5, "run",
            lambda quick, options=None: {("droppers", "infocom05"): figure},
        )
        monkeypatch.setattr(
            fig7, "run",
            lambda quick, options=None: {"infocom05": figure},
        )
        monkeypatch.setattr(
            fig4,
            "run",
            lambda quick, options=None: {
                "infocom05": DetectionFigure(
                    figure=figure, detection_rates={"Droppers": 0.9}
                )
            },
        )

        class StubTable:
            def render(self):
                return "stub table"

        monkeypatch.setattr(
            table1, "run", lambda quick, options=None: StubTable()
        )
        return figure

    @pytest.mark.parametrize("name", ["fig3", "fig5", "fig7"])
    def test_figure_commands(self, stub_all, capsys, name):
        assert main(["experiment", name]) == 0
        assert "stub" in capsys.readouterr().out

    def test_fig4_prints_rates(self, stub_all, capsys):
        assert main(["experiment", "fig4"]) == 0
        out = capsys.readouterr().out
        assert "detection probability" in out
        assert "90.0%" in out

    def test_table1(self, stub_all, capsys):
        assert main(["experiment", "table1"]) == 0
        assert "stub table" in capsys.readouterr().out
