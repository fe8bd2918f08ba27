"""Tests for the command-line interface."""

from __future__ import annotations

import dataclasses
import subprocess
import sys
from pathlib import Path

import pytest

from repro import cli
from repro.cli import build_parser, main
from repro.experiments import EXPERIMENTS, default_config


class TestParser:
    def test_every_registered_experiment_is_a_choice(self):
        parser = build_parser()
        for name in EXPERIMENTS:
            args = parser.parse_args([name])
            assert args.experiment == name

    def test_list_and_all_are_choices(self):
        parser = build_parser()
        assert parser.parse_args(["list"]).experiment == "list"
        assert parser.parse_args(["all"]).experiment == "all"

    def test_unknown_experiment_rejected(self):
        parser = build_parser()
        with pytest.raises(SystemExit):
            parser.parse_args(["figure99"])

    def test_bench_subcommand_and_its_flags_are_gone(self):
        parser = build_parser()
        for argv in (
            ["bench"],
            ["list", "--rounds", "1"],
            ["list", "--backends", "eager"],
            ["list", "--out", "report.json"],
            ["list", "--mcmc"],
        ):
            with pytest.raises(SystemExit) as refused:
                parser.parse_args(argv)
            assert refused.value.code == 2, argv

    def test_snapshot_every_flag_is_gone(self):
        # The ledger is a table: there is no log left to compact.
        parser = build_parser()
        assert parser.parse_args(["serve", "--ledger", "ledger.db"]).ledger == "ledger.db"
        with pytest.raises(SystemExit) as refused:
            parser.parse_args(["serve", "--ledger", "ledger.db", "--snapshot-every", "8"])
        assert refused.value.code == 2

    def test_serve_workers_flag_is_gone(self):
        # A measurement runs on the connection's thread: no pool to size.
        parser = build_parser()
        with pytest.raises(SystemExit) as refused:
            parser.parse_args(["serve", "--serve-workers", "8"])
        assert refused.value.code == 2

    def test_workers_flag_is_gone(self):
        # One process serves one ledger file; chaos kills and restarts it.
        parser = build_parser()
        for argv in (["serve", "--workers", "2"], ["chaos", "--workers", "2"]):
            with pytest.raises(SystemExit) as refused:
                parser.parse_args(argv)
            assert refused.value.code == 2, argv
        assert parser.parse_args(["chaos", "--kill-cycles"]).kill_cycles

    def test_synth_batch_flag_is_gone(self):
        # Every MCMC step is push, score, commit or roll back: no fused batch.
        parser = build_parser()
        with pytest.raises(SystemExit) as refused:
            parser.parse_args(["synth", "--batch", "4"])
        assert refused.value.code == 2

    def test_executor_choices_are_the_five_executors(self, capsys):
        from repro.core.executor import EXECUTORS

        parser = build_parser()
        for name in EXECUTORS:
            assert parser.parse_args(["serve", "--executor", name]).executor == name
        assert parser.parse_args(["serve"]).executor == "eager"
        with pytest.raises(SystemExit) as refused:
            parser.parse_args(["serve", "--executor", "eager-warm"])
        assert refused.value.code == 2
        assert "invalid choice: 'eager-warm'" in capsys.readouterr().err

    def test_option_parsing(self):
        args = build_parser().parse_args(
            ["table1", "--scale", "0.5", "--steps", "2", "--epsilon", "0.3", "--pow", "99", "--seed", "7"]
        )
        assert args.scale == 0.5
        assert args.steps == 2.0
        assert args.epsilon == 0.3
        assert args.pow_ == 99.0
        assert args.seed == 7


class TestMain:
    def test_list_prints_every_experiment(self, capsys):
        assert main(["list"]) == 0
        output = capsys.readouterr().out
        for name, experiment in EXPERIMENTS.items():
            assert name in output
            assert experiment.description in output

    def test_table3_runs_quickly_and_prints_table(self, capsys):
        # The CLI prints exactly the record's rendering of the record's run:
        # the same parametrisation the paper suite asserts on.
        exit_code = main(["table3", "--scale", "0.2"])
        captured = capsys.readouterr()
        assert exit_code == 0
        table3 = EXPERIMENTS["table3"]
        config = default_config().with_overrides(graph_scale=0.2)
        assert captured.out == table3.render(table3.run(config)) + "\n\n"
        assert "Table 3" in captured.out and captured.err == ""

    def test_a_failed_claim_exits_one(self, capsys, monkeypatch):
        table3 = EXPERIMENTS["table3"]
        broken = dataclasses.replace(table3, claims=lambda result, config: ["sum d^2 shrinks"])
        monkeypatch.setitem(EXPERIMENTS, "table3", broken)
        assert main(["table3", "--scale", "0.2"]) == 1
        captured = capsys.readouterr()
        assert "Table 3" in captured.out
        assert captured.err == "table3: claim failed: sum d^2 shrinks\n"

        # 'all' runs every experiment and fails if any one did.
        monkeypatch.setattr(cli, "EXPERIMENTS", {"table3": table3, "broken": broken})
        assert main(["all", "--scale", "0.2"]) == 1
        captured = capsys.readouterr()
        assert captured.out.count("Table 3") == 2
        assert captured.err == "broken: claim failed: sum d^2 shrinks\n"

    def test_figure1_with_overrides(self, capsys):
        exit_code = main(["figure1", "--epsilon", "0.5", "--seed", "1"])
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "Figure 1" in output
        assert "weighted records" in output

    def test_degree_ablation_runs(self, capsys):
        exit_code = main(["degree-ablation", "--scale", "0.5", "--epsilon", "0.5"])
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "degree sequence accuracy" in output

    def test_smooth_ablation_runs(self, capsys):
        exit_code = main(["smooth-ablation", "--scale", "0.5", "--seed", "2"])
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "smooth sensitivity" in output
        assert "weighted records" in output

    def test_every_experiment_has_description_and_runner(self):
        for name, experiment in EXPERIMENTS.items():
            assert experiment.name == name
            assert isinstance(experiment.description, str) and experiment.description
            assert callable(experiment.run)
            assert callable(experiment.render)
            assert callable(experiment.claims)


class TestPaperSuite:
    # The paper suite must collect the same way with or without the
    # pytest-benchmark plugin loaded.
    @pytest.mark.parametrize("extra", [[], ["-p", "no:benchmark"]])
    def test_benchmarks_directory_collects_one_test_per_experiment(self, extra):
        command = [sys.executable, "-m", "pytest", "benchmarks", "--co", "-q"]
        listing = subprocess.run(
            [*command, "-p", "no:cacheprovider", *extra],
            cwd=Path(__file__).resolve().parent.parent,
            capture_output=True,
            text=True,
            check=True,
        ).stdout
        collected = [line for line in listing.splitlines() if "::" in line]
        paper = [line for line in collected if line.startswith("benchmarks/test_paper.py::")]
        assert paper == [f"benchmarks/test_paper.py::test_paper[{name}]" for name in sorted(EXPERIMENTS)]
        assert len(paper) == 12
        harness = [line for line in collected if line not in paper]
        assert harness and all(
            line.startswith("benchmarks/e2e/test_harness.py::") for line in harness
        )
