"""Tests for the command-line interface."""

from __future__ import annotations

import re
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import EXPERIMENTS, build_parser, main


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
        for name, (description, _) in EXPERIMENTS.items():
            assert name in output
            assert description in output

    def test_table3_runs_quickly_and_prints_table(self, capsys):
        exit_code = main(["table3", "--scale", "0.2", "--seed", "3"])
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "Table 3" in output
        assert "beta" in output

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
        for name, (description, runner) in EXPERIMENTS.items():
            assert isinstance(description, str) and description
            assert callable(runner)


class TestPaperSuite:
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
        paper = [line for line in collected if line.startswith("benchmarks/bench_")]
        assert len(paper) == len(EXPERIMENTS) == 12
        for name in EXPERIMENTS:
            # figure1 -> bench_figure1_*.py, jdd-ablation -> bench_jdd_*.py, ...
            pattern = rf"bench_{re.escape(name.split('-')[0])}\w*\.py::"
            assert sum(bool(re.search(pattern, line)) for line in paper) == 1, name
        harness = [line for line in collected if line not in paper]
        assert harness and all(
            line.startswith("benchmarks/e2e/test_harness.py::") for line in harness
        )
