"""Tests for the multi-chain driver."""

from __future__ import annotations

import inspect

import numpy as np
import pytest

from repro.analyses import protect_graph, triangles_by_intersect_query
from repro.core import PrivacySession
from repro.graph.generators import erdos_renyi
from repro.inference import GraphSynthesizer, synthesize_graph
from repro.inference.parallel import (
    ParallelSynthesisResult,
    run_chains,
    spawn_generators,
)
from repro.inference.seed import seed_graph_from_edges


@pytest.fixture()
def fitted():
    graph = erdos_renyi(30, 60, rng=8)
    session = PrivacySession(seed=9)
    edges = protect_graph(session, graph, total_epsilon=100.0)
    measurements = list(
        session.measure((triangles_by_intersect_query(edges), 0.5, "tbi"))
    )
    seed_graph, _ = seed_graph_from_edges(edges, 0.3, rng=np.random.default_rng(10))
    return measurements, seed_graph


class TestSpawnGenerators:
    def test_deterministic_and_independent(self):
        first = spawn_generators(7, 3)
        second = spawn_generators(7, 3)
        draws_first = [generator.random() for generator in first]
        draws_second = [generator.random() for generator in second]
        assert draws_first == draws_second
        assert len(set(draws_first)) == 3


class TestRunChains:
    def test_returns_all_chains_and_best(self, fitted):
        measurements, seed_graph = fitted
        outcome = run_chains(
            measurements, seed_graph, steps=60, chains=3, pow_=50.0, rng=4
        )
        assert isinstance(outcome, ParallelSynthesisResult)
        assert len(outcome.chains) == 3
        assert [chain.index for chain in outcome.chains] == [0, 1, 2]
        best = outcome.best
        assert best.log_score == max(chain.log_score for chain in outcome.chains)
        for chain in outcome.chains:
            assert chain.result.steps == 60
            assert sorted(chain.graph.degrees().values()) == sorted(
                seed_graph.degrees().values()
            )

    def test_deterministic_under_fixed_seed(self, fitted):
        measurements, seed_graph = fitted
        first = run_chains(
            measurements, seed_graph, steps=40, chains=2, pow_=50.0, rng=4
        )
        second = run_chains(
            measurements, seed_graph, steps=40, chains=2, pow_=50.0, rng=4
        )
        assert [chain.log_score for chain in first.chains] == [
            chain.log_score for chain in second.chains
        ]

    def test_chains_must_be_positive(self, fitted):
        measurements, seed_graph = fitted
        with pytest.raises(ValueError):
            run_chains(measurements, seed_graph, steps=10, chains=0)

    def test_synthesizer_adopts_best_chain(self, fitted):
        measurements, seed_graph = fitted
        synthesizer = GraphSynthesizer(
            measurements, seed_graph, pow_=50.0, rng=4, backend="incremental"
        )
        result = synthesizer.run(60, chains=3)
        report = synthesizer.last_parallel_result
        assert report is not None and len(report.chains) == 3
        assert synthesizer.log_score == report.best.log_score
        assert synthesizer.graph is report.best.graph
        assert result.accepted == report.best.result.accepted
        # The adopted sampler keeps working.
        synthesizer.run(10)

    def test_chains_are_single_runs_on_the_spawned_generators(self, fitted):
        measurements, seed_graph = fitted
        outcome = run_chains(
            measurements, seed_graph, steps=80, chains=3, pow_=50.0, rng=4
        )
        for chain, generator in zip(outcome.chains, spawn_generators(4, 3)):
            single = GraphSynthesizer(measurements, seed_graph, pow_=50.0, rng=generator)
            result = single.run(80)
            assert chain.result.accepted == result.accepted
            assert chain.log_score == single.log_score
            assert sorted(chain.graph.to_edge_records()) == sorted(
                single.graph.to_edge_records()
            )

    def test_one_default_backend(self):
        from repro.cli import build_parser

        default = inspect.signature(GraphSynthesizer).parameters["backend"].default
        assert inspect.signature(run_chains).parameters["backend"].default == default
        assert inspect.signature(synthesize_graph).parameters["backend"].default == default
        assert build_parser().parse_args(["synth"]).backend == default


class TestCLI:
    def test_synth_command(self, capsys):
        from repro.cli import main

        code = main(
            [
                "synth",
                "--edges", "60",
                "--steps", "0.02",
                "--chains", "2",
                "--backend", "incremental",
                "--seed", "1",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "chain" in out and "steps/s" in out and "best chain" in out

    def test_synth_single_chain_dataflow(self, capsys):
        from repro.cli import main

        code = main(
            ["synth", "--edges", "40", "--steps", "0.01", "--backend", "dataflow"]
        )
        assert code == 0
        assert "backend=dataflow" in capsys.readouterr().out
