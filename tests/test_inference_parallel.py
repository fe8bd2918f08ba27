"""Tests for batched proposal evaluation and the multi-chain driver."""

from __future__ import annotations

import inspect

import numpy as np
import pytest

from repro.analyses import protect_graph, triangles_by_intersect_query
from repro.core import PrivacySession, WeightedDataset
from repro.graph.generators import erdos_renyi
from repro.inference import GraphSynthesizer, synthesize_graph
from repro.inference.columnar_scoring import IncrementalColumnarScoreEngine
from repro.inference.parallel import (
    ParallelSynthesisResult,
    run_chains,
    spawn_generators,
)
from repro.inference.random_walks import EdgeSwapWalk
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


class TestEdgeSwapBatching:
    def test_propose_batch_sizes_and_validity(self):
        graph = erdos_renyi(20, 40, rng=1)
        walk = EdgeSwapWalk(graph, rng=2)
        batch = walk.propose_batch(12)
        assert len(batch) == 12
        for proposal in batch:
            if proposal is None:
                continue
            delta, a, b, c, d = proposal
            assert graph.can_swap(a, b, c, d)
            assert sum(delta.values()) == pytest.approx(0.0)

    def test_batch_proposal_revalidation(self):
        graph = erdos_renyi(20, 40, rng=1)
        walk = EdgeSwapWalk(graph, rng=2)
        generate = walk.batch_proposals_for_engine("edges")
        batch = [c for c in generate(None, 30) if c is not None]
        assert batch, "expected at least one valid candidate"
        first = batch[0]
        assert first.revalidate()
        first.on_accept()  # committing the swap can invalidate later twins
        assert not first.revalidate()  # the original edges are gone now


class TestBatchedRun:
    def test_batched_run_consistency(self, fitted):
        measurements, seed_graph = fitted
        synthesizer = GraphSynthesizer(
            measurements, seed_graph, pow_=50.0, rng=5, backend="incremental"
        )
        # Force the batched path regardless of the chain's acceptance rate.
        synthesizer.sampler.batch_acceptance_threshold = 1.1
        result = synthesizer.run(120, proposal_batch=8)
        assert result.steps == 120
        # The walk's edge list, the graph and the engine's source must agree.
        assert sorted(
            tuple(sorted(edge)) for edge in synthesizer.walk._edges
        ) == sorted(tuple(sorted(edge)) for edge in synthesizer.graph.edge_list())
        fresh = IncrementalColumnarScoreEngine(
            measurements,
            {
                "edges": WeightedDataset.from_records(
                    synthesizer.graph.to_edge_records(symmetric=True)
                )
            },
            pow_=50.0,
        )
        assert synthesizer.log_score == pytest.approx(fresh.log_score(), abs=1e-6)

    def test_batched_run_preserves_degree_sequence(self, fitted):
        measurements, seed_graph = fitted
        synthesizer = GraphSynthesizer(
            measurements, seed_graph, pow_=50.0, rng=5, backend="incremental"
        )
        synthesizer.sampler.batch_acceptance_threshold = 1.1
        synthesizer.run(80, proposal_batch=16)
        assert sorted(synthesizer.graph.degrees().values()) == sorted(
            seed_graph.degrees().values()
        )

    def test_batched_run_on_dataflow_backend(self, fitted):
        """Backends without fused probes use generic apply/score/rollback."""
        measurements, seed_graph = fitted
        synthesizer = GraphSynthesizer(
            measurements, seed_graph, pow_=50.0, rng=5, backend="dataflow"
        )
        synthesizer.sampler.batch_acceptance_threshold = 1.1
        result = synthesizer.run(40, proposal_batch=4)
        assert result.steps == 40
        assert np.isfinite(synthesizer.log_score)

    def test_trajectory_recorded_on_batch_boundaries(self, fitted):
        measurements, seed_graph = fitted
        synthesizer = GraphSynthesizer(
            measurements, seed_graph, pow_=50.0, rng=5, backend="incremental"
        )
        result = synthesizer.run(64, record_every=20, proposal_batch=8)
        assert result.trajectory
        assert result.trajectory[-1].step == 64
        assert all(record.step % 8 == 0 for record in result.trajectory)


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
        result = synthesizer.run(60, chains=3, proposal_batch=8)
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
                "--batch", "4",
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
