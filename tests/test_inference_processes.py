"""Process-parallel MCMC chains: bit-identity with threads, error paths.

Process chains must release exactly what thread chains release: each chain
gets the same spawned RNG (pickled with its state) and the same decoded
measurement values, so acceptance decisions — and therefore every sampled
graph — match step for step.  ``fork`` keeps the tests fast; CI runs the
same path under ``spawn``.
"""

from __future__ import annotations

import pytest

from repro.analyses import node_degrees, protect_graph, triangles_by_intersect_query
from repro.core.queryable import PrivacySession
from repro.graph.generators import erdos_renyi, random_twin
from repro.inference.parallel import run_chains
from repro.inference.synthesizer import GraphSynthesizer


@pytest.fixture(scope="module")
def workload():
    graph = erdos_renyi(60, 200, rng=3)
    session = PrivacySession(seed=3)
    protected = protect_graph(session, graph, total_epsilon=float("inf"))
    measurements = list(
        session.measure(
            (triangles_by_intersect_query(protected), 0.1, "tbi"),
            (node_degrees(protected), 0.1, "degrees"),
        )
    )
    return measurements, random_twin(graph, rng=3)


def _edge_records(graph):
    return sorted(graph.to_edge_records(symmetric=True))


class TestBitIdentity:
    def test_process_chains_match_thread_chains(self, workload):
        measurements, seed_graph = workload
        kwargs = dict(
            steps=300,
            chains=2,
            pow_=1.0,
            backend="incremental",
            rng=7,
        )
        threads = run_chains(measurements, seed_graph, **kwargs)
        procs = run_chains(
            measurements,
            seed_graph,
            processes=2,
            start_method="fork",
            **kwargs,
        )
        assert procs.best_index == threads.best_index
        for thread_chain, process_chain in zip(threads.chains, procs.chains):
            assert process_chain.index == thread_chain.index
            assert process_chain.result.steps == thread_chain.result.steps
            assert process_chain.result.accepted == thread_chain.result.accepted
            assert process_chain.log_score == thread_chain.log_score
            assert process_chain.distances == thread_chain.distances
            assert _edge_records(process_chain.graph) == _edge_records(thread_chain.graph)
            # Live engines stay in the worker; only the graph crosses back.
            assert process_chain.synthesizer is None

    def test_synthesizer_adopts_winning_process_chain(self, workload):
        measurements, seed_graph = workload
        synthesizer = GraphSynthesizer(
            measurements, seed_graph, pow_=1.0, rng=5, backend="incremental"
        )
        result = synthesizer.run(120, chains=2, processes=1)
        outcome = synthesizer.last_parallel_result
        best = outcome.best
        assert best.synthesizer is None
        assert result.steps == 120
        # The rebuilt engine carries the winning chain's graph and recomputes
        # the same score from the same fixed measurement targets.
        assert _edge_records(synthesizer.graph) == _edge_records(best.graph)
        assert synthesizer.log_score == pytest.approx(best.log_score)


class TestErrorPaths:
    def test_metrics_cannot_cross_the_process_boundary(self, workload):
        measurements, seed_graph = workload
        with pytest.raises(ValueError, match="metrics"):
            run_chains(
                measurements,
                seed_graph,
                steps=10,
                chains=1,
                processes=1,
                metrics={"edges": lambda: 0.0},
            )

    def test_rejects_non_positive_processes(self, workload):
        measurements, seed_graph = workload
        with pytest.raises(ValueError, match="processes"):
            run_chains(measurements, seed_graph, steps=10, chains=1, processes=0)
