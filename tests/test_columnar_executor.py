"""Tests for the vectorized/auto executors and explain routing."""

from __future__ import annotations

import pytest

from repro.analyses import (
    degree_ccdf_query,
    joint_degree_query,
    length_two_paths,
    node_degrees,
    nodes_from_edges,
    protect_graph,
    triangles_by_degree_query,
    triangles_by_intersect_query,
)
from repro.columnar import AutoExecutor, VectorizedExecutor
from repro.core import (
    EagerExecutor,
    PrivacySession,
    WeightedDataset,
    create_executor,
)
from repro.exceptions import PlanError
from repro.graph import Graph

EDGES = [(1, 2), (2, 1), (2, 3), (3, 2), (1, 3), (3, 1), (3, 4), (4, 3)]


# ----------------------------------------------------------------------
# Backend agreement: vectorized vs eager on every operator and analysis
# ----------------------------------------------------------------------
class TestVectorizedAgreement:
    @pytest.mark.parametrize(
        "build",
        [
            lambda q: q.union(q.select(lambda e: (e[1], e[0]))),
            lambda q: q.intersect(q.select(lambda e: (e[1], e[0]))),
            lambda q: q.concat(q.select(lambda e: (e[1], e[0]))),
            lambda q: q.except_with(q.where(lambda e: e[0] < e[1])),
            lambda q: q.join(q, lambda e: e[1], lambda e: e[0]),
            lambda q: length_two_paths(q),
            lambda q: node_degrees(q),
            lambda q: nodes_from_edges(q),
            lambda q: q.group_by(lambda e: e[0], len).shave(1.0),
            lambda q: q.distinct(0.5).down_scale(0.5),
            lambda q: triangles_by_intersect_query(q),
            lambda q: triangles_by_degree_query(q),
            lambda q: joint_degree_query(q),
            lambda q: degree_ccdf_query(q),
        ],
        ids=[
            "union",
            "intersect",
            "concat",
            "except",
            "self-join",
            "length-two-paths",
            "degrees",
            "nodes",
            "groupby-shave",
            "distinct-downscale",
            "tbi",
            "tbd",
            "jdd",
            "ccdf",
        ],
    )
    def test_eager_and_vectorized_agree(self, build):
        environment = {"edges": WeightedDataset.from_records(EDGES)}
        session = PrivacySession(seed=0)
        edges = session.protect("edges", WeightedDataset.from_records(EDGES))
        plan = build(edges).plan

        eager = EagerExecutor(environment).evaluate(plan)
        vectorized = VectorizedExecutor(environment).evaluate(plan)
        assert eager.distance(vectorized) == pytest.approx(0.0, abs=1e-9)

    def test_measurements_identical_under_fixed_seed(self):
        """The acceptance criterion: same noise draws, weights within tolerance."""
        graph = Graph([(1, 2), (2, 3), (3, 1), (3, 4), (4, 5), (5, 3)])
        released = {}
        for backend in ("eager", "vectorized"):
            session = PrivacySession(seed=13, executor=backend)
            edges = protect_graph(session, graph, total_epsilon=100.0)
            released[backend] = session.measure(
                (degree_ccdf_query(edges), 0.1, "ccdf"),
                (triangles_by_degree_query(edges), 0.1, "tbd"),
                (triangles_by_intersect_query(edges), 0.1, "tbi"),
            )
        for eager, vectorized in zip(released["eager"], released["vectorized"]):
            eager_values = eager.to_dict()
            vectorized_values = vectorized.to_dict()
            assert eager_values.keys() == vectorized_values.keys()
            for record, value in eager_values.items():
                assert abs(value - vectorized_values[record]) < 1e-6

    def test_shared_subplans_evaluate_once(self):
        session = PrivacySession(seed=11, executor="vectorized")
        edges = protect_graph(
            session, Graph([(1, 2), (2, 3), (3, 1)]), total_epsilon=100.0
        )
        session.measure(
            (triangles_by_degree_query(edges), 0.1, "tbd"),
            (triangles_by_intersect_query(edges), 0.1, "tbi"),
        )
        executor = session.executor
        assert executor.evaluation_count(length_two_paths(edges).plan) == 1
        assert executor.evaluation_count(node_degrees(edges).plan) == 1

    def test_partition_parts_agree(self):
        results = {}
        for backend in ("eager", "vectorized"):
            session = PrivacySession(seed=5, executor=backend)
            edges = session.protect("edges", EDGES, total_epsilon=100.0)
            parts = edges.partition(lambda e: e[0] % 2, [0, 1])
            results[backend] = {
                key: result.to_dict()
                for key, result in parts.noisy_counts(0.25).items()
            }
        assert results["eager"] == results["vectorized"]

    def test_canonical_noise_tokens_preserve_equality_and_precision(self):
        import collections

        import numpy as np

        from repro.core.aggregation import _canonical_token

        # ==-equal numbers of any type share one token...
        assert (
            _canonical_token(1)
            == _canonical_token(1.0)
            == _canonical_token(True)
            == _canonical_token(np.int64(1))
        )
        # ...without losing precision beyond 2^53...
        assert _canonical_token(2**53) != _canonical_token(2**53 + 1)
        # ...and tuple subclasses token like the plain tuples they ==-equal.
        Point = collections.namedtuple("Point", "x y")
        assert _canonical_token(Point(1, 2.0)) == _canonical_token((1.0, 2))
        # Exact numerics unify with floats only when actually ==-equal.
        import decimal
        import fractions

        assert _canonical_token(decimal.Decimal("0.5")) == _canonical_token(0.5)
        assert _canonical_token(decimal.Decimal("1")) == _canonical_token(1)
        assert _canonical_token(decimal.Decimal("0.1")) != _canonical_token(0.1)
        assert _canonical_token(decimal.Decimal("0.10")) == _canonical_token(
            decimal.Decimal("0.1")
        )
        assert _canonical_token(fractions.Fraction(1, 2)) == _canonical_token(0.5)
        assert _canonical_token(fractions.Fraction(1, 3)) != _canonical_token(1 / 3)

    def test_large_int_records_release_identically(self):
        # 64-bit-hash-style ids: sort keys must stay distinct so both
        # backends assign the same noise draw to the same record.
        records = {(2**53, "a"): 1.0, (2**53 + 1, "b"): 2.0, (7, "c"): 3.0}
        released = {}
        for backend in ("eager", "vectorized"):
            session = PrivacySession(seed=31, executor=backend)
            queryable = session.protect("ids", dict(records))
            released[backend] = queryable.noisy_count(0.5).to_dict()
        assert released["eager"] == released["vectorized"]

    def test_budget_accounting_is_backend_independent(self):
        spent = {}
        for backend in ("eager", "vectorized", "auto"):
            session = PrivacySession(seed=1, executor=backend)
            edges = session.protect("edges", EDGES, total_epsilon=10.0)
            edges.join(edges, lambda e: e[1], lambda e: e[0]).noisy_count(0.5)
            spent[backend] = session.spent_budget("edges")
        assert spent["eager"] == spent["vectorized"] == spent["auto"]


# ----------------------------------------------------------------------
# The auto executor's routing
# ----------------------------------------------------------------------
class TestAutoExecutor:
    def test_routes_by_source_support(self):
        session = PrivacySession(
            seed=0, executor=lambda env: AutoExecutor(env, threshold=10)
        )
        small = session.protect("small", [(1, 2), (2, 3)], total_epsilon=100.0)
        big = session.protect(
            "big", [(i, i + 1) for i in range(50)], total_epsilon=100.0
        )
        executor = session.executor
        assert executor.backend_for(small.plan) == "eager"
        assert executor.backend_for(big.plan) == "vectorized"
        # A mixed batch is routed as one unit (vectorized here), keeping the
        # once-per-batch evaluation of shared sub-plans, and preserves order.
        batch = session.measure((small, 0.1, "s"), (big, 0.1, "b"))
        assert len(batch[0]) == 2 and len(batch[1]) == 50

    def test_mixed_batch_evaluates_shared_subplan_once(self):
        session = PrivacySession(
            seed=0, executor=lambda env: AutoExecutor(env, threshold=10)
        )
        small = session.protect("small", [(1, 2), (2, 3)], total_epsilon=100.0)
        big = session.protect(
            "big", [(i, i + 1) for i in range(50)], total_epsilon=100.0
        )
        calls = []
        shared = small.select(lambda e: calls.append(e) or e)
        lone = shared.where(lambda e: True)
        mixed = shared.concat(big)
        assert session.executor.backend_for(lone.plan) == "eager"
        assert session.executor.backend_for(mixed.plan) == "vectorized"
        session.measure((lone, 0.1), (mixed, 0.1))
        # The shared Select ran once even though its two consumers would have
        # routed to different backends on their own.
        assert len(calls) == 2

    def test_default_threshold_and_env_override(self, monkeypatch):
        assert AutoExecutor({}).threshold == 2048
        monkeypatch.setenv("REPRO_AUTO_THRESHOLD", "7")
        assert AutoExecutor({}).threshold == 7

    def test_auto_session_measures_like_eager(self):
        values = {}
        for backend in ("eager", "auto"):
            session = PrivacySession(seed=9, executor=backend)
            edges = session.protect("edges", EDGES, total_epsilon=100.0)
            values[backend] = edges.group_by(lambda e: e[0], len).noisy_count(
                0.2
            ).to_dict()
        assert values["eager"] == values["auto"]

    def test_create_executor_resolves_new_names(self):
        environment = {"edges": WeightedDataset.from_records(EDGES)}
        assert isinstance(create_executor("vectorized", environment), VectorizedExecutor)
        assert isinstance(create_executor("auto", environment), AutoExecutor)
        with pytest.raises(PlanError):
            create_executor("columnar", environment)


# ----------------------------------------------------------------------
# explain() backend annotations
# ----------------------------------------------------------------------
class TestExplainBackends:
    def test_each_backend_annotates_nodes(self):
        for backend, label in (
            ("eager", "@eager"),
            ("dataflow", "@dataflow"),
            ("vectorized", "@vectorized"),
        ):
            session = PrivacySession(seed=0, executor=backend)
            edges = session.protect("edges", EDGES)
            text = triangles_by_intersect_query(edges).explain()
            assert label in text
            assert "Source(edges)" in text

    def test_auto_annotation_tracks_routing(self):
        session = PrivacySession(
            seed=0, executor=lambda env: AutoExecutor(env, threshold=4)
        )
        tiny = session.protect("tiny", [(1, 2)])
        big = session.protect("big", [(i, i + 1) for i in range(8)])
        assert "@eager" in tiny.explain()
        assert "@vectorized" in big.explain()

    def test_cli_explain_executor_flag(self, capsys):
        from repro.cli import main

        assert main(["explain", "tbi", "--executor", "vectorized"]) == 0
        assert "@vectorized" in capsys.readouterr().out
        assert main(["explain", "tbi", "--executor", "auto", "--rows", "5000"]) == 0
        assert "@vectorized" in capsys.readouterr().out
        assert main(["explain", "tbi", "--executor", "auto"]) == 0
        assert "@eager" in capsys.readouterr().out
