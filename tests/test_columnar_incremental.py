"""Tests for the incremental columnar dataflow and its scoring engine."""

from __future__ import annotations

import numpy as np
import pytest

from repro.analyses import (
    node_degrees,
    protect_graph,
    triangles_by_intersect_query,
)
from repro.columnar.dataset import ColumnarDataset
from repro.columnar.incremental import DeltaNode, IncrementalGraph
from repro.columnar.interning import global_interner
from repro.core import PrivacySession, WeightedDataset
from repro.core.executor import EagerExecutor
from repro.core.plan import (
    ConcatPlan,
    DistinctPlan,
    DownScalePlan,
    ExceptPlan,
    GroupByPlan,
    IntersectPlan,
    JoinPlan,
    SelectManyPlan,
    SelectPlan,
    ShavePlan,
    SourcePlan,
    UnionPlan,
    WherePlan,
)
from repro.graph.generators import erdos_renyi
from repro.inference.columnar_scoring import (
    ColumnarScoreEngine,
    IncrementalColumnarScoreEngine,
)
from repro.inference.random_walks import EdgeSwapWalk
from repro.inference.seed import seed_graph_from_edges


class AccumulatingSink(DeltaNode):
    """Test sink folding every delta into a record -> weight dictionary."""

    def __init__(self) -> None:
        super().__init__("accumulator")
        self.weights: dict = {}

    def on_delta(self, delta, port: int = 0) -> None:
        for record, weight in zip(delta.records(), delta.weights.tolist()):
            self.weights[record] = self.weights.get(record, 0.0) + weight

    def current(self) -> WeightedDataset:
        return WeightedDataset(self.weights)


def drive(plan, initial: dict, deltas: list[dict]) -> None:
    """Push ``initial`` then every delta; after each, the sink accumulation
    must match a fresh eager evaluation of the accumulated source."""
    graph = IncrementalGraph()
    sink = AccumulatingSink()
    graph.attach(plan, sink)
    state = dict(initial)
    graph.push("src", ColumnarDataset.from_pairs(list(state), list(state.values())))
    for delta in [None] + deltas:
        if delta is not None:
            for record, change in delta.items():
                state[record] = state.get(record, 0.0) + change
            graph.push(
                "src", ColumnarDataset.from_pairs(list(delta), list(delta.values()))
            )
        expected = EagerExecutor(
            {"src": WeightedDataset({r: w for r, w in state.items() if abs(w) > 1e-12})}
        ).evaluate(plan)
        assert sink.current().distance(expected) == pytest.approx(0.0, abs=1e-8)


SRC = None  # plans are rebuilt per test; identity matters for compilation


def source():
    return SourcePlan("src")


EDGES = {(1, 2): 1.0, (2, 1): 1.0, (2, 3): 1.0, (3, 2): 1.0, (1, 3): 1.0, (3, 1): 1.0}
SWAPS = [
    {(1, 2): -1.0, (2, 1): -1.0, (1, 4): 1.0, (4, 1): 1.0},
    {(2, 3): -1.0, (3, 2): -1.0, (2, 4): 1.0, (4, 2): 1.0},
    {(1, 4): -1.0, (4, 1): -1.0, (1, 2): 1.0, (2, 1): 1.0},
]


class TestOperatorEquivalence:
    """Every operator's incremental output tracks the eager evaluation."""

    def test_select(self):
        drive(SelectPlan(source(), lambda e: e[0]), EDGES, SWAPS)

    def test_where(self):
        drive(WherePlan(source(), lambda e: e[0] < e[1]), EDGES, SWAPS)

    def test_select_many(self):
        drive(SelectManyPlan(source(), lambda e: [e[0], e[1]]), EDGES, SWAPS)

    def test_group_by(self):
        drive(GroupByPlan(source(), key=lambda e: e[0], reducer=len), EDGES, SWAPS)

    def test_shave(self):
        plan = ShavePlan(SelectPlan(source(), lambda e: e[0]), 0.5)
        drive(plan, EDGES, SWAPS)

    def test_distinct_and_down_scale(self):
        plan = DownScalePlan(DistinctPlan(SelectPlan(source(), lambda e: e[0]), 1.5), 0.5)
        drive(plan, EDGES, SWAPS)

    def test_join_norm_preserving(self):
        src = source()
        plan = JoinPlan(src, src, lambda e: e[1], lambda e: e[0])
        drive(plan, EDGES, SWAPS)

    def test_join_norm_changing_slow_path(self):
        src = source()
        plan = JoinPlan(src, src, lambda e: e[1], lambda e: e[0])
        deltas = [
            {(1, 2): 1.0},  # degree of key 2 changes: full-key recompute
            {(3, 2): -0.5, (9, 9): 0.25},
            {(1, 2): -2.0},  # drives a weight negative
        ]
        drive(plan, EDGES, deltas)

    def test_union_intersect_concat_except(self):
        src = source()
        reversed_edges = SelectPlan(src, lambda e: (e[1], e[0]))
        for plan_type in (UnionPlan, IntersectPlan, ConcatPlan, ExceptPlan):
            drive(plan_type(reversed_edges, src), EDGES, SWAPS)

    def test_layout_change_forces_opaque(self):
        plan = DistinctPlan(source(), 1.0)
        drive(plan, EDGES, [{"scalar": 1.0}, {(1, 2): -0.5}])

    def test_fractional_and_negative_weights(self):
        plan = IntersectPlan(SelectPlan(source(), lambda e: (e[1], e[0])), source())
        deltas = [{(1, 2): -0.75}, {(2, 1): 0.25, (5, 6): 1.5}, {(5, 6): -1.5}]
        drive(plan, EDGES, deltas)

    def test_unknown_plan_type_rejected(self):
        from repro.exceptions import DataflowError

        with pytest.raises(DataflowError, match="cannot compile"):
            IncrementalGraph().compile(object())


@pytest.fixture()
def fitted():
    """A protected graph, its measurements, and a Phase-1 seed graph."""
    graph = erdos_renyi(40, 90, rng=2)
    session = PrivacySession(seed=3)
    edges = protect_graph(session, graph, total_epsilon=100.0)
    measurements = list(
        session.measure(
            (triangles_by_intersect_query(edges), 0.5, "tbi"),
            (node_degrees(edges), 0.2, "degrees"),
        )
    )
    seed_graph, _ = seed_graph_from_edges(edges, 0.3, rng=np.random.default_rng(5))
    return measurements, seed_graph


def initial_edges(seed_graph) -> WeightedDataset:
    return WeightedDataset.from_records(seed_graph.to_edge_records(symmetric=True))


class TestIncrementalColumnarScoreEngine:
    def test_matches_full_pass_engine_through_swaps(self, fitted):
        measurements, seed_graph = fitted
        incremental = IncrementalColumnarScoreEngine(
            measurements, {"edges": initial_edges(seed_graph)}, pow_=50.0
        )
        full = ColumnarScoreEngine(
            measurements, {"edges": initial_edges(seed_graph)}, pow_=50.0
        )
        assert incremental.log_score() == pytest.approx(full.log_score(), abs=1e-8)
        walk = EdgeSwapWalk(seed_graph.copy(), rng=11)
        applied = 0
        while applied < 40:
            proposal = walk.propose()
            if proposal is None:
                continue
            delta, a, b, c, d = proposal
            incremental.push("edges", delta)
            full.push("edges", delta)
            walk.graph.swap_edges(a, b, c, d)
            walk._replace_edge((a, b), (a, d))
            walk._replace_edge((c, d), (c, b))
            applied += 1
            assert incremental.log_score() == pytest.approx(
                full.log_score(), abs=1e-8
            )
        for name, distance in incremental.distances().items():
            assert distance == pytest.approx(full.distances()[name], abs=1e-8)

    def test_bins_update_only_on_touched_records(self, fitted):
        measurements, seed_graph = fitted
        engine = IncrementalColumnarScoreEngine(
            measurements, {"edges": initial_edges(seed_graph)}
        )
        sink = engine._sinks[0]
        before = sink.bins.copy()
        edges = seed_graph.edge_list()
        (a, b), (c, d) = edges[0], edges[1]
        engine.push(
            "edges",
            {(a, b): -1.0, (b, a): -1.0, (c, d): -1.0, (d, c): -1.0,
             (a, d): 1.0, (d, a): 1.0, (c, b): 1.0, (b, c): 1.0},
        )
        assert sink.bins.shape == before.shape
        assert not np.array_equal(sink.bins, before)

    def test_resynchronize_reanchors_bins(self, fitted):
        measurements, seed_graph = fitted
        engine = IncrementalColumnarScoreEngine(
            measurements, {"edges": initial_edges(seed_graph)}
        )
        walk = EdgeSwapWalk(seed_graph.copy(), rng=3)
        applied = 0
        while applied < 25:
            proposal = walk.propose()
            if proposal is None:
                continue
            engine.push("edges", proposal[0])
            applied += 1
        drifted = engine.log_score()
        engine.resynchronize()
        assert engine.log_score() == pytest.approx(drifted, abs=1e-8)
        fresh = IncrementalColumnarScoreEngine(
            measurements, {"edges": engine.source_dataset("edges")}
        )
        assert engine.log_score() == pytest.approx(fresh.log_score(), abs=1e-8)

    def test_state_entry_count_includes_operator_state(self, fitted):
        measurements, seed_graph = fitted
        engine = IncrementalColumnarScoreEngine(
            measurements, {"edges": initial_edges(seed_graph)}
        )
        # Join parts index the length-two-path inputs, so state far exceeds
        # the bare source rows (the full-pass engine's count).
        assert engine.state_entry_count() > 2 * seed_graph.number_of_edges()

    def test_unknown_source_rejected(self, fitted):
        measurements, seed_graph = fitted
        engine = IncrementalColumnarScoreEngine(
            measurements, {"edges": initial_edges(seed_graph)}
        )
        from repro.exceptions import ReproError

        with pytest.raises(ReproError):
            engine.push("nope", {(1, 2): 1.0})


class TestSatellites:
    def test_steady_state_pushes_do_zero_interner_work(self, fitted):
        """Satellite: the record→row cache makes repeat swaps encoding-free."""
        measurements, seed_graph = fitted
        for engine_type in (ColumnarScoreEngine, IncrementalColumnarScoreEngine):
            engine = engine_type(measurements, {"edges": initial_edges(seed_graph)})
            edges = seed_graph.edge_list()
            (a, b), (c, d) = edges[0], edges[1]
            delta = {(a, b): -1.0, (b, a): -1.0, (c, d): -1.0, (d, c): -1.0,
                     (a, d): 1.0, (d, a): 1.0, (c, b): 1.0, (b, c): 1.0}
            inverse = {record: -change for record, change in delta.items()}
            engine.push("edges", delta)
            engine.push("edges", inverse)
            before = len(global_interner())
            for _ in range(25):
                engine.push("edges", delta)
                engine.push("edges", inverse)
            assert len(global_interner()) == before

    def test_duplicate_plans_evaluate_once_full_pass(self, fitted):
        """Satellite: one plan measured twice costs one evaluation per step."""
        measurements, seed_graph = fitted
        tbi = measurements[0]
        doubled = [tbi, tbi]
        engine = ColumnarScoreEngine(doubled, {"edges": initial_edges(seed_graph)})
        assert engine.evaluations_per_step() == 1
        distances = engine._measurement_distances()
        assert distances[0] == pytest.approx(distances[1])

    def test_duplicate_plans_share_nodes_incremental(self, fitted):
        measurements, seed_graph = fitted
        tbi = measurements[0]
        single = IncrementalColumnarScoreEngine(
            [tbi], {"edges": initial_edges(seed_graph)}
        )
        doubled = IncrementalColumnarScoreEngine(
            [tbi, tbi], {"edges": initial_edges(seed_graph)}
        )
        # The doubled engine adds exactly one extra node: the second sink.
        assert doubled._graph.node_count() == single._graph.node_count() + 1

    def test_duplicate_plans_share_collector_dataflow(self, fitted):
        from repro.core.executor import DataflowExecutor
        from repro.inference.scoring import ScoreTracker

        measurements, seed_graph = fitted
        tbi = measurements[0]
        executor = DataflowExecutor({"edges": initial_edges(seed_graph)})
        engine = executor.compile([tbi.plan])
        tracker = ScoreTracker(engine, [tbi, tbi])
        assert tracker.unique_plan_count == 1
        assert tracker.scores[0]._collector is tracker.scores[1]._collector

    def test_cached_target_encoding_reused(self, fitted):
        measurements, seed_graph = fitted
        engine = ColumnarScoreEngine(measurements, {"edges": initial_edges(seed_graph)})
        engine.log_score()
        cached = [dict(queries) for queries in engine._target_queries]
        engine.log_score()
        for before, after in zip(cached, engine._target_queries):
            for arity, matrix in after.items():
                assert before[arity] is matrix


class TestMutableSourceRows:
    def test_ensure_row_is_stable_and_weightless(self):
        source_data = WeightedDataset.from_records([(1, 2), (2, 3)])
        from repro.inference.columnar_scoring import MutableColumnarSource

        source = MutableColumnarSource(source_data)
        row = source.ensure_row((7, 8))
        assert source.ensure_row((7, 8)) == row
        assert source.to_weighted().distance(source_data) == pytest.approx(0.0)
        source.apply_rows(np.array([row]), np.array([2.5]))
        assert source.to_weighted()[(7, 8)] == pytest.approx(2.5)

    def test_codes_for_rows_round_trip(self):
        from repro.inference.columnar_scoring import MutableColumnarSource

        source = MutableColumnarSource(WeightedDataset.from_records([(1, 2), (3, 4)]))
        rows = np.array([source.ensure_row((3, 4)), source.ensure_row((1, 2))])
        columns = source.codes_for_rows(rows)
        interner = global_interner()
        decoded = list(zip(*(interner.atoms(column) for column in columns)))
        assert decoded == [(3, 4), (1, 2)]
