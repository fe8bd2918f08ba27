"""Tests for the unified executor layer and batched measurements."""

from __future__ import annotations

import pytest

from repro.analyses import (
    degree_ccdf_query,
    joint_degree_query,
    length_two_paths,
    node_degrees,
    protect_graph,
    triangles_by_degree_query,
    triangles_by_intersect_query,
)
from repro.core import (
    DataflowExecutor,
    EagerExecutor,
    MeasurementRequest,
    MeasurementSet,
    PrivacySession,
    WeightedDataset,
    create_executor,
)
from repro.core.executor import EXECUTORS
from repro.exceptions import BudgetExceededError, PlanError
from repro.graph import Graph

EDGES = [(1, 2), (2, 1), (2, 3), (3, 2), (1, 3), (3, 1), (3, 4), (4, 3)]


@pytest.fixture()
def protected():
    session = PrivacySession(seed=7)
    edges = session.protect("edges", EDGES, total_epsilon=100.0)
    return session, edges


class CountingMapper:
    """A mapper that records how many times it is invoked."""

    def __init__(self):
        self.calls = 0

    def __call__(self, record):
        self.calls += 1
        return record


# ----------------------------------------------------------------------
# EagerExecutor
# ----------------------------------------------------------------------
class TestEagerExecutor:
    def test_shared_subplan_evaluates_once_per_batch(self, protected):
        session, edges = protected
        mapper = CountingMapper()
        shared = edges.select(mapper)
        query_a = shared.where(lambda e: e[0] == 1)
        query_b = shared.where(lambda e: e[1] == 2)

        session.measure((query_a, 0.1), (query_b, 0.1))
        # The shared Select ran once: one call per input record.
        assert mapper.calls == len(EDGES)

    def test_separate_measurements_do_not_share_by_default(self, protected):
        session, edges = protected
        mapper = CountingMapper()
        shared = edges.select(mapper)
        shared.noisy_count(0.1)
        shared.noisy_count(0.1)
        # The default eager executor is cold per batch.
        assert mapper.calls == 2 * len(EDGES)

    def test_held_plan_reuses_its_result_across_batches(self):
        session = PrivacySession(seed=1)
        edges = session.protect("edges", EDGES, total_epsilon=100.0)
        mapper = CountingMapper()
        shared = session.hold(edges.select(mapper))
        shared.noisy_count(0.1)
        assert session.executor.evaluation_count(shared.plan) == 1
        shared.noisy_count(0.1)
        assert mapper.calls == len(EDGES)
        # The second batch never reached the executor: its last batch is
        # still the first one.
        assert session.executor.evaluation_count(shared.plan) == 1
        assert session.exact_stats() == {"held": 1, "computed": 1, "reused": 1}

    def test_evaluation_count_reports_last_batch(self, protected):
        session, edges = protected
        shared = edges.select(lambda e: e)
        session.measure((shared, 0.1), (shared.where(lambda e: True), 0.1))
        assert session.executor.evaluation_count(shared.plan) == 1

    def test_unknown_executor_spec_rejected(self):
        with pytest.raises(PlanError):
            PrivacySession(executor="mystery")
        with pytest.raises(PlanError):
            create_executor(42, {})

    def test_eager_warm_is_no_longer_an_executor(self):
        assert list(EXECUTORS) == ["eager", "dataflow", "vectorized", "auto", "sharded"]
        with pytest.raises(PlanError) as refused:
            create_executor("eager-warm", {})
        for name in EXECUTORS:
            assert repr(name) in str(refused.value)

    def test_prebuilt_executor_instance_rejected(self):
        # An instance is bound to some other environment; only factories are
        # accepted so the session can bind its own dataset registry.
        with pytest.raises(PlanError, match="factory"):
            PrivacySession(executor=EagerExecutor({}))

    def test_executor_class_works_as_factory(self):
        session = PrivacySession(seed=0, executor=DataflowExecutor)
        assert isinstance(session.executor, DataflowExecutor)
        edges = session.protect("edges", EDGES, total_epsilon=10.0)
        assert len(edges.noisy_count(0.1)) == len(set(EDGES))

    def test_executor_factory_receives_session_environment(self):
        captured = {}

        def factory(environment):
            captured["executor"] = EagerExecutor(environment)
            return captured["executor"]

        session = PrivacySession(seed=0, executor=factory)
        assert session.executor is captured["executor"]
        edges = session.protect("edges", EDGES, total_epsilon=10.0)
        assert len(edges.noisy_count(0.1)) == len(set(EDGES))

    def test_factory_returning_non_executor_rejected(self):
        with pytest.raises(PlanError, match="protocol"):
            PrivacySession(executor=lambda environment: object())


# ----------------------------------------------------------------------
# Backend agreement
# ----------------------------------------------------------------------
class TestBackendAgreement:
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
            lambda q: q.group_by(lambda e: e[0], len).shave(1.0),
            lambda q: q.distinct(0.5).down_scale(0.5),
        ],
        ids=[
            "union",
            "intersect",
            "concat",
            "except",
            "self-join",
            "length-two-paths",
            "degrees",
            "groupby-shave",
            "distinct-downscale",
        ],
    )
    def test_eager_and_dataflow_agree(self, build):
        environment = {"edges": WeightedDataset.from_records(EDGES)}
        session = PrivacySession(seed=0)
        edges = session.protect("edges", WeightedDataset.from_records(EDGES))
        plan = build(edges).plan

        eager = EagerExecutor(environment).evaluate(plan)
        dataflow = DataflowExecutor(environment).evaluate(plan)
        assert eager.distance(dataflow) == pytest.approx(0.0, abs=1e-9)

    def test_dataflow_session_measures_like_eager(self):
        eager_session = PrivacySession(seed=5)
        flow_session = PrivacySession(seed=5, executor="dataflow")
        results = {}
        for name, session in (("eager", eager_session), ("dataflow", flow_session)):
            edges = session.protect("edges", EDGES, total_epsilon=10.0)
            query = edges.join(edges, lambda e: e[1], lambda e: e[0])
            results[name] = query.noisy_count(1.0)
        # Same exact values (same plan, same data) and same noise stream.
        assert results["eager"].to_dict().keys() == results["dataflow"].to_dict().keys()

    def test_dataflow_executor_keeps_engine_warm(self):
        session = PrivacySession(seed=2, executor="dataflow")
        edges = session.protect("edges", EDGES, total_epsilon=10.0)
        query = edges.select(lambda e: e[0])
        query.noisy_count(0.1)
        engine_first = session.executor.engine
        query.noisy_count(0.1)
        assert session.executor.engine is engine_first
        # A new plan forces a recompilation (from that batch's plans only).
        edges.where(lambda e: True).noisy_count(0.1)
        assert session.executor.engine is not engine_first

    def test_dataflow_executor_warm_set_is_bounded(self):
        environment = {"edges": WeightedDataset.from_records(EDGES)}
        session = PrivacySession(seed=2)
        edges = session.protect("edges", WeightedDataset.from_records(EDGES))
        executor = DataflowExecutor(environment)
        keep = edges.select(lambda e: e[0]).plan
        for index in range(10):
            # Each batch has one fresh throw-away plan alongside `keep`...
            executor.evaluate_many([keep, edges.where(lambda e: True).plan])
        # ...and the warm set is always just the last batch, not the history.
        assert len(executor._plans) == 2
        assert id(keep) in executor._plans


# ----------------------------------------------------------------------
# session.measure: batching and atomic budgets
# ----------------------------------------------------------------------
class TestMeasureBatch:
    def test_batch_matches_sequential_measurements_under_fixed_seed(self):
        queries = [
            lambda q: q.select(lambda e: e[0]),
            lambda q: q.group_by(lambda e: e[0], len),
            lambda q: q.join(q, lambda e: e[1], lambda e: e[0]),
        ]

        sequential_session = PrivacySession(seed=42)
        edges = sequential_session.protect("edges", EDGES, total_epsilon=10.0)
        sequential = [build(edges).noisy_count(0.5) for build in queries]

        batch_session = PrivacySession(seed=42)
        edges = batch_session.protect("edges", EDGES, total_epsilon=10.0)
        batch = batch_session.measure(*[(build(edges), 0.5) for build in queries])

        assert len(batch) == len(sequential)
        for lone, batched in zip(sequential, batch):
            assert lone.to_dict() == batched.to_dict()
        assert sequential_session.spent_budget("edges") == pytest.approx(
            batch_session.spent_budget("edges")
        )

    def test_batch_budget_is_charged_atomically(self, protected):
        session = PrivacySession(seed=3)
        edges = session.protect("edges", EDGES, total_epsilon=1.0)
        cheap = edges.select(lambda e: e[0])
        expensive = edges.join(edges, lambda e: e[1], lambda e: e[0])
        # 0.2 (cheap) + 2 * 0.6 (self-join) = 1.4 > 1.0: the whole batch fails.
        with pytest.raises(BudgetExceededError):
            session.measure((cheap, 0.2), (expensive, 0.6))
        assert session.spent_budget("edges") == 0.0
        # The affordable prefix alone goes through afterwards.
        session.measure((cheap, 0.2))
        assert session.spent_budget("edges") == pytest.approx(0.2)

    def test_batch_charges_sum_of_sequential_costs(self, protected):
        session, edges = protected
        a = edges.select(lambda e: e[0])
        b = edges.join(edges, lambda e: e[1], lambda e: e[0])
        batch = session.measure((a, 0.1), (b, 0.2))
        assert batch.charged == {"edges": pytest.approx(0.1 + 2 * 0.2)}
        assert session.spent_budget("edges") == pytest.approx(0.5)

    def test_partition_parts_compose_in_parallel_within_batch(self, protected):
        session, edges = protected
        parts = edges.partition(lambda e: e[0] % 2, [0, 1])
        batch = session.measure((parts[0], 0.4), (parts[1], 0.4))
        # Parallel composition: the sweep costs one epsilon, not two.
        assert session.spent_budget("edges") == pytest.approx(0.4)
        assert len(batch) == 2

    def test_mixed_direct_and_partition_requests(self, protected):
        session, edges = protected
        parts = edges.partition(lambda e: e[0] % 2, [0, 1])
        direct = edges.select(lambda e: e[0])
        session.measure((parts[0], 0.3), (parts[1], 0.3), (direct, 0.2))
        # max over parts (0.3) + direct use (0.2).
        assert session.spent_budget("edges") == pytest.approx(0.5)

    def test_partition_sweep_uses_one_parent_evaluation(self, protected):
        session, edges = protected
        mapper = CountingMapper()
        parent = edges.select(mapper)
        parts = parent.partition(lambda e: e[0] % 2, [0, 1])
        parts.noisy_counts(0.25)
        assert mapper.calls == len(EDGES)
        assert session.spent_budget("edges") == pytest.approx(0.25)

    def test_measurement_set_interface(self, protected):
        session, edges = protected
        batch = session.measure(
            MeasurementRequest(edges.select(lambda e: e[0]), 0.1, "firsts"),
            (edges.select(lambda e: e[1]), 0.1, "seconds"),
            (edges.distinct(), 0.1),
        )
        assert isinstance(batch, MeasurementSet)
        assert len(batch) == 3
        assert set(batch.by_name()) == {"firsts", "seconds"}
        assert batch.by_name()["firsts"] is batch[0]
        assert [r.epsilon for r in batch] == [0.1, 0.1, 0.1]
        assert "firsts" in repr(batch)

    def test_measure_accepts_a_single_iterable(self, protected):
        session, edges = protected
        requests = [(edges.select(lambda e: e[0]), 0.1), (edges.distinct(), 0.1)]
        batch = session.measure(requests)
        assert len(batch) == 2
        # A tuple of request tuples and a generator work too.
        assert len(session.measure(tuple(requests))) == 2
        assert len(session.measure(iter(requests))) == 2

    def test_empty_batch(self, protected):
        session, edges = protected
        batch = session.measure()
        assert len(batch) == 0
        assert session.spent_budget("edges") == 0.0

    def test_foreign_queryable_rejected(self, protected):
        session, edges = protected
        other = PrivacySession(seed=0)
        foreign = other.protect("edges", EDGES)
        with pytest.raises(PlanError):
            session.measure((foreign, 0.1))

    def test_malformed_request_rejected(self, protected):
        session, edges = protected
        with pytest.raises(PlanError):
            session.measure(("not a queryable", 0.1))
        with pytest.raises(PlanError):
            session.measure([edges])

    def test_epsilon_is_normalised_to_float(self, protected):
        session, edges = protected
        batch = session.measure((edges.select(lambda e: e[0]), "0.5"))
        assert batch[0].epsilon == 0.5
        assert session.spent_budget("edges") == pytest.approx(0.5)

    def test_bare_queryable_gets_descriptive_error(self, protected):
        session, edges = protected
        with pytest.raises(PlanError, match="epsilon"):
            session.measure(edges)
        with pytest.raises(PlanError, match="epsilon"):
            session.measure(0.5)

    def test_cold_executor_frees_memo_after_batch(self, protected):
        session, edges = protected
        edges.select(lambda e: e[0]).noisy_count(0.1)
        assert session.executor._memo == {}
        assert session.executor._pinned == {}


# ----------------------------------------------------------------------
# The paper's analyses as one batch (the acceptance scenario)
# ----------------------------------------------------------------------
class TestAnalysisBatch:
    def test_degree_jdd_tbd_batch_shares_subplans(self):
        graph = Graph([(1, 2), (2, 3), (3, 1), (3, 4), (4, 5), (5, 3)])
        session = PrivacySession(seed=11)
        edges = protect_graph(session, graph, total_epsilon=100.0)

        batch = session.measure(
            (degree_ccdf_query(edges), 0.1, "degree_ccdf"),
            (joint_degree_query(edges), 0.1, "jdd"),
            (triangles_by_degree_query(edges), 0.1, "tbd"),
            (triangles_by_intersect_query(edges), 0.1, "tbi"),
        )
        # 1 (degree) + 4 (jdd) + 9 (tbd) + 4 (tbi) uses at eps = 0.1.
        assert session.spent_budget("edges") == pytest.approx(1.8)

        executor = session.executor
        assert executor.evaluation_count(length_two_paths(edges).plan) == 1
        assert executor.evaluation_count(node_degrees(edges).plan) == 1
        assert len(batch) == 4

    def test_batch_agrees_with_sequential_eager_path(self):
        graph = Graph([(1, 2), (2, 3), (3, 1), (3, 4)])

        def run(batched: bool):
            session = PrivacySession(seed=23)
            edges = protect_graph(session, graph, total_epsilon=100.0)
            builders = [degree_ccdf_query, joint_degree_query, triangles_by_degree_query]
            if batched:
                return [
                    result.to_dict()
                    for result in session.measure(
                        *[(build(edges), 0.2) for build in builders]
                    )
                ]
            return [build(edges).noisy_count(0.2).to_dict() for build in builders]

        assert run(batched=True) == run(batched=False)

    def test_query_builders_are_identity_shared(self):
        session = PrivacySession(seed=0)
        edges = session.protect("edges", EDGES)
        assert triangles_by_degree_query(edges) is triangles_by_degree_query(edges)
        assert node_degrees(edges) is node_degrees(edges, bucket=1)
        assert node_degrees(edges, bucket=2) is not node_degrees(edges)
        other = session.protect("other", EDGES)
        assert length_two_paths(edges) is not length_two_paths(other)

    def test_query_builders_accept_keyword_invocation(self):
        session = PrivacySession(seed=0)
        edges = session.protect("edges", EDGES)
        assert degree_ccdf_query(edges=edges) is degree_ccdf_query(edges)
        assert node_degrees(edges=edges, bucket=1) is node_degrees(edges)


# ----------------------------------------------------------------------
# explain()
# ----------------------------------------------------------------------
class TestExplain:
    def test_explain_lists_tree_and_multiplicities(self, protected):
        session, edges = protected
        text = triangles_by_intersect_query(edges).explain()
        assert "Source(edges)" in text
        assert "edges: x4" in text

    def test_explain_with_epsilon_shows_charge(self, protected):
        session, edges = protected
        text = joint_degree_query(edges).explain(0.1)
        assert "charges 0.4" in text

    def test_explain_marks_shared_subplans(self, protected):
        session, edges = protected
        text = triangles_by_intersect_query(edges).explain()
        assert "(shared, defined above)" in text

    def test_cli_explain(self, capsys):
        from repro.cli import main

        assert main(["explain"]) == 0
        listing = capsys.readouterr().out
        assert "tbd" in listing and "jdd" in listing

        assert main(["explain", "tbi", "--epsilon", "0.1"]) == 0
        output = capsys.readouterr().out
        assert "Source(edges)" in output
        assert "x4" in output

    def test_cli_explain_unknown_query(self, capsys):
        from repro.cli import main

        assert main(["explain", "nope"]) == 2

    def test_cli_rejects_stray_query_argument(self, capsys):
        from repro.cli import main

        with pytest.raises(SystemExit):
            main(["list", "tbd"])
        with pytest.raises(SystemExit):
            main(["table3", "tbd"])
