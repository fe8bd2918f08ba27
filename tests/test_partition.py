"""Tests for the Partition operator and its parallel-composition accounting.

The semantics under test:

* each part is the restriction of the parent query to one key value, so the
  parts are disjoint and their concatenation recovers the parent's output;
* measuring many parts at the same ε charges each protected source only
  ``ε × multiplicity`` once (the running *maximum* over parts), not once per
  part;
* parts behave like full queryables — they can be transformed further, and
  derived queryables stay attached to the same accounting group;
* budget enforcement stays atomic: a refused measurement charges nothing and
  does not advance the group's bookkeeping.
"""

from __future__ import annotations

import pytest

from repro.core import PrivacySession, WeightedDataset
from repro.core.partition import PartitionPlan, PartQueryable
from repro.dataflow import DataflowEngine
from repro.exceptions import BudgetExceededError, PlanError


EDGES = [(1, 2), (2, 3), (3, 4), (4, 5), (1, 3), (2, 5)]


@pytest.fixture()
def protected_edges():
    session = PrivacySession(seed=7)
    edges = session.protect("edges", EDGES, total_epsilon=10.0)
    return session, edges


# ----------------------------------------------------------------------
# Construction and part semantics
# ----------------------------------------------------------------------
class TestPartitionSemantics:
    def test_parts_are_disjoint_restrictions(self, protected_edges):
        _, edges = protected_edges
        parts = edges.partition(lambda e: e[0] % 2, [0, 1])
        even = parts[0].evaluate_unprotected()
        odd = parts[1].evaluate_unprotected()
        assert all(record[0] % 2 == 0 for record in even.records())
        assert all(record[0] % 2 == 1 for record in odd.records())
        assert set(even.records()).isdisjoint(set(odd.records()))

    def test_parts_cover_the_parent_for_exhaustive_keys(self, protected_edges):
        _, edges = protected_edges
        parts = edges.partition(lambda e: e[0] % 2, [0, 1])
        combined = parts[0].evaluate_unprotected() + parts[1].evaluate_unprotected()
        assert combined.distance(edges.evaluate_unprotected()) == 0.0

    def test_missing_keys_simply_select_nothing(self, protected_edges):
        _, edges = protected_edges
        parts = edges.partition(lambda e: e[0], [999])
        assert parts[999].evaluate_unprotected().is_empty()

    def test_keys_are_preserved_in_order(self, protected_edges):
        _, edges = protected_edges
        parts = edges.partition(lambda e: e[0] % 3, [2, 0, 1])
        assert parts.keys() == [2, 0, 1]
        assert len(parts) == 3
        assert {key for key, _ in parts} == {0, 1, 2}

    def test_unknown_part_key_raises(self, protected_edges):
        _, edges = protected_edges
        parts = edges.partition(lambda e: e[0] % 2, [0, 1])
        with pytest.raises(PlanError):
            parts[17]

    def test_duplicate_part_keys_rejected(self, protected_edges):
        _, edges = protected_edges
        with pytest.raises(PlanError):
            edges.partition(lambda e: e[0] % 2, [0, 0])

    def test_empty_key_list_rejected(self, protected_edges):
        _, edges = protected_edges
        with pytest.raises(PlanError):
            edges.partition(lambda e: e[0] % 2, [])

    def test_parts_are_part_queryables(self, protected_edges):
        _, edges = protected_edges
        parts = edges.partition(lambda e: e[0] % 2, [0, 1])
        assert isinstance(parts[0], PartQueryable)
        assert parts[0].partition_group is parts.group

    def test_transformed_part_keeps_its_group(self, protected_edges):
        _, edges = protected_edges
        parts = edges.partition(lambda e: e[0] % 2, [0, 1])
        derived = parts[0].select(lambda e: e[1]).where(lambda n: n > 2)
        assert isinstance(derived, PartQueryable)
        assert derived.partition_group is parts.group


# ----------------------------------------------------------------------
# Parallel-composition accounting
# ----------------------------------------------------------------------
class TestParallelComposition:
    def test_two_parts_at_same_epsilon_cost_one_epsilon(self, protected_edges):
        session, edges = protected_edges
        parts = edges.partition(lambda e: e[0] % 2, [0, 1])
        parts[0].noisy_count(0.5)
        parts[1].noisy_count(0.5)
        assert session.spent_budget("edges") == pytest.approx(0.5)

    def test_noisy_sum_shares_the_group_maximum(self, protected_edges):
        session, edges = protected_edges
        parts = edges.partition(lambda e: e[0] % 2, [0, 1])
        parts[0].noisy_count(0.5)
        parts[1].noisy_sum(0.5, query_name="odd total")
        assert session.spent_budget("edges") == 0.5
        assert parts.group.charged() == {"edges": 0.5}
        # A down-scaled part only raises its part's ε by half the request.
        parts[1].down_scale(0.5).noisy_sum(0.4)
        assert parts.group.part_epsilon(1) == pytest.approx(0.7)
        assert session.spent_budget("edges") == pytest.approx(0.7)

    def test_noisy_counts_sweep_costs_one_epsilon(self, protected_edges):
        session, edges = protected_edges
        parts = edges.partition(lambda e: e[0], [1, 2, 3, 4, 5])
        results = parts.noisy_counts(0.25)
        assert set(results) == {1, 2, 3, 4, 5}
        assert session.spent_budget("edges") == pytest.approx(0.25)

    def test_only_the_increase_of_the_max_is_charged(self, protected_edges):
        session, edges = protected_edges
        parts = edges.partition(lambda e: e[0] % 2, [0, 1])
        parts[0].noisy_count(0.5)
        assert session.spent_budget("edges") == pytest.approx(0.5)
        # A smaller measurement on the sibling is free; a larger one pays
        # only the difference.
        parts[1].noisy_count(0.2)
        assert session.spent_budget("edges") == pytest.approx(0.5)
        parts[1].noisy_count(0.6)
        assert session.spent_budget("edges") == pytest.approx(0.8)

    def test_repeat_measurements_of_one_part_compose_sequentially(self, protected_edges):
        session, edges = protected_edges
        parts = edges.partition(lambda e: e[0] % 2, [0, 1])
        parts[0].noisy_count(0.3)
        parts[0].noisy_count(0.3)
        assert session.spent_budget("edges") == pytest.approx(0.6)

    def test_preview_cost_reflects_group_state(self, protected_edges):
        session, edges = protected_edges
        parts = edges.partition(lambda e: e[0] % 2, [0, 1])
        assert parts[0].privacy_cost(0.4) == {"edges": pytest.approx(0.4)}
        parts[0].noisy_count(0.4)
        # The sibling can now measure at up to 0.4 for free.
        assert parts[1].privacy_cost(0.4) == {}
        assert parts[1].privacy_cost(0.6) == {"edges": pytest.approx(0.2)}
        assert session.spent_budget("edges") == pytest.approx(0.4)

    def test_self_join_of_a_part_charges_double(self, protected_edges):
        session, edges = protected_edges
        parts = edges.partition(lambda e: e[0] % 2, [0, 1])
        part = parts[0]
        joined = part.join(part, lambda e: e[1], lambda e: e[1])
        joined.noisy_count(0.1)
        # Two arrivals at the same part: cumulative part epsilon is 0.2.
        assert session.spent_budget("edges") == pytest.approx(0.2)

    def test_join_with_raw_source_charges_direct_use_fully(self, protected_edges):
        session, edges = protected_edges
        parts = edges.partition(lambda e: e[0] % 2, [0, 1])
        joined = parts[0].join(edges, lambda e: e[1], lambda e: e[0])
        joined.noisy_count(0.1)
        # 0.1 through the partition (max accounting) + 0.1 for the direct use.
        assert session.spent_budget("edges") == pytest.approx(0.2)
        # Measuring the sibling part at the same epsilon is now free.
        parts[1].noisy_count(0.1)
        assert session.spent_budget("edges") == pytest.approx(0.2)

    def test_partition_of_transformed_query_charges_parent_multiplicity(self):
        session = PrivacySession(seed=11)
        edges = session.protect("edges", EDGES, total_epsilon=10.0)
        # The parent query uses the source twice (a self-join).
        paths = edges.join(edges, lambda e: e[1], lambda e: e[0])
        parts = paths.partition(lambda p: p[0][0] % 2, [0, 1])
        parts[0].noisy_count(0.1)
        parts[1].noisy_count(0.1)
        assert session.spent_budget("edges") == pytest.approx(0.2)

    def test_multiple_sources_each_charged(self):
        session = PrivacySession(seed=13)
        left = session.protect("left", [("a", 1), ("b", 2)], total_epsilon=5.0)
        right = session.protect("right", [("a", 3), ("b", 4)], total_epsilon=5.0)
        joined = left.join(right, lambda r: r[0], lambda r: r[0])
        parts = joined.partition(lambda pair: pair[0][0], ["a", "b"])
        parts["a"].noisy_count(0.3)
        parts["b"].noisy_count(0.3)
        assert session.spent_budget("left") == pytest.approx(0.3)
        assert session.spent_budget("right") == pytest.approx(0.3)

    def test_group_report_tracks_charges(self, protected_edges):
        _, edges = protected_edges
        parts = edges.partition(lambda e: e[0] % 2, [0, 1])
        parts[0].noisy_count(0.5)
        group = parts.group
        assert group.max_epsilon() == pytest.approx(0.5)
        assert group.part_epsilon(0) == pytest.approx(0.5)
        assert group.part_epsilon(1) == 0.0
        assert group.charged() == {"edges": pytest.approx(0.5)}


# ----------------------------------------------------------------------
# Budget enforcement
# ----------------------------------------------------------------------
class TestPartitionBudgetEnforcement:
    def test_refused_measurement_charges_nothing(self):
        session = PrivacySession(seed=3)
        edges = session.protect("edges", EDGES, total_epsilon=0.5)
        parts = edges.partition(lambda e: e[0] % 2, [0, 1])
        parts[0].noisy_count(0.4)
        with pytest.raises(BudgetExceededError):
            parts[1].noisy_count(5.0)
        assert session.spent_budget("edges") == pytest.approx(0.4)
        # The group's bookkeeping did not advance either: a subsequent
        # affordable measurement behaves as if the refused one never happened.
        parts[1].noisy_count(0.4)
        assert session.spent_budget("edges") == pytest.approx(0.4)

    def test_partition_allows_budget_to_stretch_across_parts(self):
        session = PrivacySession(seed=5)
        edges = session.protect("edges", EDGES, total_epsilon=0.5)
        parts = edges.partition(lambda e: e[0], [1, 2, 3, 4, 5])
        # Five measurements at 0.4 would cost 2.0 sequentially, far over
        # budget, but in parallel they cost 0.4.
        for key in parts.keys():
            parts[key].noisy_count(0.4)
        assert session.spent_budget("edges") == pytest.approx(0.4)

    def test_partition_requires_queryable_parent(self):
        from repro.core.partition import Partition

        with pytest.raises(PlanError):
            Partition("not a queryable", lambda x: x, [0])


# ----------------------------------------------------------------------
# Plan evaluation and dataflow compilation
# ----------------------------------------------------------------------
class TestPartitionPlanMechanics:
    def test_partition_plan_evaluates_to_keyed_restriction(self, protected_edges):
        _, edges = protected_edges
        parts = edges.partition(lambda e: e[0] % 2, [1])
        plan = parts[1].plan
        assert isinstance(plan, PartitionPlan)
        output = plan.evaluate({"edges": WeightedDataset.from_records(EDGES)})
        assert set(output.records()) == {e for e in EDGES if e[0] % 2 == 1}

    def test_partition_plan_label_names_the_part(self, protected_edges):
        _, edges = protected_edges
        parts = edges.partition(lambda e: e[0] % 2, [1])
        assert "part=1" in parts[1].plan.describe()

    def test_partition_plan_compiles_into_the_dataflow_engine(self, protected_edges):
        _, edges = protected_edges
        parts = edges.partition(lambda e: e[0] % 2, [0, 1])
        derived = parts[1].select(lambda e: e[1])
        engine = DataflowEngine.from_plans([derived.plan])
        engine.initialize({"edges": WeightedDataset.from_records(EDGES)})
        expected = derived.evaluate_unprotected()
        assert engine.output(derived.plan).distance(expected) < 1e-9

    def test_partition_plan_tracks_incremental_updates(self, protected_edges):
        _, edges = protected_edges
        parts = edges.partition(lambda e: e[0] % 2, [1])
        plan = parts[1].plan
        engine = DataflowEngine.from_plans([plan])
        engine.initialize({"edges": WeightedDataset.from_records(EDGES)})
        engine.push("edges", {(1, 5): 1.0, (2, 3): -1.0})
        current = engine.source_dataset("edges")
        expected = plan.evaluate({"edges": current})
        assert engine.output(plan).distance(expected) < 1e-9
