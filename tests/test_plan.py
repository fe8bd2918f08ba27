"""Tests for logical query plans: evaluation, sharing, and source counting."""

from __future__ import annotations

import pytest

from repro.core import WeightedDataset
from repro.core.plan import (
    ConcatPlan,
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
    stability_bounds,
)
from repro.exceptions import PlanError


@pytest.fixture()
def environment():
    return {
        "left": WeightedDataset({"a": 1.0, "b": 2.0}),
        "right": WeightedDataset({"a": 0.5, "c": 1.5}),
    }


class TestSourcePlan:
    def test_evaluate_reads_environment(self, environment):
        plan = SourcePlan("left")
        assert plan.evaluate(environment)["b"] == 2.0

    def test_missing_source_raises(self, environment):
        with pytest.raises(PlanError):
            SourcePlan("missing").evaluate(environment)

    def test_non_dataset_binding_raises(self):
        with pytest.raises(PlanError):
            SourcePlan("left").evaluate({"left": {"a": 1.0}})

    def test_invalid_name_rejected(self):
        with pytest.raises(PlanError):
            SourcePlan("")

    def test_multiplicity(self):
        assert stability_bounds(SourcePlan("left")) == {"left": 1}


class TestUnaryPlans:
    def test_select(self, environment):
        plan = SelectPlan(SourcePlan("left"), lambda record: record.upper())
        assert plan.evaluate(environment)["A"] == 1.0

    def test_where(self, environment):
        plan = WherePlan(SourcePlan("left"), lambda record: record == "b")
        assert plan.evaluate(environment).to_dict() == {"b": 2.0}

    def test_select_many(self, environment):
        plan = SelectManyPlan(SourcePlan("left"), lambda record: [record, record * 2])
        result = plan.evaluate(environment)
        assert result["aa"] == pytest.approx(0.5)

    def test_group_by(self, environment):
        plan = GroupByPlan(SourcePlan("left"), key=lambda record: "k", reducer=len)
        result = plan.evaluate(environment)
        assert ("k", 2) in result

    def test_shave(self, environment):
        plan = ShavePlan(SourcePlan("left"), 1.0)
        result = plan.evaluate(environment)
        assert result[("b", 1)] == pytest.approx(1.0)

    def test_invalid_child_rejected(self):
        with pytest.raises(PlanError):
            SelectPlan("not a plan", lambda record: record)


class TestBinaryPlans:
    def test_join(self, environment):
        plan = JoinPlan(
            SourcePlan("left"),
            SourcePlan("right"),
            left_key=lambda record: record,
            right_key=lambda record: record,
        )
        result = plan.evaluate(environment)
        assert result[("a", "a")] == pytest.approx(1.0 * 0.5 / 1.5)

    def test_union_intersect_concat_except(self, environment):
        left, right = SourcePlan("left"), SourcePlan("right")
        assert UnionPlan(left, right).evaluate(environment)["a"] == 1.0
        assert IntersectPlan(left, right).evaluate(environment)["a"] == 0.5
        assert ConcatPlan(left, right).evaluate(environment)["a"] == 1.5
        assert ExceptPlan(left, right).evaluate(environment)["a"] == 0.5

    def test_invalid_operands_rejected(self):
        with pytest.raises(PlanError):
            ConcatPlan(SourcePlan("left"), "nope")


class TestSharingAndCounting:
    def test_shared_subplan_counts_twice(self):
        base = SelectPlan(SourcePlan("left"), lambda record: record)
        join = JoinPlan(base, base, lambda x: x, lambda y: y)
        assert stability_bounds(join) == {"left": 2}

    def test_two_distinct_sources(self):
        join = JoinPlan(SourcePlan("left"), SourcePlan("right"), lambda x: x, lambda y: y)
        assert stability_bounds(join) == {"left": 1, "right": 1}
        assert join.source_names() == {"left", "right"}

    def test_shared_subplan_evaluated_once(self, environment):
        calls = []

        def mapper(record):
            calls.append(record)
            return record

        base = SelectPlan(SourcePlan("left"), mapper)
        join = JoinPlan(base, base, lambda x: x, lambda y: y)
        join.evaluate(environment)
        # Two records in "left"; the shared Select plan must run only once.
        assert len(calls) == 2

    def test_describe_renders_tree(self):
        plan = WherePlan(SelectPlan(SourcePlan("left"), lambda r: r), lambda r: True)
        description = plan.describe()
        assert "WherePlan" in description
        assert "Source(left)" in description

    def test_repr_lists_sources(self):
        plan = ConcatPlan(SourcePlan("left"), SourcePlan("right"))
        assert "left" in repr(plan) and "right" in repr(plan)
