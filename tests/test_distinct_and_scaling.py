"""Tests for the Distinct and DownScale transformations.

Covers eager semantics, error handling, stability (property-based), the
fluent Queryable methods, and agreement between the incremental dataflow
operators and the eager evaluator.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import PrivacySession, WeightedDataset
from repro.core import transformations as xf
from repro.core.plan import (
    DistinctPlan,
    DownScalePlan,
    SelectPlan,
    SourcePlan,
    stability_bounds,
)
from repro.dataflow import DataflowEngine
from repro.exceptions import PlanError

from strategies import weighted_datasets

TOLERANCE = 1e-7


# ----------------------------------------------------------------------
# Eager semantics
# ----------------------------------------------------------------------
class TestDistinctEager:
    def test_caps_heavy_records_at_one_by_default(self):
        dataset = WeightedDataset({"a": 0.25, "b": 1.0, "c": 3.5})
        result = xf.distinct(dataset)
        assert result.to_dict() == {"a": 0.25, "b": 1.0, "c": 1.0}

    def test_custom_cap(self):
        dataset = WeightedDataset({"a": 0.25, "b": 2.0})
        result = xf.distinct(dataset, cap=0.5)
        assert result.to_dict() == {"a": 0.25, "b": 0.5}

    def test_cap_must_be_positive(self):
        dataset = WeightedDataset({"a": 1.0})
        with pytest.raises(ValueError):
            xf.distinct(dataset, cap=0.0)
        with pytest.raises(ValueError):
            xf.distinct(dataset, cap=-1.0)

    def test_empty_dataset(self):
        assert xf.distinct(WeightedDataset.empty()).is_empty()

    def test_idempotent(self):
        dataset = WeightedDataset({"a": 0.3, "b": 7.0})
        once = xf.distinct(dataset)
        twice = xf.distinct(once)
        assert once.distance(twice) == 0.0


class TestDownScaleEager:
    def test_scales_every_weight(self):
        dataset = WeightedDataset({"a": 0.5, "b": 2.0})
        result = xf.down_scale(dataset, 0.25)
        assert result.to_dict() == pytest.approx({"a": 0.125, "b": 0.5})

    def test_factor_one_is_identity(self):
        dataset = WeightedDataset({"a": 0.5, "b": 2.0})
        assert xf.down_scale(dataset, 1.0).distance(dataset) == 0.0

    @pytest.mark.parametrize("factor", [0.0, -0.5, 1.5, 2.0])
    def test_factor_outside_unit_interval_rejected(self, factor):
        with pytest.raises(ValueError):
            xf.down_scale(WeightedDataset({"a": 1.0}), factor)

    def test_empty_dataset(self):
        assert xf.down_scale(WeightedDataset.empty(), 0.5).is_empty()


# ----------------------------------------------------------------------
# Stability properties
# ----------------------------------------------------------------------
@given(weighted_datasets(), weighted_datasets())
def test_distinct_is_stable(a, a_prime):
    distance_in = a.distance(a_prime)
    distance_out = xf.distinct(a, 1.0).distance(xf.distinct(a_prime, 1.0))
    assert distance_out <= distance_in + TOLERANCE


@given(
    weighted_datasets(),
    weighted_datasets(),
    st.floats(min_value=0.05, max_value=1.0, allow_nan=False),
)
def test_down_scale_is_stable(a, a_prime, factor):
    distance_in = a.distance(a_prime)
    distance_out = xf.down_scale(a, factor).distance(xf.down_scale(a_prime, factor))
    assert distance_out <= distance_in + TOLERANCE


@given(weighted_datasets())
def test_distinct_never_increases_total_weight(a):
    assert xf.distinct(a).total_weight() <= a.total_weight() + TOLERANCE


@given(weighted_datasets(), st.floats(min_value=0.05, max_value=1.0, allow_nan=False))
def test_down_scale_scales_total_weight_exactly(a, factor):
    assert xf.down_scale(a, factor).total_weight() == pytest.approx(
        factor * a.total_weight(), abs=1e-6
    )


# ----------------------------------------------------------------------
# Plan nodes and the fluent API
# ----------------------------------------------------------------------
class TestPlanNodes:
    def test_distinct_plan_rejects_nonpositive_cap(self):
        with pytest.raises(PlanError):
            DistinctPlan(SourcePlan("edges"), cap=0.0)

    def test_down_scale_plan_rejects_bad_factor(self):
        with pytest.raises(PlanError):
            DownScalePlan(SourcePlan("edges"), factor=0.0)
        with pytest.raises(PlanError):
            DownScalePlan(SourcePlan("edges"), factor=1.5)

    def test_labels_mention_parameters(self):
        assert "0.5" in DistinctPlan(SourcePlan("x"), cap=0.5).describe()
        assert "0.25" in DownScalePlan(SourcePlan("x"), factor=0.25).describe()

    def test_source_multiplicity_passes_through(self):
        # Distinct is 1-stable; DownScale's constant is its factor.
        assert stability_bounds(DistinctPlan(SourcePlan("edges"))) == {"edges": 1}
        plan = DownScalePlan(DistinctPlan(SourcePlan("edges")), 0.5)
        assert stability_bounds(plan) == {"edges": 0.5}


class TestQueryableIntegration:
    def test_distinct_through_queryable(self, session):
        queryable = session.protect("items", {"a": 3.0, "b": 0.5}, total_epsilon=1.0)
        result = queryable.distinct().evaluate_unprotected()
        assert result.to_dict() == {"a": 1.0, "b": 0.5}

    def test_down_scale_through_queryable(self, session):
        queryable = session.protect("items", {"a": 3.0, "b": 0.5}, total_epsilon=1.0)
        result = queryable.down_scale(0.5).evaluate_unprotected()
        assert result.to_dict() == pytest.approx({"a": 1.5, "b": 0.25})

    def test_measurement_cost_is_scaled_by_the_factor(self, session):
        queryable = session.protect("items", {"a": 3.0}, total_epsilon=10.0)
        scaled = queryable.down_scale(0.5).distinct()
        assert scaled.privacy_cost(0.1) == {"items": 0.05}
        scaled.noisy_count(0.1)
        assert session.spent_budget("items") == 0.05
        assert repr(scaled) == "<Queryable uses=[items×0.5]>"

    def test_distinct_then_sum_bounds_per_record_influence(self, session):
        # A record with huge weight contributes at most the cap to the sum.
        queryable = session.protect(
            "visits", {"heavy": 100.0, "light": 1.0}, total_epsilon=10.0
        )
        total = queryable.distinct().noisy_sum(5.0)
        assert total < 10.0  # far below the raw total of 101


# ----------------------------------------------------------------------
# Incremental dataflow agreement
# ----------------------------------------------------------------------
updates_strategy = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=6),
        st.floats(min_value=-3.0, max_value=3.0, allow_nan=False),
    ),
    min_size=1,
    max_size=25,
)


def _compare_incremental_to_eager(plan, updates):
    engine = DataflowEngine.from_plans([plan])
    engine.initialize({})
    accumulated: dict = {}
    for record, change in updates:
        engine.push("left", {record: change})
        accumulated[record] = accumulated.get(record, 0.0) + change
    expected = plan.evaluate({"left": WeightedDataset(accumulated)})
    assert engine.output(plan).distance(expected) < 1e-6


@settings(deadline=None, max_examples=40)
@given(updates_strategy)
def test_incremental_distinct_matches_eager(updates):
    plan = DistinctPlan(SelectPlan(SourcePlan("left"), lambda x: x % 3), cap=1.0)
    _compare_incremental_to_eager(plan, updates)


@settings(deadline=None, max_examples=40)
@given(updates_strategy)
def test_incremental_down_scale_matches_eager(updates):
    plan = DownScalePlan(SelectPlan(SourcePlan("left"), lambda x: x % 3), factor=0.5)
    _compare_incremental_to_eager(plan, updates)


@settings(deadline=None, max_examples=25)
@given(updates_strategy)
def test_incremental_distinct_composed_with_down_scale(updates):
    plan = DownScalePlan(DistinctPlan(SourcePlan("left"), cap=2.0), factor=0.25)
    _compare_incremental_to_eager(plan, updates)
