"""Property test: the stability bound — and so the charge — dominates
observed stability.

For random plan DAGs built from the platform's transformations and random
pairs of input datasets ``A, A'``, the per-source bound must satisfy
Definition 2 end to end::

    ‖Q(A) − Q(A')‖  ≤  bound(Q) · ‖A − A'‖  =  privacy_cost(1.0) · ‖A − A'‖

If any transformation were less stable than the constant its plan type
declares (or the fold composed bounds incorrectly), hypothesis finds a
counterexample here — this is the guarantee that makes every charge sound.
Both plan suites run on the eager executor and on the vectorized one, whose
kernels reach the same outputs by other means.
The partition case checks the group's max-accounting against the parent
plan's bound at the largest per-part ε.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.columnar.executor import VectorizedExecutor
from repro.columnar.specs import Field, FieldsDiffer, JoinFields, Permute
from repro.core import PrivacySession
from repro.core.dataset import WeightedDataset
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
    stability_bounds,
)
from repro.lint import verify_epsilon


def _record_and_reverse(record):
    """SelectMany mapper: the record plus its reversal.

    Returned as an explicit mapping — int-pair records would otherwise be
    ambiguous with ``(record, weight)`` pairs (see
    ``normalize_weighted_output``).
    """
    output = {record: 1.0}
    output[tuple(reversed(record))] = 1.0
    return output


def _first_component(records):
    """GroupBy reducer: a deterministic, order-insensitive digest.

    Ordered by ``repr``: a second ``group_by`` sees ``(key, digest)`` records
    next to plain pairs, which do not compare with ``<``.
    """
    return min(records, key=repr)


# Each op takes (current plan, source plan) and returns the next plan; all
# of them keep records as 2-tuples so any sequence composes.
_OPS = {
    "select": lambda plan, source: SelectPlan(plan, Permute(1, 0)),
    "where": lambda plan, source: WherePlan(plan, FieldsDiffer(0, 1)),
    "select_many": lambda plan, source: SelectManyPlan(plan, _record_and_reverse),
    "group_by": lambda plan, source: GroupByPlan(plan, Field(0), _first_component),
    "shave": lambda plan, source: ShavePlan(plan, 1.0),
    "distinct": lambda plan, source: DistinctPlan(plan, 1.0),
    "down_scale": lambda plan, source: DownScalePlan(plan, 0.5),
    "self_join": lambda plan, source: JoinPlan(
        plan,
        plan,
        Field(0),
        Field(0),
        JoinFields(("l", 1), ("r", 1)),
    ),
    "join_source": lambda plan, source: JoinPlan(
        plan,
        source,
        Field(0),
        Field(0),
        JoinFields(("l", 1), ("r", 1)),
    ),
    "union_source": lambda plan, source: UnionPlan(plan, source),
    "intersect_source": lambda plan, source: IntersectPlan(plan, source),
    "concat_source": lambda plan, source: ConcatPlan(plan, source),
    "except_source": lambda plan, source: ExceptPlan(plan, source),
}


def build_plan(op_names):
    source = SourcePlan("edges")
    plan = source
    for name in op_names:
        plan = _OPS[name](plan, source)
    return plan


_RECORDS = st.tuples(st.integers(0, 5), st.integers(0, 5))
_WEIGHTS = st.floats(0.0, 2.0, allow_nan=False, allow_infinity=False)
_DATASETS = st.dictionaries(_RECORDS, _WEIGHTS, max_size=8)


#: The executors whose outputs the bounds are checked against: the eager
#: reference and the columnar kernels, which compute the same outputs by other
#: means (array joins, packed-word row merges).
EXECUTORS = {"eager": EagerExecutor, "vectorized": VectorizedExecutor}


@pytest.mark.parametrize("executor", sorted(EXECUTORS))
@settings(max_examples=60, deadline=None)
@given(
    op_names=st.lists(st.sampled_from(sorted(_OPS)), max_size=5),
    base=_DATASETS,
    perturbed=_DATASETS,
)
def test_static_bound_dominates_observed_stability(executor, op_names, base, perturbed):
    plan = build_plan(op_names)
    bound = stability_bounds(plan)["edges"]
    session = PrivacySession()
    session.protect("edges", [])
    charged = session.from_plan(plan).privacy_cost(1.0)["edges"]

    dataset_a = WeightedDataset(base)
    dataset_b = WeightedDataset(perturbed)
    input_distance = dataset_a.distance(dataset_b)

    output_a = EXECUTORS[executor]({"edges": dataset_a}).evaluate(plan)
    output_b = EXECUTORS[executor]({"edges": dataset_b}).evaluate(plan)
    output_distance = output_a.distance(output_b)

    assert output_distance <= bound * input_distance + 1e-6, (
        f"plan {' -> '.join(op_names) or 'source'} claims bound {bound} but "
        f"moved {output_distance:g} on an input change of {input_distance:g}"
    )
    assert output_distance <= charged * input_distance + 1e-6


@pytest.mark.parametrize("executor", sorted(EXECUTORS))
@settings(max_examples=30, deadline=None)
@given(base=_DATASETS, perturbed=_DATASETS)
def test_paper_queries_respect_their_bounds(executor, base, perturbed):
    # The real analyses (nested records, rotations, degree joins) get the
    # same treatment as the random plans above.
    from repro.analyses import triangles_by_intersect_query, wedges_query

    session = PrivacySession()
    edges = session.protect("edges", [])
    for builder in (wedges_query, triangles_by_intersect_query):
        plan = builder(edges).plan
        bound = stability_bounds(plan)["edges"]
        dataset_a = WeightedDataset(base)
        dataset_b = WeightedDataset(perturbed)
        output_a = EXECUTORS[executor]({"edges": dataset_a}).evaluate(plan)
        output_b = EXECUTORS[executor]({"edges": dataset_b}).evaluate(plan)
        assert (
            output_a.distance(output_b)
            <= bound * dataset_a.distance(dataset_b) + 1e-6
        )


def _self_join(queryable):
    return queryable.join(
        queryable,
        left_key=Field(0),
        right_key=Field(0),
        result_selector=JoinFields(("l", 1), ("r", 1)),
    )


#: name -> (how a queryable is reshaped, the stability constant of that shape)
_SHAPES = {
    "plain": (lambda queryable: queryable, 1.0),
    "down_scale": (lambda queryable: queryable.down_scale(0.5), 0.5),
    "self_join": (_self_join, 2.0),
}


@settings(max_examples=60, deadline=None)
@given(
    parent_shape=st.sampled_from(sorted(_SHAPES)),
    measurements=st.lists(
        st.tuples(
            st.integers(0, 2),
            st.sampled_from(sorted(_SHAPES)),
            st.floats(0.01, 1.0),
            st.booleans(),
        ),
        min_size=1,
        max_size=6,
    ),
)
def test_partition_max_accounting_covers_the_parent_bound(parent_shape, measurements):
    session = PrivacySession(seed=0)
    edges = session.protect("edges", [(0, 1), (1, 2), (2, 0), (0, 2)])
    parent = _SHAPES[parent_shape][0](edges)
    parts = parent.partition(Field(0), [0, 1, 2])
    spent: dict[int, float] = {}
    for part_key, shape, epsilon, as_sum in measurements:
        reshape, constant = _SHAPES[shape]
        measured = reshape(parts[part_key])
        if as_sum:
            measured.noisy_sum(epsilon)
        else:
            measured.noisy_count(epsilon)
        spent[part_key] = spent.get(part_key, 0.0) + constant * epsilon
    max_part_epsilon = max(spent.values())
    group = parts.group
    assert group.max_epsilon() == max_part_epsilon
    issues = verify_epsilon(parent.plan, max_part_epsilon, charged=group.charged())
    assert [issue for issue in issues if issue.severity == "error"] == []
    assert session.spent_budget("edges") == sum(group.charged().values())
