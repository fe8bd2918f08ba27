"""Property-based consistency tests for the incremental engine.

The single invariant everything else rests on: after any sequence of deltas,
every operator's accumulated output equals the eager evaluation of the
accumulated input.  Hypothesis drives random plans-over-random-update
sequences through both evaluators and compares.
"""

from __future__ import annotations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.columnar.specs import GroupSize
from repro.core import WeightedDataset, transformations
from repro.core.dataset import DEFAULT_TOLERANCE
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
)
from repro.dataflow import DataflowEngine
from repro.dataflow.delta import apply_change, prune
from repro.dataflow.nodes import Node
from repro.dataflow.operators import GroupByNode, IntersectNode, UnionNode

# Records are small integers; updates may push weights negative and back.
updates_strategy = st.lists(
    st.tuples(
        st.sampled_from(["left", "right"]),
        st.integers(min_value=0, max_value=6),
        st.floats(min_value=-3.0, max_value=3.0, allow_nan=False),
    ),
    min_size=1,
    max_size=25,
)


def _apply_and_compare(plan, updates, nonnegative=False):
    """Push updates through the engine and compare against eager evaluation."""
    engine = DataflowEngine.from_plans([plan])
    engine.initialize({})
    accumulated: dict[str, dict] = {"left": {}, "right": {}}
    for source, record, change in updates:
        if source not in engine.source_names():
            continue
        if nonnegative:
            # Clamp so the accumulated weight never goes negative (wPINQ
            # datasets are non-negative; Shave in particular assumes it).
            current = accumulated[source].get(record, 0.0)
            change = max(change, -current)
            if change == 0.0:
                continue
        engine.push(source, {record: change})
        accumulated[source][record] = accumulated[source].get(record, 0.0) + change
    environment = {
        name: WeightedDataset(weights) for name, weights in accumulated.items()
    }
    expected = plan.evaluate(environment)
    actual = engine.output(plan)
    assert actual.distance(expected) < 1e-6


@settings(deadline=None, max_examples=40)
@given(updates_strategy)
def test_linear_pipeline(updates):
    plan = SelectManyPlan(
        WherePlan(
            SelectPlan(SourcePlan("left"), lambda x: x % 4),
            lambda x: x != 3,
        ),
        lambda x: [f"{x}-a", f"{x}-b", f"{x}-c"],
    )
    _apply_and_compare(plan, updates)


@settings(deadline=None, max_examples=40)
@given(updates_strategy)
# Two pushes of 1e-12 sum to a visible 2e-12: the source must keep the sum,
# as the eager dataset does, and not drop each push at the tolerance.
@example([("left", 0, -1.0), ("left", 2, 1e-12), ("left", 2, 1e-12)])
def test_groupby_pipeline(updates):
    plan = GroupByPlan(SourcePlan("left"), key=lambda x: x % 2, reducer=len)
    _apply_and_compare(plan, updates)


@settings(deadline=None, max_examples=40)
@given(updates_strategy)
def test_shave_pipeline_nonnegative(updates):
    plan = ShavePlan(SelectPlan(SourcePlan("left"), lambda x: x % 3), 0.6)
    _apply_and_compare(plan, updates, nonnegative=True)


@settings(deadline=None, max_examples=40)
@given(updates_strategy)
def test_join_of_two_sources(updates):
    plan = JoinPlan(
        SourcePlan("left"),
        SourcePlan("right"),
        left_key=lambda x: x % 2,
        right_key=lambda y: y % 2,
    )
    _apply_and_compare(plan, updates)


@settings(deadline=None, max_examples=40)
@given(updates_strategy)
def test_self_join_through_shared_subplan(updates):
    base = SelectPlan(SourcePlan("left"), lambda x: x % 5)
    plan = JoinPlan(base, base, left_key=lambda x: x % 2, right_key=lambda y: (y + 1) % 2)
    _apply_and_compare(plan, updates)


@settings(deadline=None, max_examples=40)
@given(updates_strategy)
def test_set_operators_diamond(updates):
    left = SelectPlan(SourcePlan("left"), lambda x: x % 4)
    right = SelectPlan(SourcePlan("right"), lambda x: x % 4)
    plan = ConcatPlan(
        UnionPlan(left, right),
        ExceptPlan(IntersectPlan(left, right), right),
    )
    _apply_and_compare(plan, updates)


@settings(deadline=None, max_examples=25)
@given(updates_strategy)
def test_deep_composite_plan(updates):
    """A plan shaped like the graph queries: group, join, filter, group again."""
    grouped = GroupByPlan(SourcePlan("left"), key=lambda x: x % 3, reducer=len)
    joined = JoinPlan(
        grouped,
        SourcePlan("right"),
        left_key=lambda g: g[0],
        right_key=lambda y: y % 3,
        result_selector=lambda g, y: (g[1], y % 2),
    )
    plan = GroupByPlan(
        WherePlan(joined, lambda record: record[1] == 0),
        key=lambda record: record[0],
        reducer=len,
    )
    _apply_and_compare(plan, updates)


# ----------------------------------------------------------------------
# Node-level identity with the plain recompute loops
# ----------------------------------------------------------------------
class _Capture(Node):
    """Records every delta a node emits."""

    def __init__(self) -> None:
        super().__init__("capture")
        self.deltas: list[dict] = []

    def on_delta(self, delta, port=0):
        self.deltas.append(dict(delta))


def _emitted(node, delta, port=0):
    """What ``node`` emits for one input delta (``{}`` if nothing)."""
    capture = _Capture()
    node._consumers = [(capture, 0)]
    node.on_delta(dict(delta), port)
    assert len(capture.deltas) <= 1
    return capture.deltas[0] if capture.deltas else {}


def _bits(weights):
    """A weight dict with every weight as ``float.hex``, in insertion order."""
    return [(record, weight.hex()) for record, weight in weights.items()]


def _state_bits(state):
    """Nested state dicts compared bit for bit (key order ignored)."""
    return {key: dict(_bits(part)) for key, part in state.items()}


def _recompute_group_by(groups, delta, key, reducer):
    """GroupBy by full recompute of every touched key, on a plain dict."""

    def group_output(part_key):
        part = groups.get(part_key)
        if not part:
            return {}
        output = {}
        for members, weight in transformations.group_prefixes(WeightedDataset(part)):
            out_record = (part_key, reducer(list(members)))
            output[out_record] = output.get(out_record, 0.0) + weight
        return output

    by_key: dict = {}
    for record, change in delta.items():
        by_key.setdefault(key(record), {})[record] = change
    output: dict = {}
    for part_key, key_delta in by_key.items():
        before = group_output(part_key)
        part = groups.setdefault(part_key, {})
        for record, change in key_delta.items():
            apply_change(part, record, change)
        if not part:
            del groups[part_key]
        for out_record, weight in group_output(part_key).items():
            output[out_record] = output.get(out_record, 0.0) + (weight - before.pop(out_record, 0.0))
        for out_record, weight in before.items():
            output[out_record] = output.get(out_record, 0.0) - weight
    return prune(output)


_TOL = DEFAULT_TOLERANCE
#: Exact (dyadic) weights with ties and negatives, plus values at and near the
#: tolerance, where "absent" and "present" meet.
_GROUP_WEIGHTS = [0.5, 1.0, 1.0, 2.0, 3.0, -1.0, -0.5, _TOL, 1.5 * _TOL, -_TOL, 2.0 * _TOL]
_REDUCERS = {"GroupSize(1)": GroupSize(1), "GroupSize(3)": GroupSize(3), "len": len, "tuple": tuple}


@st.composite
def _group_by_steps(draw):
    """An initial state and multi-record deltas, most preserving the multiset.

    A delta sends each record of a drawn subset (present or absent) to the
    current weight of another record of the subset, so swaps, records created
    and removed, and ties all occur; some deltas then get one extra change,
    which breaks the multiset.
    """
    records = st.integers(min_value=0, max_value=9)
    weights = st.sampled_from(_GROUP_WEIGHTS)
    initial = draw(st.dictionaries(records, weights, max_size=10))
    current = dict(initial)
    steps = []
    for _ in range(draw(st.integers(min_value=1, max_value=5))):
        subset = draw(st.lists(records, min_size=1, max_size=6, unique=True))
        targets = draw(st.permutations(subset))
        delta = {r: current.get(t, 0.0) - current.get(r, 0.0) for r, t in zip(subset, targets)}
        if draw(st.booleans()) and draw(st.booleans()):
            extra = draw(records)
            delta[extra] = delta.get(extra, 0.0) + draw(weights)
        steps.append(delta)
        for record, change in delta.items():
            apply_change(current, record, change)
    return initial, steps


@pytest.mark.parametrize("reducer_name", sorted(_REDUCERS))
@settings(deadline=None, max_examples=150)
@given(_group_by_steps())
def test_group_by_shortcut_matches_full_recompute(reducer_name, steps):
    reducer = _REDUCERS[reducer_name]
    key = lambda record: record % 3  # noqa: E731 - a test key
    initial, deltas = steps
    node = GroupByNode(key, reducer)
    node.on_delta(dict(initial))
    reference = {k: dict(part) for k, part in node._groups.items()}
    calls = []
    recompute = node._group_output
    node._group_output = lambda part_key: calls.append(part_key) or recompute(part_key)
    for delta in deltas:
        snapshot = _state_bits(node._groups)
        node.undo.begin()
        emitted = _emitted(node, delta)
        expected = _recompute_group_by({k: dict(p) for k, p in reference.items()}, delta, key, reducer)
        assert _bits(emitted) == _bits(expected)
        node.undo.rollback()
        assert _state_bits(node._groups) == snapshot
        # Then the same delta for good.
        calls.clear()
        assert _bits(_emitted(node, delta)) == _bits(_recompute_group_by(reference, delta, key, reducer))
        assert _state_bits(node._groups) == _state_bits(reference)
        if reducer is tuple:  # reads members: never takes the shortcut
            assert len(calls) == 2 * len({key(record) for record in delta})


def test_edge_swap_on_a_hub_skips_the_group_recompute():
    """A degree-preserving change to a group emits nothing and re-sorts nothing."""
    node = GroupByNode(lambda edge: edge[0], GroupSize(1))
    node.on_delta({(0, v): 1.0 for v in range(1, 200)})
    node._group_output = lambda part_key: pytest.fail("recomputed an unchanged group")
    assert _emitted(node, {(0, 5): -1.0, (0, 500): 1.0}) == {}
    assert (0, 500) in node._groups[0] and (0, 5) not in node._groups[0]
    assert len(node._groups[0]) == 199


def _combine_loop(mine, other, delta, combine):
    """Union/Intersect through ``max``/``min``, on plain dicts."""
    output = {}
    for record, change in delta.items():
        prior = mine.get(record)
        theirs = other.get(record, 0.0)
        before = combine(0.0 if prior is None else prior, theirs)
        updated = apply_change(mine, record, change)
        after = combine(updated, theirs)
        if after != before:
            output[record] = after - before
    return prune(output)


_SET_WEIGHTS = [0.0, -0.0, 1.0, 1.0, -1.0, 0.5, _TOL, -_TOL, 2.0 * _TOL, -2.0 * _TOL, 1.0 + 1e-15]
_set_deltas = st.dictionaries(
    st.integers(min_value=0, max_value=4), st.sampled_from(_SET_WEIGHTS), max_size=5
)


@pytest.mark.parametrize("node_class, combine", [(UnionNode, max), (IntersectNode, min)])
@settings(deadline=None, max_examples=200)
@given(st.lists(st.tuples(st.sampled_from([0, 1]), _set_deltas), min_size=1, max_size=8))
def test_union_intersect_ties_match_max_min(node_class, combine, pushes):
    node = node_class()
    reference = ({}, {})
    for port, delta in pushes:
        expected = _combine_loop(reference[port], reference[1 - port], delta, combine)
        assert _bits(_emitted(node, delta, port)) == _bits(expected)
        for stored, kept in zip(node._weights, reference):
            assert dict(_bits(stored)) == dict(_bits(kept))
