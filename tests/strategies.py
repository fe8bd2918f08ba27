"""Shared hypothesis strategies for the test suite.

Kept in a plain module (not ``conftest.py``) so test files can import them
explicitly: ``from strategies import weighted_datasets``.  Importing from
``conftest`` is fragile — whichever ``conftest.py`` pytest happens to load
first (historically ``benchmarks/conftest.py``) wins the ``conftest`` name in
``sys.modules`` and shadows this one.
"""

from __future__ import annotations

from hypothesis import strategies as st

from repro.core import WeightedDataset
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

__all__ = ["records", "weights", "weighted_datasets", "plans", "delta_sequences"]


def records():
    """Small hashable records: ints and short strings."""
    return st.one_of(st.integers(min_value=-5, max_value=15), st.sampled_from("abcdef"))


def weights():
    """Bounded non-negative weights (wPINQ datasets are non-negative)."""
    return st.floats(
        min_value=0.0, max_value=8.0, allow_nan=False, allow_infinity=False
    )


def weighted_datasets(max_size: int = 8):
    """Random small weighted datasets."""
    return st.dictionaries(records(), weights(), max_size=max_size).map(WeightedDataset)


# ----------------------------------------------------------------------
# Plans over two integer-record sources, "left" and "right"
# ----------------------------------------------------------------------
def _linear():
    return SelectManyPlan(
        WherePlan(SelectPlan(SourcePlan("left"), lambda x: x % 4), lambda x: x != 3),
        lambda x: [f"{x}-a", f"{x}-b", f"{x}-c"],
    )


def _per_record():
    capped = DistinctPlan(SelectPlan(SourcePlan("left"), lambda x: x % 3), 1.5)
    return ShavePlan(DownScalePlan(capped, 0.5), 0.4)


def _group_by():
    return GroupByPlan(SourcePlan("left"), key=lambda x: x % 2, reducer=len)


def _join():
    return JoinPlan(
        SourcePlan("left"),
        SourcePlan("right"),
        left_key=lambda x: x % 2,
        right_key=lambda y: y % 2,
    )


def _self_join():
    base = SelectPlan(SourcePlan("left"), lambda x: x % 5)
    return JoinPlan(base, base, left_key=lambda x: x % 2, right_key=lambda y: (y + 1) % 2)


def _set_operators():
    left = SelectPlan(SourcePlan("left"), lambda x: x % 4)
    right = SelectPlan(SourcePlan("right"), lambda x: x % 4)
    return ConcatPlan(
        UnionPlan(left, right), ExceptPlan(IntersectPlan(left, right), right)
    )


def _graph_shaped():
    grouped = GroupByPlan(SourcePlan("left"), key=lambda x: x % 3, reducer=len)
    joined = JoinPlan(
        grouped,
        SourcePlan("right"),
        left_key=lambda g: g[0],
        right_key=lambda y: y % 3,
        result_selector=lambda g, y: (g[1], y % 2),
    )
    return GroupByPlan(
        WherePlan(joined, lambda record: record[1] == 0),
        key=lambda record: record[0],
        reducer=len,
    )


_PLAN_FACTORIES = (
    _linear,
    _per_record,
    _group_by,
    _join,
    _self_join,
    _set_operators,
    _graph_shaped,
)


def plans():
    """A fresh plan per example; between them every operator kind appears."""
    return st.sampled_from(_PLAN_FACTORIES).map(lambda factory: factory())


def delta_sequences(max_size: int = 12):
    """Lists of ``(source, delta)`` with small non-negative integer records.

    Changes are positive or negative; consumers that need a non-negative
    accumulated dataset (Shave assumes one) clamp them.
    """
    delta = st.dictionaries(
        st.integers(min_value=0, max_value=6),
        st.floats(min_value=-3.0, max_value=3.0, allow_nan=False),
        min_size=1,
        max_size=4,
    )
    return st.lists(
        st.tuples(st.sampled_from(["left", "right"]), delta), min_size=1, max_size=max_size
    )
