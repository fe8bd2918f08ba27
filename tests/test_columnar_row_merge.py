"""The row-merge primitive and the join and intersect built on it, against
the code they replaced.

``row_groups`` packs the columns of a row into ``int64`` words and sorts
those — unless they are already in order — and ``consolidate`` adds nothing
when every row is distinct; the join sorts each side's key words at most
once and emits a selector's pairs in left order when no two can collide; the
intersect probes one side's words in the other's instead of merging the two.
All must be *exactly* what ``np.lexsort``, the ``argsort`` / ``np.unique`` /
``np.intersect1d`` join tail and the union-then-``min`` intersect gave — same
permutation, same groups, same order of colliding pairs, same rows — because
every float sum downstream adds its terms in that order.  The references below are
in-test copies of the replaced code; the last test pins released values
recorded before the replacement.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import analyses
from repro.analyses import protect_graph
from repro.columnar import (
    ColumnarDataset,
    Field,
    FieldsDiffer,
    GroupSize,
    JoinFields,
    Permute,
    kernels,
)
from repro.columnar import dataset as dataset_module
from repro.columnar.dataset import consolidate, packing_plan, row_groups
from repro.columnar.interning import Interner, global_interner, use_interner
from repro.core.dataset import DEFAULT_TOLERANCE, WeightedDataset
from repro.core.queryable import PrivacySession
from repro.graph.generators import social_graph
from repro.shard.executor import ShardedExecutor

WORD = 1 << 63


def worker_code(worker: int, index: int) -> int:
    """A code from shard worker ``worker``'s private namespace."""
    return (1 << 40) + worker * (1 << 32) + index


#: Value pools a column draws its codes from; rows index into a pool, so
#: duplication is heavy whatever the pool.
POOLS = {
    "small": [0, 1, 2, 3],
    "constant": [7],
    "negative": [-1, -5, 0, 2, -(1 << 20)],
    "near_2_62": [(1 << 62) - 1, (1 << 62) - 2, 1 << 61, 3],
    "both_ends": [-(1 << 62), (1 << 62) - 1, 0],
    "worker": [worker_code(w, i) for w in range(4) for i in (0, 1, 5)] + [0, 1, 9],
}


class Presorted(list):
    """Pools whose drawn rows are handed over already in code order."""


def draw_columns(pools: list[str], rows: int, seed: int) -> list[np.ndarray]:
    rng = np.random.default_rng(seed)
    columns = [
        np.array(POOLS[pool], dtype=np.int64)[rng.integers(len(POOLS[pool]), size=rows)]
        for pool in pools
    ]
    if isinstance(pools, Presorted):
        order = np.lexsort(columns[::-1])
        columns = [column[order] for column in columns]
    return columns


def regime(columns: list[np.ndarray]) -> str:
    """Which of the three sorts ``row_groups`` runs on these columns."""
    spans = [int(column.max()) - int(column.min()) + 1 for column in columns]
    plan, fits_rows = packing_plan(spans, columns[0].shape[0])
    if len(plan) > 1:
        return "several words"
    return "word and row" if fits_rows else "word only"


# ----------------------------------------------------------------------
# The replaced code, kept as the reference
# ----------------------------------------------------------------------
def reference_row_groups(columns):
    """``row_groups`` as it was: one ``np.lexsort``, one ``!=`` per column."""
    count = columns[0].shape[0]
    order = np.lexsort(tuple(columns)[::-1])
    boundary = np.zeros(count, dtype=bool)
    boundary[:1] = True
    for column in columns:
        column = column[order]
        boundary[1:] |= column[1:] != column[:-1]
    return order, np.cumsum(boundary) - 1, np.flatnonzero(boundary)


def reference_consolidate(columns, weights, tolerance):
    order, group_index, representatives = reference_row_groups(columns)
    weights = np.bincount(group_index, weights=weights[order])
    columns = [column[order][representatives] for column in columns]
    keep = np.abs(weights) > tolerance
    return [column[keep] for column in columns], weights[keep]


def reference_key_codes(left, right, left_key, right_key):
    """Composite keys numbered together by the lexsort; anything else called
    per record and interned."""
    if (
        isinstance(left_key, Permute)
        and isinstance(right_key, Permute)
        and len(left_key.indices) == len(right_key.indices)
    ):
        order, group, _ = reference_row_groups(
            [
                np.concatenate([left.columns[l], right.columns[r]])
                for l, r in zip(left_key.indices, right_key.indices)
            ]
        )
        codes = np.empty_like(group)
        codes[order] = group
        return codes[: len(left)], codes[len(left) :]
    if isinstance(left_key, Field) and isinstance(right_key, Field):
        return left.columns[left_key.index], right.columns[right_key.index]
    interner = global_interner()
    return (
        interner.codes([left_key(record) for record in left.records()]),
        interner.codes([right_key(record) for record in right.records()]),
    )


def reference_join(left, right, left_key, right_key, selector):
    """The join tail as it was (five sorts), down to consolidated columns."""
    left_codes, right_codes = reference_key_codes(left, right, left_key, right_key)
    left_order = np.argsort(left_codes, kind="stable")
    right_order = np.argsort(right_codes, kind="stable")
    left_keys, left_starts, left_counts = np.unique(
        left_codes[left_order], return_index=True, return_counts=True
    )
    right_keys, right_starts, right_counts = np.unique(
        right_codes[right_order], return_index=True, return_counts=True
    )
    _, left_hit, right_hit = np.intersect1d(
        left_keys, right_keys, assume_unique=True, return_indices=True
    )
    if left_hit.size == 0:
        return None  # no pair at all: the kernel answers with the opaque empty dataset
    left_norms = np.add.reduceat(np.abs(left.weights[left_order]), left_starts)
    right_norms = np.add.reduceat(np.abs(right.weights[right_order]), right_starts)
    denominators = left_norms[left_hit] + right_norms[right_hit]
    feasible = denominators > 0
    left_hit, right_hit = left_hit[feasible], right_hit[feasible]
    denominators = denominators[feasible]
    pair_counts = left_counts[left_hit] * right_counts[right_hit]
    total = int(pair_counts.sum())
    if total == 0:
        return None
    key_of_pair = np.repeat(np.arange(pair_counts.shape[0]), pair_counts)
    offsets = np.concatenate(([0], np.cumsum(pair_counts)[:-1]))
    local = np.arange(total) - offsets[key_of_pair]
    fanout = right_counts[right_hit][key_of_pair]
    left_rows = left_order[left_starts[left_hit][key_of_pair] + local // fanout]
    right_rows = right_order[right_starts[right_hit][key_of_pair] + local % fanout]
    weights = (
        left.weights[left_rows] * right.weights[right_rows] / denominators[key_of_pair]
    )
    columns = [
        (left.columns[index][left_rows] if side == "l" else right.columns[index][right_rows])
        for side, index in selector.picks
    ]
    return reference_consolidate(columns, weights, left.tolerance)


def reference_intersect(left, right):
    """``kernels.intersect`` as it was: both sides' weights over the union of
    their rows (one ``bincount`` per side), then ``min``; returns the kept
    columns, weights and arity."""
    if left.arity != right.arity:  # the alignment, unchanged
        if left.is_empty():
            left = ColumnarDataset.empty(left.tolerance, right.arity)
        elif right.is_empty():
            right = ColumnarDataset.empty(right.tolerance, left.arity)
        else:
            left, right = left.as_opaque(), right.as_opaque()
    columns = [np.concatenate(pair) for pair in zip(left.columns, right.columns)]
    order, group, representatives = reference_row_groups(columns)
    stacked = np.concatenate([left.weights, right.weights])[order]
    from_left = order < len(left)
    left_weights = np.bincount(group, weights=np.where(from_left, stacked, 0.0))
    right_weights = np.bincount(group, weights=np.where(from_left, 0.0, stacked))
    weights = np.minimum(left_weights, right_weights)
    keep = np.abs(weights) > left.tolerance
    rows = order[representatives][keep]
    return [column[rows] for column in columns], weights[keep], left.arity


def assert_same_rows(dataset: ColumnarDataset, columns, weights):
    assert len(dataset.columns) == len(columns)
    for ours, theirs in zip(dataset.columns, columns):
        assert ours.tolist() == theirs.tolist()
    assert dataset.weights.tolist() == weights.tolist()  # ==, not approx


# ----------------------------------------------------------------------
# (a) row_groups
# ----------------------------------------------------------------------
def assert_row_groups_match(columns):
    order, group_index, representatives = row_groups(columns)
    expected = reference_row_groups(columns)
    for ours, theirs in zip((order, group_index, representatives), expected):
        assert ours.dtype == np.int64
        assert ours.tolist() == theirs.tolist()


@given(
    pools=st.lists(st.sampled_from(sorted(POOLS)), min_size=1, max_size=6),
    rows=st.one_of(st.integers(0, 5), st.integers(0, 400)),
    seed=st.integers(0, 2**32 - 1),
)
@settings(deadline=None, max_examples=300)
def test_row_groups_is_the_lexsort_with_its_groups(pools, rows, seed):
    assert_row_groups_match(draw_columns(pools, rows, seed))


@pytest.mark.parametrize(
    "pools, rows, expected",
    [
        (["small", "small", "small"], 400, "word and row"),
        (["worker"], 400, "word and row"),  # span ≈ 2⁴⁰, × 400 rows fits
        (["worker", "small", "negative"], 400, "word only"),  # ≈ 2⁶² × rows does not
        (["near_2_62"], 400, "word only"),
        (["both_ends"], 400, "word only"),  # a span of 2⁶³ itself still shifts to zero
        (["worker", "worker"], 400, "several words"),  # ≈ 2⁸⁰
        (["worker", "small", "worker", "worker", "small"], 400, "several words"),
        (["near_2_62", "negative", "constant", "both_ends", "worker", "small"], 57, "several words"),
        (["worker"], 1, "word and row"),
        (Presorted(["small", "small", "small"]), 400, "word and row"),
        (Presorted(["worker", "small", "negative"]), 400, "word only"),
        (Presorted(["worker", "small", "worker", "worker", "small"]), 400, "several words"),
    ],
)
def test_every_regime_runs_and_matches(pools, rows, expected):
    for seed in range(5):
        columns = draw_columns(pools, rows, seed)
        assert regime(columns) == expected
        assert_row_groups_match(columns)


def test_packing_plan_is_greedy_and_never_overflows():
    assert packing_plan([4, 5, 6], 10) == ([[0, 1, 2]], True)
    # Row numbers below 2⁵⁶ take 56 bits, and 120 << 56 < 2⁶³ ≤ 120 << 57.
    assert packing_plan([4, 5, 6], 1 << 56) == ([[0, 1, 2]], True)
    assert packing_plan([4, 5, 6], (1 << 56) + 1) == ([[0, 1, 2]], False)
    assert packing_plan([1 << 62, 2], 1) == ([[0], [1]], False)  # 2⁶³ is too much
    assert packing_plan([1 << 62, 1, 1], 1) == ([[0, 1, 2]], True)
    wide = (1 << 40) + 3 * (1 << 32)
    assert packing_plan([wide, 4, wide, wide, 4], 9) == ([[0, 1], [2], [3, 4]], False)
    assert packing_plan([3, WORD, 3], 1) == ([[0], [1], [2]], False)


def test_zero_rows_give_three_empty_arrays():
    for width in (1, 3):
        result = row_groups([np.empty(0, dtype=np.int64)] * width)
        assert [part.tolist() for part in result] == [[], [], []]
        assert all(part.dtype == np.int64 for part in result)
    merged = ColumnarDataset((np.empty(0, dtype=np.int64),), np.empty(0), None)
    assert len(merged) == 0 and merged.weights.dtype == np.float64


def test_one_row_is_one_group():
    assert_row_groups_match([np.array([-1], dtype=np.int64), np.array([1 << 62])])


def distinct_rows(columns: list[np.ndarray]) -> list[np.ndarray]:
    """The first row of each group, in code order."""
    order, _, representatives = reference_row_groups(columns)
    return [column[order[representatives]] for column in columns]


def assert_consolidate_matches(columns, weights):
    ours = consolidate(columns, weights, DEFAULT_TOLERANCE)
    expected = reference_consolidate(columns, weights, DEFAULT_TOLERANCE)
    assert [column.tolist() for column in ours[0]] == [column.tolist() for column in expected[0]]
    assert ours[1].tolist() == expected[1].tolist()  # ==, not approx


@given(
    pools=st.lists(st.sampled_from(sorted(POOLS)), min_size=1, max_size=4),
    rows=st.integers(1, 300),
    seed=st.integers(0, 2**32 - 1),
    shape=st.sampled_from(["sorted", "sorted distinct", "distinct"]),
)
@settings(deadline=None, max_examples=200)
def test_presorted_and_distinct_rows_merge_as_the_lexsort(pools, rows, seed, shape):
    """Rows already in code order are not re-sorted and distinct rows skip the
    sums; duplicates of sorted rows are still added in input order."""
    columns = draw_columns(Presorted(pools), rows, seed)
    if shape != "sorted":
        columns = distinct_rows(columns)
    if shape == "distinct":  # distinct, in no particular order
        shuffle = np.random.default_rng(seed).permutation(columns[0].shape[0])
        columns = [column[shuffle] for column in columns]
    assert_row_groups_match(columns)
    rng = np.random.default_rng(seed + 1)
    # Weights whose sum depends on the order they are added in.
    weights = rng.choice([1e16, -1e16, 1.0, 0.1, -0.3, 3.0], size=columns[0].shape[0])
    assert_consolidate_matches(columns, weights)


def test_sorted_duplicates_are_added_in_input_order():
    column = np.array([0, 0, 0, 4], dtype=np.int64)
    for weights, total in (([1e16, -1e16, 1.0, 2.0], 1.0), ([1e16, 1.0, -1e16, 2.0], 0.0)):
        _, summed = consolidate([column], np.array(weights), DEFAULT_TOLERANCE)
        assert summed.tolist() == ([total, 2.0] if total else [2.0])
        assert_consolidate_matches([column], np.array(weights))


def test_presorted_consolidate_gathers_nothing():
    """Distinct rows already in code order come back as the very arrays."""
    columns = [np.array([0, 0, 1, 3], dtype=np.int64), np.array([2, 5, 0, 1], dtype=np.int64)]
    weights = np.array([1e16, 1.0, -1e16, 2.0])
    merged, summed = consolidate(columns, weights, DEFAULT_TOLERANCE)
    assert all(ours is theirs for ours, theirs in zip(merged, columns))
    assert summed.tolist() == weights.tolist()


# ----------------------------------------------------------------------
# (b) join
# ----------------------------------------------------------------------
JOIN_POOLS = {
    "small": [0, 1, 2, 3, 4],
    "hub": [2] * 12 + [0, 1, 3],  # one key holds most rows
    "wide": [worker_code(w, i) for w in range(3) for i in (0, 1)] + [0, 1],
}


def code_dataset(pools: list[str], rows: int, seed: int) -> ColumnarDataset:
    """A decomposed dataset built straight from codes (never decoded), with
    weights of both signs."""
    rng = np.random.default_rng(seed)
    columns = [
        np.array(JOIN_POOLS[pool], dtype=np.int64)[rng.integers(len(JOIN_POOLS[pool]), size=rows)]
        for pool in pools
    ]
    weights = rng.choice([-2.0, -0.3, 0.1, 0.7, 1.0, 3.0], size=rows)
    return ColumnarDataset(columns, weights, len(pools))


@st.composite
def code_joins(draw):
    """Two code-level datasets and one structural key shape for both."""
    pool = st.sampled_from(sorted(JOIN_POOLS))
    left_pools = draw(st.lists(pool, min_size=1, max_size=3))
    right_pools = draw(st.lists(pool, min_size=1, max_size=3))
    left = code_dataset(left_pools, draw(st.integers(1, 40)), draw(st.integers(0, 10**6)))
    right = code_dataset(right_pools, draw(st.integers(1, 40)), draw(st.integers(0, 10**6)))
    index = lambda dataset: st.integers(0, dataset.arity - 1)
    if draw(st.booleans()):
        keys = Field(draw(index(left))), Field(draw(index(right)))
    else:  # same width, any indices: reversed and repeated ones included
        width = draw(st.integers(1, 3))
        indices = lambda dataset: draw(st.lists(index(dataset), min_size=width, max_size=width))
        keys = Permute(*indices(left)), Permute(*indices(right))
    return left, right, keys


def selectors(left: ColumnarDataset, right: ColumnarDataset):
    """Every field (pairs stay distinct) and the first of each side (pairs
    collide, so the consolidated sums depend on the pair order)."""
    everything = JoinFields(
        *[("l", i) for i in range(left.arity)], *[("r", i) for i in range(right.arity)]
    )
    return everything, JoinFields(("l", 0), ("r", 0))


def assert_join_matches(left, right, left_key, right_key):
    for selector in selectors(left, right):
        ours = kernels.join(left, right, left_key, right_key, selector)
        expected = reference_join(left, right, left_key, right_key, selector)
        if expected is None:
            assert len(ours) == 0
        else:
            assert_same_rows(ours, *expected)


@given(case=code_joins())
@settings(deadline=None, max_examples=300)
def test_join_on_structural_keys_is_the_replaced_join(case):
    left, right, (left_key, right_key) = case
    assert_join_matches(left, right, left_key, right_key)


@given(
    left_rows=st.integers(1, 25),
    right_rows=st.integers(1, 25),
    seed=st.integers(0, 10**6),
    shape=st.sampled_from(["permute-field", "functions", "function-permute"]),
)
@settings(deadline=None, max_examples=100)
def test_join_on_called_keys_is_the_replaced_join(left_rows, right_rows, seed, shape):
    rng = np.random.default_rng(seed)
    weights = lambda rows: rng.choice([-1.5, 0.25, 1.0, 2.0], size=rows)
    # The right side's first field is itself a pair, so a Permute on the left
    # can meet a Field on the right.
    left_records = [(int(a), int(b), int(c)) for a, b, c in rng.integers(4, size=(left_rows, 3))]
    right_records = [((int(a), int(b)), int(c)) for a, b, c in rng.integers(4, size=(right_rows, 3))]
    left = ColumnarDataset.from_pairs(left_records, weights(left_rows))
    right = ColumnarDataset.from_pairs(right_records, weights(right_rows))
    left_key, right_key = {
        "permute-field": (Permute(0, 1), Field(0)),
        "functions": (lambda r: r[2], lambda r: r[1]),
        "function-permute": (lambda r: (r[2],), Permute(1)),
    }[shape]
    assert_join_matches(left, right, left_key, right_key)


def test_join_edge_shapes():
    two = lambda rows: ColumnarDataset(
        [np.array([r[0] for r in rows]), np.array([r[1] for r in rows])],
        np.array([r[2] for r in rows], dtype=np.float64),
        2,
    )
    hub = two([(2, i, 1.0 + i) for i in range(30)] + [(0, 0, -1.0), (5, 1, 2.0)])
    one_row = two([(2, 9, -4.0)])
    strangers = two([(7, 0, 1.0), (8, 0, 1.0), (9, 1, 1.0)])  # keys on one side only
    # Snapshot codes beside worker-namespace ones: each column spans ≈ 2⁴⁰.
    mixed = [3, worker_code(1, 0), worker_code(2, 1)]
    wide = two([(mixed[i % 3], mixed[i % 2], 0.5 + i) for i in range(12)])
    for left, right in [(hub, one_row), (one_row, hub), (hub, hub), (hub, strangers), (wide, wide)]:
        assert_join_matches(left, right, Field(0), Field(0))
        assert_join_matches(left, right, Permute(0, 1), Permute(0, 1))
        assert_join_matches(left, right, Permute(0, 1), Permute(1, 0))
        assert_join_matches(left, right, Permute(0, 0, 1), Permute(1, 0, 0))
    assert len(kernels.join(hub, strangers, Field(0), Field(0), JoinFields(("l", 0)))) == 0
    # Two wide key columns do not fit one word: the keys are numbered together.
    assert regime([np.concatenate([wide.columns[i]] * 2) for i in (0, 1)]) == "several words"


def rows_dataset(rows) -> ColumnarDataset:
    """A consolidated (code-ordered) dataset of ``(fields…, weight)`` rows."""
    *columns, weights = (np.array(column) for column in zip(*rows))
    return ColumnarDataset(
        [column.astype(np.int64) for column in columns], weights.astype(np.float64), len(columns)
    )


#: Weights whose sums depend on the order they are added in.
ORDER_SENSITIVE = [1e16, -1e16, 1.0, 0.1, -0.3, 3.0, 2.5]


def weighted_rows(fields, seed: int = 0):
    rng = np.random.default_rng(seed)
    return [(*row, float(rng.choice(ORDER_SENSITIVE))) for row in fields]


#: A left side in code order keyed on its second field, so not in key order.
UNSORTED_KEYS = rows_dataset(
    weighted_rows([(a, b) for a in range(6) for b in range(6) if (a * 7 + b * 3) % 4], seed=0)
)
#: Rows ``(a, b, c)`` stored in ``c``-major order: neither in code order nor,
#: for one ``a``, in key order on ``b``.
OUT_OF_ORDER = kernels.select(
    rows_dataset(
        weighted_rows([(c, a, b) for c in range(3) for a in range(3) for b in range(6) if (a + b + c) % 3], seed=4)
    ),
    Permute(1, 2, 0),
)
#: One row per key on field 0; key 5 is missing, so some left rows go unmatched.
ONE_PER_KEY = rows_dataset(weighted_rows([(k, 10 + k % 3) for k in range(5)], seed=2))
#: One row per key on field 0 and several on field 1.
SEVERAL_PER_KEY = rows_dataset(
    weighted_rows([(k, c) for k in range(6) for c in range(k % 4 + 1)], seed=3)
)


@pytest.mark.parametrize(
    "left, right, left_key, right_key, selector",
    [
        # One pair per row, left side in code order but not in key order.
        pytest.param(
            UNSORTED_KEYS, SEVERAL_PER_KEY, Field(1), Field(0),
            JoinFields(("l", 0), ("l", 1), ("r", 1)), id="length-two-path-shape",
        ),
        pytest.param(
            UNSORTED_KEYS, SEVERAL_PER_KEY, Field(1), Field(0),
            JoinFields(("r", 1), ("l", 1), ("l", 0)), id="right-field-first",
        ),
        # One right row per key: the degree lookup.
        pytest.param(
            UNSORTED_KEYS, ONE_PER_KEY, Field(1), Field(0),
            JoinFields(("l", 0), ("l", 1), ("r", 1)), id="one-right-row-some-left-unmatched",
        ),
        pytest.param(
            SEVERAL_PER_KEY, ONE_PER_KEY, Field(0), Field(0),
            JoinFields(("l", 0), ("l", 1), ("r", 1)), id="one-right-row-every-left-matched",
        ),
        # One row per key on both sides, on one field and on two.
        pytest.param(
            ONE_PER_KEY, ONE_PER_KEY, Field(0), Field(0),
            JoinFields(("l", 0), ("l", 1), ("r", 1)), id="one-row-per-key-both-sides",
        ),
        pytest.param(
            SEVERAL_PER_KEY, SEVERAL_PER_KEY, Permute(0, 1), Permute(0, 1),
            JoinFields(("l", 0), ("l", 1)), id="composite-one-row-per-key",
        ),
        pytest.param(
            UNSORTED_KEYS, UNSORTED_KEYS, Permute(1, 0), Permute(0, 1),
            JoinFields(("l", 0), ("l", 1)), id="composite-reversed-one-row-per-key",
        ),
        # Every left field: a dropped right field outside the key collides,
        # a dropped right key field does not.
        pytest.param(
            SEVERAL_PER_KEY, SEVERAL_PER_KEY, Field(1), Field(1),
            JoinFields(("l", 0), ("l", 1), ("r", 1)), id="right-non-key-field-dropped",
        ),
        pytest.param(
            SEVERAL_PER_KEY, SEVERAL_PER_KEY, Field(1), Field(1),
            JoinFields(("l", 0), ("l", 1), ("r", 0)), id="right-key-field-dropped",
        ),
        # Colliding picks: sums stay key-major.  Pairs of two left rows
        # collide only when the output drops the key, and add in another
        # order than the left's only when, for one output row, stored order
        # and key order disagree: the first two.
        pytest.param(
            OUT_OF_ORDER, SEVERAL_PER_KEY, Field(1), Field(1),
            JoinFields(("l", 0), ("r", 0)), id="ends-left-out-of-order",
        ),
        pytest.param(
            UNSORTED_KEYS, SEVERAL_PER_KEY, Field(1), Field(0),
            JoinFields(("r", 1)), id="right-field-only",
        ),
        pytest.param(
            OUT_OF_ORDER, SEVERAL_PER_KEY, Field(1), Field(0),
            JoinFields(("l", 0), ("l", 1), ("r", 1)), id="left-field-dropped-out-of-order",
        ),
        pytest.param(
            UNSORTED_KEYS, SEVERAL_PER_KEY, Field(1), Field(0),
            JoinFields(("l", 0), ("r", 0)), id="ends",
        ),
        pytest.param(
            UNSORTED_KEYS, ONE_PER_KEY, Field(1), Field(0),
            JoinFields(("l", 0), ("r", 0)), id="ends-one-right-row",
        ),
        pytest.param(
            UNSORTED_KEYS, SEVERAL_PER_KEY, Field(1), Field(0),
            JoinFields(("l", 0), ("r", 1)), id="left-key-dropped",
        ),
        pytest.param(
            SEVERAL_PER_KEY, UNSORTED_KEYS, Field(1), Field(1),
            JoinFields(("l", 0), ("r", 0)), id="ends-right-keyed-on-second-field",
        ),
    ],
)
def test_join_branches_are_the_replaced_join(left, right, left_key, right_key, selector):
    """Each order the join emits pairs in, against the five-sort join: same
    rows, same weights to the bit."""
    ours = kernels.join(left, right, left_key, right_key, selector)
    expected = reference_join(left, right, left_key, right_key, selector)
    assert expected is not None
    assert_same_rows(ours, *expected)


def test_left_order_joins_consolidate_without_a_sort(monkeypatch):
    """The length-two-path join and the degree lookup emit their rows in
    code order, so building their outputs sorts nothing.  Counted, not timed:
    every ``np.sort`` / ``np.lexsort`` call made inside ``consolidate``."""
    edges = ColumnarDataset.from_weighted(
        WeightedDataset.from_records(social_graph(300, 4, rng=5).to_edge_records(symmetric=True))
    )
    paths = kernels.where(
        kernels.join(edges, edges, Field(1), Field(0), JoinFields(("l", 0), ("l", 1), ("r", 1))),
        FieldsDiffer(0, 2),
    )
    degrees = kernels.group_by(edges, Field(0), GroupSize())
    joins = [
        (edges, edges, JoinFields(("l", 0), ("l", 1), ("r", 1))),
        (paths, degrees, JoinFields(("l", 0), ("l", 1), ("l", 2), ("r", 1))),
    ]
    sorts, inside = [], []
    for name in ("sort", "lexsort"):
        real = getattr(np, name)

        def counted(*args, _real=real, _name=name, **kwargs):
            if inside:
                sorts.append(_name)
            return _real(*args, **kwargs)

        monkeypatch.setattr(np, name, counted)
    real_consolidate = dataset_module.consolidate

    def consolidate_counted(*args, **kwargs):
        inside.append(True)
        try:
            return real_consolidate(*args, **kwargs)
        finally:
            inside.pop()

    monkeypatch.setattr(dataset_module, "consolidate", consolidate_counted)
    for left, right, selector in joins:
        ours = kernels.join(left, right, Field(1), Field(0), selector)
        assert len(ours) > len(left) / 2
        assert sorts == []
        expected = reference_join(left, right, Field(1), Field(0), selector)
        assert_same_rows(ours, *expected)
    # The count sees a sort where there is one: the same rows shuffled.
    shuffle = np.random.default_rng(0).permutation(len(edges))
    ColumnarDataset([column[shuffle] for column in edges.columns], edges.weights[shuffle], 2)
    assert sorts


# ----------------------------------------------------------------------
# (c) intersect
# ----------------------------------------------------------------------
INTERSECT_POOLS = ["small", "negative", "worker"]
#: Records of two layouts that can still share rows once both are opaque.
MIXED_RECORDS = [0, 1, "a", (0, 1), (1, 1)]
PAIR_RECORDS = [(0, 1), (1, 1), (1, 0), (2, 1)]


@st.composite
def intersect_sides(draw):
    """Two datasets over one candidate row pool, so that they share rows:
    consolidated (hence presorted) or ``Permute``-d out of order, possibly
    empty, with weights of both signs; code-level rows whose pools may force
    several words, or records of two layouts that align as opaque codes."""
    rng = np.random.default_rng(draw(st.integers(0, 10**6)))
    weights = lambda rows: rng.choice([-2.0, -0.3, 0.1, 0.7, 1.0, 3.0], size=rows)
    if draw(st.booleans()):
        pools = draw(st.lists(st.sampled_from(INTERSECT_POOLS), min_size=1, max_size=3))
        candidates = draw_columns(pools, 30, int(rng.integers(2**32)))

        def side():
            pick = rng.integers(30, size=draw(st.integers(0, 40)))
            dataset = ColumnarDataset(
                [column[pick] for column in candidates], weights(pick.shape[0]), len(pools)
            )
            if draw(st.booleans()):
                dataset = kernels.select(dataset, Permute(*draw(st.permutations(range(len(pools))))))
            return dataset

        return side(), side()

    def side(pool):
        records = [pool[i] for i in rng.integers(len(pool), size=draw(st.integers(0, 12)))]
        dataset = ColumnarDataset.from_pairs(records, weights(len(records)))
        if dataset.arity == 2 and draw(st.booleans()):
            dataset = kernels.select(dataset, Permute(1, 0))
        return dataset

    return side(MIXED_RECORDS), side(PAIR_RECORDS)


def assert_intersect_matches(left, right):
    for first, second in ((left, right), (right, left)):
        ours = kernels.intersect(first, second)
        columns, weights, arity = reference_intersect(first, second)
        assert ours.arity == arity
        assert_same_rows(ours, columns, weights)


@given(sides=intersect_sides())
@settings(deadline=None, max_examples=300)
def test_intersect_is_the_replaced_union_then_min(sides):
    assert_intersect_matches(*sides)


def test_intersect_edge_shapes():
    two = lambda rows: ColumnarDataset(
        [np.array([r[0] for r in rows]), np.array([r[1] for r in rows])],
        np.array([r[2] for r in rows], dtype=np.float64),
        2,
    )
    mixed = [3, worker_code(1, 0), worker_code(2, 1)]
    wide = two([(mixed[i % 3], mixed[i % 2], 0.5 - i % 4) for i in range(12)])
    # Two wide columns do not fit one word: the sides' rows are numbered together.
    assert regime([np.concatenate([wide.columns[i]] * 2) for i in (0, 1)]) == "several words"
    negative = two([(0, 1, -1.0), (1, 0, 2.0), (2, 2, -0.5)])
    empty = ColumnarDataset.empty(arity=2)
    for left, right in [
        (wide, wide),
        (wide, kernels.select(wide, Permute(1, 0))),
        (negative, empty),  # the negative rows, min(w, 0) = w, and nothing else
        (empty, empty),
        (negative, kernels.select(negative, Permute(1, 0))),
    ]:
        assert_intersect_matches(left, right)
    assert kernels.intersect(negative, empty).weights.tolist() == [-1.0, -0.5]


# ----------------------------------------------------------------------
# (d) pinned releases
# ----------------------------------------------------------------------
PINNED = json.loads(
    (Path(__file__).parent / "data" / "analyst_batch_releases.json").read_text()
)


@pytest.mark.parametrize(
    "executor",
    [
        "vectorized",
        lambda environment: ShardedExecutor(environment, shards=2, pool=None, min_rows=0),
    ],
    ids=["vectorized", "sharded-inline"],
)
def test_analyst_batch_releases_are_pinned_to_the_bit(executor):
    """The five ``analyst_batch`` queries over ``social_graph(300, 4, rng=5)``
    at seed 7, ε = 0.1, as ``float.hex`` recorded at PR 18's commit (lexsort
    ``row_groups``, five-sort join).  A kernel change that reorders one float
    sum moves a last digit here.  Row order — hence summation order — follows
    interner code order, so the batch runs against a fresh interner."""
    results = analyst_batch(social_graph(300, 4, rng=5), seed=7, executor=executor)
    assert list(PINNED) == ["degree-ccdf", "wedges", "tbi", "jdd", "tbd"]
    for name, result in zip(PINNED, results):
        assert result == PINNED[name], name


def analyst_batch(graph, seed, executor):
    """The five ``analyst_batch`` releases at ε = 0.1 against a fresh
    interner (row order, hence summation order, follows code order), each as
    ``[repr(record), float.hex(value)]`` rows."""
    with use_interner(Interner()):
        session = PrivacySession(seed=seed, executor=executor)
        protected = protect_graph(session, graph, total_epsilon=float("inf"))
        results = session.measure(
            (analyses.degree_ccdf_query(protected), 0.1, "degree-ccdf"),
            (analyses.wedges_query(protected), 0.1, "wedges"),
            (analyses.triangles_by_intersect_query(protected), 0.1, "tbi"),
            (analyses.joint_degree_query(protected), 0.1, "jdd"),
            (analyses.triangles_by_degree_query(protected), 0.1, "tbd"),
        )
    return [[[repr(record), value.hex()] for record, value in result.items()] for result in results]


def test_analyst_batch_at_full_shape_is_pinned_to_the_bit():
    """The same five queries at the benchmark's own shape,
    ``social_graph(1500, 4, rng=1)`` at seed 1 on the vectorized executor, so
    the 225 k-row join, intersect and merge branches are held to the bit too.
    The digest is the sha256 of the JSON of the five releases, recorded
    before the join emitted pairs in left order (graph seeds 2–6 agreed
    there as well)."""
    results = analyst_batch(social_graph(1500, 4, rng=1), seed=1, executor="vectorized")
    assert [len(result) for result in results] == [146, 1, 1, 1424, 1464]
    digest = hashlib.sha256(json.dumps(results).encode()).hexdigest()
    assert digest == "20a2e98119795b6dd94045e14156ac2c4dddc424ee12fd5c09a845655cc4bbb9"
