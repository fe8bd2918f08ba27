"""Property-based guarantees of the columnar kernels.

Two properties, each checked on hypothesis-generated datasets for every
transformation:

* **Equivalence** — the columnar kernel produces the same weighted output as
  the eager implementation in :mod:`repro.core.transformations`, within
  ``DEFAULT_TOLERANCE``-scale floating-point slack.
* **Stability** (Definition 2) — ``‖T(A) − T(A')‖ ≤ ‖A − A'‖`` (unary) and
  ``‖T(A,B) − T(A',B')‖ ≤ ‖A − A'‖ + ‖B − B'‖`` (binary) hold for the
  *kernel* outputs themselves, so the vectorized backend preserves the
  privacy guarantee independently, not merely by agreeing with eager.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.columnar import ColumnarDataset, Field, JoinFields, Permute, kernels
from repro.core import WeightedDataset
from repro.core import transformations as xf

from strategies import records, weighted_datasets, weights

TOLERANCE = 1e-7


def encode(dataset: WeightedDataset) -> ColumnarDataset:
    return ColumnarDataset.from_weighted(dataset)


#: name -> (kernel over ColumnarDataset, eager over WeightedDataset).
UNARY = {
    "select": (
        lambda d: kernels.select(d, lambda x: hash(x) % 3),
        lambda d: xf.select(d, lambda x: hash(x) % 3),
    ),
    "where": (
        lambda d: kernels.where(d, lambda x: hash(x) % 2 == 0),
        lambda d: xf.where(d, lambda x: hash(x) % 2 == 0),
    ),
    "select_many": (
        lambda d: kernels.select_many(
            d, lambda x: [f"{x}-{i}" for i in range(1 + hash(x) % 4)]
        ),
        lambda d: xf.select_many(
            d, lambda x: [f"{x}-{i}" for i in range(1 + hash(x) % 4)]
        ),
    ),
    "group_by": (
        lambda d: kernels.group_by(d, lambda x: hash(x) % 2, reducer=len),
        lambda d: xf.group_by(d, lambda x: hash(x) % 2, reducer=len),
    ),
    "shave": (
        lambda d: kernels.shave(d, 0.75),
        lambda d: xf.shave(d, 0.75),
    ),
    "distinct": (
        lambda d: kernels.distinct(d, 1.0),
        lambda d: xf.distinct(d, 1.0),
    ),
    "down_scale": (
        lambda d: kernels.down_scale(d, 0.5),
        lambda d: xf.down_scale(d, 0.5),
    ),
}

def structural_join(left_key, right_key, selector):
    return (
        lambda a, b: kernels.join(a, b, left_key, right_key, selector),
        lambda a, b: xf.join(a, b, left_key, right_key, selector),
    )


BINARY = {
    "union": (kernels.union, xf.union),
    "intersect": (kernels.intersect, xf.intersect),
    "concat": (kernels.concat, xf.concat),
    "except_": (kernels.except_, xf.except_),
    "join": (
        lambda a, b: kernels.join(a, b, lambda x: hash(x) % 3, lambda x: hash(x) % 3),
        lambda a, b: xf.join(a, b, lambda x: hash(x) % 3, lambda x: hash(x) % 3),
    ),
    # Structural keys over triples take the join's array path.  The first
    # selector of each pair gives every pair a row of its own (pairs come out
    # in left order); the second makes pairs collide (key-major sums).
    "join-field-one-pair-per-row": structural_join(
        Field(1), Field(1), JoinFields(("l", 0), ("l", 1), ("l", 2), ("r", 0), ("r", 2))
    ),
    "join-field-colliding": structural_join(
        Field(1), Field(1), JoinFields(("l", 0), ("r", 0))
    ),
    "join-permute-one-pair-per-row": structural_join(
        Permute(1, 2), Permute(2, 1), JoinFields(("l", 0), ("l", 1), ("l", 2), ("r", 0))
    ),
    "join-permute-colliding": structural_join(
        Permute(1, 2), Permute(2, 1), JoinFields(("r", 0), ("l", 1))
    ),
}


def triple_datasets():
    """Datasets of ``(record, 0‥2, 0‥1)`` triples, so join keys collide."""
    rows = st.tuples(records(), st.integers(0, 2), st.integers(0, 1))
    return st.dictionaries(rows, weights(), max_size=8).map(WeightedDataset)


def binary_inputs(name: str):
    """What a binary kernel is drawn over: triples for a structural join."""
    return triple_datasets() if name.startswith("join-") else weighted_datasets()


# ----------------------------------------------------------------------
# Equivalence with the eager implementations
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", sorted(UNARY))
@given(a=weighted_datasets())
@settings(deadline=None, max_examples=40)
def test_unary_kernel_matches_eager(name, a):
    kernel, eager = UNARY[name]
    assert kernel(encode(a)).to_weighted().distance(eager(a)) <= TOLERANCE


@pytest.mark.parametrize("name", sorted(BINARY))
@given(data=st.data())
@settings(deadline=None, max_examples=40)
def test_binary_kernel_matches_eager(name, data):
    kernel, eager = BINARY[name]
    a, b = data.draw(binary_inputs(name)), data.draw(binary_inputs(name))
    assert kernel(encode(a), encode(b)).to_weighted().distance(eager(a, b)) <= TOLERANCE


# ----------------------------------------------------------------------
# Definition-2 stability of the kernels themselves
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", sorted(UNARY))
@given(a=weighted_datasets(), a_prime=weighted_datasets())
@settings(deadline=None, max_examples=40)
def test_unary_kernel_is_stable(name, a, a_prime):
    kernel, _ = UNARY[name]
    distance_in = a.distance(a_prime)
    distance_out = (
        kernel(encode(a)).to_weighted().distance(kernel(encode(a_prime)).to_weighted())
    )
    assert distance_out <= distance_in + TOLERANCE


@pytest.mark.parametrize("name", sorted(BINARY))
@given(data=st.data())
@settings(deadline=None, max_examples=40)
def test_binary_kernel_is_stable(name, data):
    kernel, _ = BINARY[name]
    a, a_prime, b, b_prime = (data.draw(binary_inputs(name)) for _ in range(4))
    distance_in = a.distance(a_prime) + b.distance(b_prime)
    distance_out = (
        kernel(encode(a), encode(b))
        .to_weighted()
        .distance(kernel(encode(a_prime), encode(b_prime)).to_weighted())
    )
    assert distance_out <= distance_in + TOLERANCE


# ----------------------------------------------------------------------
# Composite join keys: multi-field ``Permute`` specs on decomposed datasets
# ----------------------------------------------------------------------
def tuple_datasets(arity: int):
    """Datasets of ``arity``-tuples over a small atom pool (keys collide)."""
    rows = st.tuples(*[records()] * arity)
    return st.dictionaries(rows, weights(), max_size=10).map(WeightedDataset)


@st.composite
def composite_joins(draw):
    """Two decomposed datasets and a same-width ``Permute`` key for each."""
    left_arity = draw(st.integers(1, 4))
    right_arity = draw(st.integers(1, 4))
    width = draw(st.integers(1, min(left_arity, right_arity)))
    pick = lambda arity: Permute(
        *draw(st.lists(st.integers(0, arity - 1), min_size=width, max_size=width))
    )
    return (
        draw(tuple_datasets(left_arity)),
        draw(tuple_datasets(right_arity)),
        pick(left_arity),
        pick(right_arity),
    )


@given(case=composite_joins())
@settings(deadline=None, max_examples=150)
def test_composite_key_join_matches_eager_and_generic_path(case):
    a, b, left_key, right_key = case
    left, right = encode(a), encode(b)
    everything = JoinFields(
        *[("l", i) for i in range(left.arity or 1)],
        *[("r", i) for i in range(right.arity or 1)],
    )
    if left.arity is None or right.arity is None:  # an empty side is opaque
        everything = lambda x, y: (x, y)
    columnar = kernels.join(left, right, left_key, right_key, everything)
    eager = xf.join(a, b, left_key, right_key, everything)
    assert set(columnar.to_weighted().records()) == set(eager.records())
    assert columnar.to_weighted().distance(eager) <= 1e-9
    # Plain functions with the keys' semantics take the per-record key path of
    # the same kernel.  No two pairs share an output record here, so nothing
    # depends on the order keys are numbered in: the two agree bit for bit.
    generic = kernels.join(
        left, right, lambda r: left_key(r), lambda r: right_key(r), everything
    )
    assert columnar.to_weighted().to_dict() == generic.to_weighted().to_dict()
    # A selector that drops fields makes pairs collide; still the eager answer.
    ends = JoinFields(("l", 0), ("r", 0))
    if left.arity is not None and right.arity is not None:
        projected = kernels.join(left, right, left_key, right_key, ends)
        assert projected.to_weighted().distance(
            xf.join(a, b, left_key, right_key, ends)
        ) <= 1e-9


def test_permute_key_facing_another_key_shape_takes_the_generic_path():
    """Group numbers are not interner codes: a lone ``Permute`` is called."""
    a = WeightedDataset({(1, 2): 1.0, (2, 3): 2.0, (1, 3): 0.5})
    b = WeightedDataset({((1, 2), "x"): 1.0, ((9, 9), "y"): 1.0})
    first = lambda record: record[0]
    columnar = kernels.join(encode(a), encode(b), Permute(0, 1), first)
    assert columnar.to_weighted().distance(xf.join(a, b, Permute(0, 1), first)) <= 1e-9
    assert len(columnar) == 1
