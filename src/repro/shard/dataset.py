"""Key-range partitioning of columnar data and cross-shard merge kernels.

**Partitioning.**  :meth:`ShardedColumnarDataset.partition` splits a
:class:`~repro.columnar.dataset.ColumnarDataset` into contiguous row
ranges.  Rows of a consolidated dataset are in lexicographic code order, so
contiguous ranges *are* key ranges over the leading column — the classic
hash/range partition of a sorted table — and the shards are disjoint by
construction (each record's entire weight lives in exactly one shard).

**Merging.**  Two merge kernels with different exactness contracts:

* :func:`concat_merge` — plain shard-order concatenation for
  *record-disjoint* shard outputs.  Each output record came wholly from
  one shard, so no weight arithmetic happens at the merge and the result
  is bit-identical to the unsharded kernel — including row order, because
  shard-order concatenation of range-partitioned inputs reproduces the
  flat kernel's input traversal order exactly.
* :func:`sum_merge` — group-by/bincount accumulation for *overlapping*
  shard outputs (a non-injective Select can map rows of different shards
  onto one record).  Per-record weights are the sum of per-shard partial
  sums; the flat kernel sums the same contributions in one sequence.
  Regrouping a float sum can change the result by an ulp, so this merge
  is bit-exact precisely when every partial sum is exactly representable
  — integers and dyadic rationals, which covers wPINQ's protected data
  model (unit-weight records, halving SelectMany rescalings, power-of-two
  DownScale factors) — and within rounding error (≤ a few ulp) otherwise.
  A second caveat inherited from consolidation: per-shard results drop
  sub-tolerance dust *before* the cross-shard sum, so weights within
  ``tolerance`` of zero may differ from the flat kernel's
  drop-after-summing.  Exact-weight workloads are unaffected (their dust
  is exactly zero on both paths).

Which operators may run under which merge is the shardability analysis in
:mod:`repro.shard.executor`; these kernels only implement the merges.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from ..columnar.dataset import ColumnarDataset, consolidate

__all__ = ["ShardedColumnarDataset", "partition_ranges", "concat_merge", "sum_merge"]


def partition_ranges(rows: int, shards: int) -> list[tuple[int, int]]:
    """Split ``rows`` into ``shards`` contiguous, near-equal ranges.

    Deterministic and independent of the data: range ``i`` gets
    ``rows // shards`` rows plus one of the remainder, in order.  Empty
    ranges are allowed (more shards than rows) so shard count stays stable.
    """
    if shards < 1:
        raise ValueError("shards must be a positive integer")
    base, remainder = divmod(rows, shards)
    ranges = []
    start = 0
    for index in range(shards):
        stop = start + base + (1 if index < remainder else 0)
        ranges.append((start, stop))
        start = stop
    return ranges


class ShardedColumnarDataset:
    """A columnar dataset split into contiguous key-range shards."""

    __slots__ = ("shards", "source")

    def __init__(
        self, shards: Sequence[ColumnarDataset], source: ColumnarDataset | None = None
    ) -> None:
        self.shards = tuple(shards)
        if not self.shards:
            raise ValueError("at least one shard is required")
        #: The unsharded original, kept for fallback paths (optional).
        self.source = source

    @classmethod
    def partition(
        cls, dataset: ColumnarDataset, shards: int
    ) -> "ShardedColumnarDataset":
        """Range-partition ``dataset`` into ``shards`` slices (zero-copy)."""
        ranges = partition_ranges(len(dataset), shards)
        parts = []
        for start, stop in ranges:
            parts.append(
                ColumnarDataset(
                    tuple(column[start:stop] for column in dataset.columns),
                    dataset.weights[start:stop],
                    dataset.arity,
                    dataset.tolerance,
                    assume_unique=True,
                )
            )
        return cls(parts, source=dataset)

    @property
    def shard_count(self) -> int:
        return len(self.shards)

    def __len__(self) -> int:
        return sum(len(shard) for shard in self.shards)

    def total_weight(self) -> float:
        return sum(shard.total_weight() for shard in self.shards)

    def merge(self, disjoint: bool) -> ColumnarDataset:
        """Reassemble: :func:`concat_merge` or :func:`sum_merge` by contract."""
        return concat_merge(self.shards) if disjoint else sum_merge(self.shards)

    def __repr__(self) -> str:
        return (
            f"ShardedColumnarDataset(shards={self.shard_count}, rows={len(self)})"
        )


def _live_shards(shards: Sequence[ColumnarDataset]) -> list[ColumnarDataset]:
    """Drop empty shard outputs (they carry no rows but may carry a
    degenerate layout — an empty ``from_pairs`` result is opaque even when
    the flat kernel's non-empty output is decomposed).  Order is preserved,
    so concat merges stay order-identical."""
    live = [shard for shard in shards if not shard.is_empty()]
    return live if live else [shards[0]]


def _common_layout(shards: Sequence[ColumnarDataset]) -> tuple[int | None, float]:
    arities = {shard.arity for shard in shards}
    if len(arities) != 1:
        # Mixed layouts (one shard produced tuples, another scalars, or an
        # empty shard defaulted differently): unify on whole-record codes.
        return None, shards[0].tolerance
    return arities.pop(), shards[0].tolerance


def _stacked(
    shards: Sequence[ColumnarDataset], arity: int | None
) -> tuple[list[np.ndarray], np.ndarray]:
    if arity is None:
        columns = [np.concatenate([shard.record_codes() for shard in shards])]
    else:
        columns = [
            np.concatenate([shard.columns[index] for shard in shards])
            for index in range(arity)
        ]
    weights = np.concatenate([shard.weights for shard in shards])
    return columns, weights


def concat_merge(shards: Iterable[ColumnarDataset]) -> ColumnarDataset:
    """Merge record-disjoint shard outputs by shard-order concatenation.

    No weight arithmetic, no re-sort: bit-identical to the flat kernel in
    both values and row order (see the module docstring for why the caller
    must guarantee disjointness).
    """
    shards = _live_shards(list(shards))
    arity, tolerance = _common_layout(shards)
    columns, weights = _stacked(shards, arity)
    return ColumnarDataset(columns, weights, arity, tolerance, assume_unique=True)


def sum_merge(shards: Iterable[ColumnarDataset]) -> ColumnarDataset:
    """Merge overlapping shard outputs by summing per-record partial weights.

    Shard-order concatenation followed by one consolidation pass: equal rows
    group via ``row_groups`` (a stable sort of the packed rows) and their
    weights accumulate in shard order via ``np.bincount`` — the primitive the
    flat kernels consolidate with, so row order and grouping match theirs.
    """
    shards = _live_shards(list(shards))
    arity, tolerance = _common_layout(shards)
    columns, weights = _stacked(shards, arity)
    columns, weights = consolidate(columns, weights, tolerance)
    return ColumnarDataset(columns, weights, arity, tolerance, assume_unique=True)
