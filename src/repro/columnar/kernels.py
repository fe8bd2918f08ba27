"""Vectorized kernels for every stable transformation.

Each function here mirrors one transformation in
:mod:`repro.core.transformations`, taking and returning
:class:`~repro.columnar.dataset.ColumnarDataset` values with *identical*
weighted-output semantics (the property-based test suite checks agreement
within ``DEFAULT_TOLERANCE`` and Definition-2 stability for every kernel).

Two execution strategies coexist in every kernel that is parameterised by a
record function:

* a **fast path** used when the function is a recognised
  :mod:`~repro.columnar.specs` spec and the dataset is decomposed into field
  columns — pure array work (``row_groups`` merges on one packed word per
  row, ``np.bincount`` group sums, fancy-indexed joins keyed on one field or
  on several at once, at most one sort per side), no per-record Python;
* a **generic path** that materialises the record objects once and calls the
  user function per record (or per joined pair), matching what the eager
  backend would do while still vectorizing the weight arithmetic and the
  final collision accumulation.

The join kernel is the reason this backend exists: the per-key Cartesian
pairing, the ``‖A_k‖ + ‖B_k‖`` denominators and the output weights are all
computed with array operations, so the length-two-path self-join at the heart
of the paper's subgraph queries runs at NumPy speed.  A selector that gives
every pair a row of its own (it keeps every left field and every right field
outside the key) has nothing to add, so its pairs come out in the left side's
stored order: the path join and TbD's degree lookup then produce rows already
in code order, which the consolidation checks and does not sort.  Pairs that
can collide come out by ascending key, left-major, so their weights add in the
order they always have.

The binary set operators align rows on the same packed words.  ``Union``,
``Concat`` and ``Except`` keep every row of either side, so they merge the two
in one sort (:func:`_merge_sides`); ``Intersect`` keeps only the rows both
sides hold and one side's negative rows, so it probes one side's words in the
other's and merges just those.  The shared merge sorts nothing that is
already in order and sums nothing that is already distinct.
"""

from __future__ import annotations

from typing import Any, Callable, NamedTuple, Sequence

import numpy as np

from ..core import transformations as xf
from ..core.transformations import _weight_sequence, normalize_weighted_output
from .dataset import ColumnarDataset, pack_rows, row_groups, sorted_runs
from .interning import global_interner
from .specs import (
    Constant,
    ExplodeFields,
    Field,
    FieldIs,
    FieldsDiffer,
    GroupSize,
    JoinFields,
    Permute,
)

__all__ = [
    "select",
    "where",
    "select_many",
    "group_by",
    "shave",
    "join",
    "union",
    "intersect",
    "concat",
    "except_",
    "distinct",
    "down_scale",
]


# ----------------------------------------------------------------------
# Layout alignment for binary operators
# ----------------------------------------------------------------------
def _aligned(
    left: ColumnarDataset, right: ColumnarDataset
) -> tuple[ColumnarDataset, ColumnarDataset]:
    """Bring two datasets onto one layout so their rows can be merged."""
    if left.arity == right.arity:
        return left, right
    if left.is_empty():
        return ColumnarDataset.empty(left.tolerance, right.arity), right
    if right.is_empty():
        return left, ColumnarDataset.empty(right.tolerance, left.arity)
    return left.as_opaque(), right.as_opaque()


def _merge_sides(
    left: ColumnarDataset, right: ColumnarDataset
) -> tuple[tuple[np.ndarray, ...], np.ndarray, np.ndarray, int | None]:
    """Outer-align the rows of two datasets.

    Returns the unique rows of the union of supports plus each side's weight
    vector over those rows (zero where a side lacks the record — exactly the
    ``A(x) = 0`` convention of the eager operators): one :func:`row_groups`
    sort of the stacked rows, the left's being those from before ``len(left)``.
    """
    left, right = _aligned(left, right)
    columns = tuple(
        np.concatenate([lcol, rcol])
        for lcol, rcol in zip(left.columns, right.columns)
    )
    order, group, representatives = row_groups(columns)
    stacked = np.concatenate([left.weights, right.weights])[order]
    from_left = order < len(left)
    left_weights = np.bincount(group, weights=np.where(from_left, stacked, 0.0))
    right_weights = np.bincount(group, weights=np.where(from_left, 0.0, stacked))
    rows = order[representatives]
    columns = tuple(column[rows] for column in columns)
    return columns, left_weights, right_weights, left.arity


# ----------------------------------------------------------------------
# Per-record transformations
# ----------------------------------------------------------------------
def select(dataset: ColumnarDataset, mapper: Callable[[Any], Any]) -> ColumnarDataset:
    """``Select(A, f)(x) = Σ_{y : f(y) = x} A(y)`` (see ``xf.select``)."""
    if dataset.decomposed:
        arity = dataset.arity
        if isinstance(mapper, Permute) and all(i < arity for i in mapper.indices):
            columns = tuple(dataset.columns[i] for i in mapper.indices)
            return ColumnarDataset(
                columns,
                dataset.weights,
                len(mapper.indices),
                dataset.tolerance,
                assume_unique=mapper.is_permutation_of(arity),
            )
        if isinstance(mapper, Field) and mapper.index < arity:
            return ColumnarDataset(
                (dataset.columns[mapper.index],),
                dataset.weights,
                None,
                dataset.tolerance,
            )
    if isinstance(mapper, Constant):
        total = float(dataset.weights.sum())
        code = global_interner().code(mapper.value)
        return ColumnarDataset(
            (np.array([code], dtype=np.int64),),
            np.array([total], dtype=np.float64),
            None,
            dataset.tolerance,
            assume_unique=True,
        )
    mapped = [mapper(record) for record in dataset.records()]
    return ColumnarDataset.from_pairs(mapped, dataset.weights, dataset.tolerance)


def where(
    dataset: ColumnarDataset, predicate: Callable[[Any], bool]
) -> ColumnarDataset:
    """``Where(A, p)(x) = p(x) · A(x)`` (see ``xf.where``)."""
    mask: np.ndarray | None = None
    if dataset.decomposed:
        arity = dataset.arity
        if (
            isinstance(predicate, FieldsDiffer)
            and predicate.first < arity
            and predicate.second < arity
        ):
            mask = dataset.columns[predicate.first] != dataset.columns[predicate.second]
        elif isinstance(predicate, FieldIs) and predicate.index < arity:
            try:
                code = global_interner().code(predicate.value)
            except TypeError:
                # Unhashable comparison value: the eager semantics (== per
                # record) still apply, so fall through to the generic path.
                code = None
            if code is not None:
                mask = dataset.columns[predicate.index] == code
    if mask is None:
        mask = np.fromiter(
            (bool(predicate(record)) for record in dataset.records()),
            dtype=bool,
            count=len(dataset),
        )
    return ColumnarDataset(
        tuple(column[mask] for column in dataset.columns),
        dataset.weights[mask],
        dataset.arity,
        dataset.tolerance,
        assume_unique=True,
    )


def distinct(dataset: ColumnarDataset, cap: float = 1.0) -> ColumnarDataset:
    """``Distinct(A, c)(x) = min(A(x), c)`` (see ``xf.distinct``)."""
    cap = float(cap)
    if cap <= 0:
        raise ValueError("Distinct cap must be positive")
    weights = np.minimum(dataset.weights, cap)
    return ColumnarDataset(
        dataset.columns, weights, dataset.arity, dataset.tolerance, assume_unique=True
    )


def down_scale(dataset: ColumnarDataset, factor: float) -> ColumnarDataset:
    """``DownScale(A, s)(x) = s · A(x)`` with ``0 < s ≤ 1`` (see ``xf.down_scale``)."""
    factor = float(factor)
    if not 0.0 < factor <= 1.0:
        raise ValueError("DownScale factor must satisfy 0 < factor <= 1")
    return ColumnarDataset(
        dataset.columns,
        dataset.weights * factor,
        dataset.arity,
        dataset.tolerance,
        assume_unique=True,
    )


def select_many(
    dataset: ColumnarDataset, mapper: Callable[[Any], Any]
) -> ColumnarDataset:
    """``SelectMany(A, f) = Σ_x A(x) · f(x) / max(1, ‖f(x)‖)`` (see ``xf.select_many``)."""
    if (
        isinstance(mapper, ExplodeFields)
        and dataset.decomposed
        and not dataset.is_empty()
    ):
        width = dataset.arity
        scale = 1.0 / max(1.0, float(width))
        codes = np.concatenate(dataset.columns)
        weights = np.tile(dataset.weights * scale, width)
        return ColumnarDataset((codes,), weights, None, dataset.tolerance)
    out_records: list[Any] = []
    out_weights: list[float] = []
    for record, weight in zip(dataset.records(), dataset.weights.tolist()):
        produced = normalize_weighted_output(mapper(record))
        produced_norm = sum(abs(w) for _, w in produced)
        scale = weight / max(1.0, produced_norm)
        for out_record, out_weight in produced:
            out_records.append(out_record)
            out_weights.append(out_weight * scale)
    return ColumnarDataset.from_pairs(out_records, out_weights, dataset.tolerance)


# ----------------------------------------------------------------------
# GroupBy
# ----------------------------------------------------------------------
def group_by(
    dataset: ColumnarDataset,
    key: Callable[[Any], Any],
    reducer: Callable[[Sequence[Any]], Any] = tuple,
) -> ColumnarDataset:
    """Keyed grouping via the weighted-prefix construction (see ``xf.group_by``).

    A ``Field`` key with a ``GroupSize`` reducer — the ``(vertex, degree)``
    dataset every subgraph query starts from — is array work
    (:func:`_group_sizes`).  In general the prefix emission is record-level
    (it calls the reducer per prefix and orders ties by ``repr``), so any
    other key or reducer partitions in Python and reuses
    ``xf.group_prefixes`` verbatim for exact eager agreement; only the final
    collision accumulation is vectorized.
    """
    if (
        isinstance(key, Field)
        and isinstance(reducer, GroupSize)
        and dataset.decomposed
        and key.index < dataset.arity
        and not dataset.is_empty()
    ):
        return _group_sizes(dataset, dataset.columns[key.index], reducer.bucket)
    parts: dict[Any, dict[Any, float]] = {}
    for record, weight in zip(dataset.records(), dataset.weights.tolist()):
        parts.setdefault(key(record), {})[record] = weight
    out_records: list[Any] = []
    out_weights: list[float] = []
    for part_key, part in parts.items():
        for members, weight in xf.group_prefixes(part):  # duck-typed: dict.items()
            out_records.append((part_key, reducer(list(members))))
            out_weights.append(weight)
    return ColumnarDataset.from_pairs(out_records, out_weights, dataset.tolerance)


def _group_sizes(
    dataset: ColumnarDataset, key_codes: np.ndarray, bucket: int
) -> ColumnarDataset:
    """``(key, prefix size // bucket)`` records of a size-reduced GroupBy.

    Rows are sorted by key and then by non-increasing weight; row ``j`` of a
    key's run closes the prefix of its ``j + 1`` heaviest records, emitted at
    ``(w_j − w_{j+1}) / 2`` unless that is zero.  The reducer sees only the
    prefix length, which equal weights cannot change, so the ``repr``
    tie-break of ``xf.group_prefixes`` is not needed.
    """
    order = np.lexsort((-dataset.weights, key_codes))
    keys = key_codes[order]
    weights = dataset.weights[order]
    count = keys.shape[0]
    starts = np.ones(count, dtype=bool)
    np.not_equal(keys[1:], keys[:-1], out=starts[1:])
    following = np.append(np.where(starts[1:], 0.0, weights[1:]), 0.0)
    prefix_weights = (weights - following) / 2.0
    sizes = np.arange(count) - np.flatnonzero(starts)[np.cumsum(starts) - 1] + 1
    if bucket > 1:
        sizes //= bucket
    emitted = prefix_weights != 0.0
    distinct_sizes, size_index = np.unique(sizes[emitted], return_inverse=True)
    size_codes = global_interner().codes(distinct_sizes.tolist())
    return ColumnarDataset(
        (keys[emitted], size_codes[size_index]),
        prefix_weights[emitted],
        2,
        dataset.tolerance,
    )


# ----------------------------------------------------------------------
# Shave
# ----------------------------------------------------------------------
def shave(dataset: ColumnarDataset, slice_weights: Any = 1.0) -> ColumnarDataset:
    """Break heavy records into indexed slices (see ``xf.shave``)."""
    tolerance = dataset.tolerance
    constant = (
        isinstance(slice_weights, (int, float))
        and not isinstance(slice_weights, bool)
    )
    if constant:
        slice_weight = float(slice_weights)
        if slice_weight <= 0:
            raise ValueError("Shave slice weight must be positive")
        weights = dataset.weights
        positive = weights > 0
        if not positive.any():
            return ColumnarDataset.empty(tolerance, arity=2)
        weights = weights[positive]
        record_codes = dataset.record_codes()[positive]
        counts = np.ceil((weights - tolerance) / slice_weight).astype(np.int64)
        counts = np.maximum(counts, 0)
        emitting = counts > 0
        weights, record_codes, counts = (
            weights[emitting],
            record_codes[emitting],
            counts[emitting],
        )
        total = int(counts.sum())
        if total == 0:
            return ColumnarDataset.empty(tolerance, arity=2)
        row = np.repeat(np.arange(counts.shape[0]), counts)
        offsets = np.concatenate(([0], np.cumsum(counts)[:-1]))
        slice_index = np.arange(total) - offsets[row]
        out_weights = np.full(total, slice_weight, dtype=np.float64)
        last = offsets + counts - 1
        out_weights[last] = weights - (counts - 1) * slice_weight
        interner = global_interner()
        index_codes = interner.codes(range(int(counts.max())))
        columns = (record_codes[row], index_codes[slice_index])
        return ColumnarDataset(columns, out_weights, 2, tolerance, assume_unique=True)
    # Sequence / callable slice specifications: per-record Python, mirroring
    # the eager loop exactly.
    out_records: list[Any] = []
    out_weights_list: list[float] = []
    for record, weight in zip(dataset.records(), dataset.weights.tolist()):
        if weight <= 0:
            continue
        sequence = _weight_sequence(slice_weights, record)
        consumed = 0.0
        index = 0
        while consumed < weight - tolerance:
            emitted_weight = sequence(index)
            if emitted_weight <= 0.0:
                break
            emitted = min(emitted_weight, weight - consumed)
            out_records.append((record, index))
            out_weights_list.append(emitted)
            consumed += emitted
            index += 1
    return ColumnarDataset.from_pairs(out_records, out_weights_list, tolerance)


# ----------------------------------------------------------------------
# Join
# ----------------------------------------------------------------------
def _key_columns(
    dataset: ColumnarDataset, key: Callable[[Any], Any]
) -> tuple[np.ndarray, ...] | None:
    """The field columns a ``Permute`` key reads, or ``None`` for other keys."""
    if dataset.decomposed and isinstance(key, Permute):
        if all(index < dataset.arity for index in key.indices):
            return tuple(dataset.columns[index] for index in key.indices)
    return None


def _side_key_codes(dataset: ColumnarDataset, key: Callable[[Any], Any]) -> np.ndarray:
    """One side's join-key codes in interner code space — a column pick for
    ``Field`` keys, the key called per record and interned otherwise."""
    if (
        isinstance(key, Field)
        and dataset.decomposed
        and key.index < dataset.arity
    ):
        return dataset.columns[key.index]
    return global_interner().codes([key(record) for record in dataset.records()])


def _joint_words(
    left_columns: Sequence[np.ndarray], right_columns: Sequence[np.ndarray]
) -> tuple[np.ndarray, np.ndarray, bool]:
    """One ``int64`` word per row of each of two aligned, non-empty column
    tuples, equal and ordered alike exactly when the rows are, plus
    :func:`sorted_runs`' ``fits_rows``.

    The sides share one :func:`pack_rows` plan, so their words compare
    directly; only a range too wide for one word has :func:`row_groups` number
    the distinct rows of the two sides together.
    """
    (left_words, right_words), fits_rows = pack_rows(left_columns, right_columns)
    if len(left_words) == 1:
        return left_words[0], right_words[0], fits_rows
    order, group, _ = row_groups(
        [np.concatenate(pair) for pair in zip(left_words, right_words)]
    )
    codes = np.empty_like(group)
    codes[order] = group
    count = left_words[0].shape[0]
    return codes[:count], codes[count:], False


def _key_codes(
    left: ColumnarDataset,
    right: ColumnarDataset,
    left_key: Callable[[Any], Any],
    right_key: Callable[[Any], Any],
) -> tuple[np.ndarray, np.ndarray, bool]:
    """One ``int64`` key word per row of each side, equal and ordered alike
    exactly when the keys are, plus :func:`sorted_runs`' ``fits_rows``.

    A *composite* key — ``Permute`` specs of one width on both sides — packs
    its field columns with minima and spans taken over *both* sides
    (:func:`_joint_words`), so no key tuple is ever built.  Such words mean
    nothing outside this call, so a ``Permute`` facing any other key is called
    per record like a plain function, both sides starting from interner codes
    as a ``Field`` column pick does.
    """
    left_columns = _key_columns(left, left_key)
    right_columns = _key_columns(right, right_key)
    if (
        left_columns is None
        or right_columns is None
        or len(left_columns) != len(right_columns)
    ):
        left_columns = (_side_key_codes(left, left_key),)
        right_columns = (_side_key_codes(right, right_key),)
    return _joint_words(left_columns, right_columns)


class _KeyRuns(NamedTuple):
    """One join side's rows grouped by key word (:func:`_key_runs`)."""

    order: np.ndarray | None  # stable order by key; None: the stored order is it
    starts: np.ndarray | None  # each key's run's first row in it; None: one row each
    counts: np.ndarray | None  # each run's length; None as for starts
    keys: np.ndarray  # the distinct key words, ascending
    norms: np.ndarray  # ‖A_k‖ per key

    def start(self, hit: np.ndarray) -> np.ndarray:
        """Where the runs of keys ``hit`` start in :attr:`order`."""
        return hit if self.starts is None else self.starts[hit]

    def count(self, hit: np.ndarray) -> np.ndarray | None:
        """The lengths of the runs of keys ``hit`` (``None``: one row each)."""
        return None if self.counts is None else self.counts[hit]


def _key_runs(words: np.ndarray, fits_rows: bool, weights: np.ndarray) -> _KeyRuns:
    """Sort one side's key words once and read the runs, keys and norms off
    that order.  A norm adds its run's ``|w|`` with ``reduceat``, whose sums
    :func:`join` has always released; when every run is one row the norms
    are those rows' ``|w|`` as they stand."""
    order, starts, (keys,) = sorted_runs([words], fits_rows)
    if order is None:
        magnitudes = np.abs(weights)
    else:
        magnitudes = weights[order]
        np.abs(magnitudes, out=magnitudes)
    if starts is None:
        return _KeyRuns(order, None, None, keys, magnitudes)
    return _KeyRuns(
        order,
        starts,
        np.diff(starts, append=keys.shape[0]),
        keys[starts],
        np.add.reduceat(magnitudes, starts),
    )


def _field_join(
    selector: Callable[[Any, Any], Any], left: ColumnarDataset, right: ColumnarDataset
) -> bool:
    """Whether ``selector`` is a :class:`JoinFields` over fields both sides
    have, so the output columns are gathered from theirs."""
    return (
        isinstance(selector, JoinFields)
        and left.decomposed
        and right.decomposed
        and all(
            index < (left.arity if side == "l" else right.arity)
            for side, index in selector.picks
        )
    )


def _one_pair_per_row(
    selector: JoinFields, left: ColumnarDataset, right: ColumnarDataset, right_key: Any
) -> bool:
    """Whether distinct ``(left row, right row)`` pairs give distinct output
    rows: every left field is picked, and every right field outside a
    ``Field`` / ``Permute`` right key (a partner's key fields are fixed by
    its left row's key)."""
    if isinstance(right_key, Field):
        keyed = {right_key.index}
    elif isinstance(right_key, Permute):
        keyed = set(right_key.indices)
    else:
        return False
    left_picks = {index for side, index in selector.picks if side == "l"}
    right_picks = {index for side, index in selector.picks if side == "r"}
    return left_picks >= set(range(left.arity)) and right_picks | keyed >= set(
        range(right.arity)
    )


def _ranges(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """``starts[u], starts[u] + 1, …, starts[u] + counts[u] − 1`` for every
    unit ``u`` in turn (``counts`` positive): one running sum of steps."""
    steps = np.ones(int(counts.sum()), dtype=np.int64)
    jumps = starts.astype(np.int64)
    jumps[1:] -= starts[:-1] + counts[:-1] - 1
    steps[np.cumsum(counts) - counts] = jumps
    return np.cumsum(steps, out=steps)


def _pairs(
    left_start: np.ndarray | None,
    left_count: np.ndarray | None,
    right_start: np.ndarray,
    right_count: np.ndarray | None,
) -> tuple[np.ndarray | None, np.ndarray, np.ndarray | None]:
    """Expand units — a block of ``left_count`` left positions from
    ``left_start`` beside a block of ``right_count`` right positions — into
    their pairs, left-major.  Returns each pair's left and right position and
    each unit's pair count.  A count of ``None`` is one position per unit, a
    ``left_start`` of ``None`` the units' own indices; a unit of one pair is
    its pair, so with both counts ``None`` nothing is expanded.  Only units
    with several rows on both sides divide by their fan-out."""
    if left_count is None and right_count is None:
        return left_start, right_start, None
    if left_count is None:
        if left_start is None:
            left_start = np.arange(right_count.shape[0])
        pairs = np.repeat(left_start, right_count), _ranges(right_start, right_count)
        return (*pairs, right_count)
    if right_count is None:
        pairs = _ranges(left_start, left_count), np.repeat(right_start, left_count)
        return (*pairs, left_count)
    pair_counts = left_count * right_count
    unit = np.repeat(np.arange(pair_counts.shape[0]), pair_counts)
    local = np.arange(unit.shape[0]) - (np.cumsum(pair_counts) - pair_counts)[unit]
    fanout = right_count[unit]
    return (
        left_start[unit] + local // fanout,
        right_start[unit] + local % fanout,
        pair_counts,
    )


def join(
    left: ColumnarDataset,
    right: ColumnarDataset,
    left_key: Callable[[Any], Any],
    right_key: Callable[[Any], Any],
    result_selector: Callable[[Any, Any], Any] = lambda a, b: (a, b),
) -> ColumnarDataset:
    """wPINQ's weight-normalised equi-join, fully vectorized (see ``xf.join``).

    Per join key ``k`` every pair ``(a, b) ∈ A_k × B_k`` is emitted with
    weight ``A_k(a) · B_k(b) / (‖A_k‖ + ‖B_k‖)``.  Each side's key words
    (:func:`_key_codes`) are sorted once — a side already in key order is
    not — and the per-key runs, the norms over them and the match between the
    sides' distinct keys (one ``searchsorted``) all read that
    order.  The pair index arrays and the output weights are array
    operations; the output records are assembled by fancy-indexing the field
    columns when the selector is a :class:`JoinFields` spec, and by per-pair
    Python calls otherwise.

    A colliding output row adds its pairs' weights in the order the pairs
    come out, so that order follows from what the selector can collide:

    * a :class:`JoinFields` selector that keeps every left field and every
      right field outside the key (:func:`_one_pair_per_row`) gives each pair
      a row of its own, so nothing adds.  Pairs come out in the left side's
      stored order, a left row's partners in key-run order; a left side in
      code order then yields rows in code order, which the consolidation
      checks and does not sort.  When every left row has exactly one partner
      the left columns and weights are used as they stand;
    * any other selector emits by ascending key, left-major, a key's rows in
      input order, the order its sums have always been added in.

    A run of one row is its own norm and its own pair: ``reduceat``,
    ``repeat`` and the fan-out division run only over runs of several.
    """
    tolerance = left.tolerance
    if left.is_empty() or right.is_empty():
        return ColumnarDataset.empty(tolerance)
    left_words, right_words, fits_rows = _key_codes(left, right, left_key, right_key)
    lefts = _key_runs(left_words, fits_rows, left.weights)
    rights = _key_runs(right_words, fits_rows, right.weights)
    right_hit = np.searchsorted(rights.keys, lefts.keys)
    right_hit[right_hit == rights.keys.shape[0]] = 0
    left_hit = np.flatnonzero(rights.keys[right_hit] == lefts.keys)
    right_hit = right_hit[left_hit]
    if left_hit.size == 0:
        return ColumnarDataset.empty(tolerance)
    denominators = lefts.norms[left_hit] + rights.norms[right_hit]
    feasible = denominators > 0
    if not feasible.all():
        left_hit, right_hit = left_hit[feasible], right_hit[feasible]
        denominators = denominators[feasible]
        if left_hit.size == 0:
            return ColumnarDataset.empty(tolerance)
    fields = _field_join(result_selector, left, right)
    right_start, right_count = rights.start(right_hit), rights.count(right_hit)
    if fields and _one_pair_per_row(result_selector, left, right, right_key):
        # A unit per left row that has partners, in stored order: each row's
        # slot among the matched keys, or -1.
        slot = np.full(lefts.keys.shape[0], -1, dtype=np.int64)
        slot[left_hit] = np.arange(left_hit.shape[0])
        if lefts.counts is not None:
            slot = np.repeat(slot, lefts.counts)
        if lefts.order is not None:
            sorted_slot, slot = slot, np.empty_like(slot)
            slot[lefts.order] = sorted_slot
        emitting = slot >= 0
        left_sequence, left_start, left_count = None, None, None
        if not emitting.all():
            left_start = np.flatnonzero(emitting)
            slot = slot[left_start]
        right_start, denominators = right_start[slot], denominators[slot]
        right_count = None if right_count is None else right_count[slot]
    else:
        left_sequence = lefts.order
        left_start, left_count = lefts.start(left_hit), lefts.count(left_hit)
    left_rows, right_rows, pair_counts = _pairs(
        left_start, left_count, right_start, right_count
    )
    if left_sequence is not None:
        left_rows = left_sequence[left_rows]
    if rights.order is not None:
        right_rows = rights.order[right_rows]
    if pair_counts is not None:
        denominators = np.repeat(denominators, pair_counts)
    # (a · b) / d, worked in place on the gathered b (a · b = b · a exactly).
    weights = right.weights[right_rows]
    weights *= left.weights if left_rows is None else left.weights[left_rows]
    weights /= denominators
    if fields:

        def picked(side: str, index: int) -> np.ndarray:
            if side == "r":
                return right.columns[index][right_rows]
            column = left.columns[index]
            return column if left_rows is None else column[left_rows]

        columns = tuple(picked(*pick) for pick in result_selector.picks)
        return ColumnarDataset(
            columns, weights, len(result_selector.picks), tolerance
        )
    left_records = left.records()
    right_records = right.records()
    out_records = [
        result_selector(left_records[a], right_records[b])
        for a, b in zip(left_rows.tolist(), right_rows.tolist())
    ]
    return ColumnarDataset.from_pairs(out_records, weights, tolerance)


# ----------------------------------------------------------------------
# Set-like binary operators
# ----------------------------------------------------------------------
def union(left: ColumnarDataset, right: ColumnarDataset) -> ColumnarDataset:
    """``Union(A, B)(x) = max(A(x), B(x))`` (see ``xf.union``)."""
    columns, left_weights, right_weights, arity = _merge_sides(left, right)
    return ColumnarDataset(
        columns,
        np.maximum(left_weights, right_weights),
        arity,
        left.tolerance,
        assume_unique=True,
    )


def intersect(left: ColumnarDataset, right: ColumnarDataset) -> ColumnarDataset:
    """``Intersect(A, B)(x) = min(A(x), B(x))`` (see ``xf.intersect``).

    Only a row both sides hold (``min(a, b)``) or a one-sided negative row
    (``min(w, 0) = w``) can be kept, so no union is built: both sides are
    packed under one plan (:func:`_joint_words`), the right side's words are
    sorted — a consolidated right side's already are — and the left side's
    are probed with one ``searchsorted``.  Only the kept rows are then merged
    into code order, the order the union's rows would have had.
    """
    left, right = _aligned(left, right)
    left_rows, right_rows = _shared_rows(left, right)
    left_weights = np.minimum(left.weights, 0.0)
    left_weights[left_rows] = np.minimum(
        left.weights[left_rows], right.weights[right_rows]
    )
    right_weights = np.minimum(right.weights, 0.0)
    right_weights[right_rows] = 0.0  # kept once, on the left
    left_keep, right_keep = left_weights != 0.0, right_weights != 0.0
    return ColumnarDataset(
        tuple(
            np.concatenate([lcol[left_keep], rcol[right_keep]])
            for lcol, rcol in zip(left.columns, right.columns)
        ),
        np.concatenate([left_weights[left_keep], right_weights[right_keep]]),
        left.arity,
        left.tolerance,
    )


def _shared_rows(
    left: ColumnarDataset, right: ColumnarDataset
) -> tuple[np.ndarray, np.ndarray]:
    """The row pairs ``(i, j)`` at which two aligned datasets hold the same
    row, ``i`` ascending (rows are unique within a side, so each ``i`` has at
    most one ``j``)."""
    if left.is_empty() or right.is_empty():
        return (np.empty(0, dtype=np.int64),) * 2
    left_words, right_words, fits_rows = _joint_words(left.columns, right.columns)
    right_order, _, (right_words,) = sorted_runs([right_words], fits_rows)
    position = np.searchsorted(right_words, left_words)
    position[position == right_words.shape[0]] = 0
    left_rows = np.flatnonzero(right_words[position] == left_words)
    right_rows = position[left_rows]
    return left_rows, right_rows if right_order is None else right_order[right_rows]


def concat(left: ColumnarDataset, right: ColumnarDataset) -> ColumnarDataset:
    """``Concat(A, B)(x) = A(x) + B(x)`` (see ``xf.concat``)."""
    columns, left_weights, right_weights, arity = _merge_sides(left, right)
    return ColumnarDataset(
        columns,
        left_weights + right_weights,
        arity,
        left.tolerance,
        assume_unique=True,
    )


def except_(left: ColumnarDataset, right: ColumnarDataset) -> ColumnarDataset:
    """``Except(A, B)(x) = A(x) − B(x)`` (see ``xf.except_``)."""
    columns, left_weights, right_weights, arity = _merge_sides(left, right)
    return ColumnarDataset(
        columns,
        left_weights - right_weights,
        arity,
        left.tolerance,
        assume_unique=True,
    )
