"""Incremental columnar dataflow: stateful array nodes consuming delta arrays.

This module brings the paper's Section 4.3 insight — per-step cost
proportional to the amount of *changed* intermediate data — to the columnar
backend.  It mirrors the dict-based incremental operators of
:mod:`repro.dataflow.operators`, but every delta travelling between nodes is a
:class:`~repro.columnar.dataset.ColumnarDataset` (``int64`` code columns plus
a ``float64`` weight vector) and every linear operator applies its vectorized
kernel from :mod:`repro.columnar.kernels` directly to the delta arrays.
Stateful operators (Join, Union/Intersect, Distinct, GroupBy, Shave) keep
their inputs indexed — the join by key code with amortised-growth per-key
arrays — and recompute only the affected parts, exactly like their dataflow
counterparts but with the cross products, scalings and merges done as array
operations.

A delta (:meth:`DeltaNode.on_delta`) is a committed update: it folds into
operator state and propagates downstream, and it is the only way anything
moves through the graph.  An MCMC step pushes the proposal's delta and, on
reject, pushes it back negated.

The scoring half (per-measurement bin vectors and L1 residuals) lives in
:mod:`repro.inference.columnar_scoring`; this module is measurement-agnostic.
"""

from __future__ import annotations

from typing import Any, Callable, Sequence

import numpy as np

from ..core import transformations as xf
from ..core.dataset import DEFAULT_TOLERANCE, WeightedDataset
from ..core.plan import Plan
from ..exceptions import DataflowError
from . import kernels
from .dataset import ColumnarDataset
from .interning import global_interner
from .specs import ExplodeFields, Field, FieldIs, FieldsDiffer, JoinFields

__all__ = [
    "DeltaNode",
    "SourceDeltaNode",
    "NODE_FOR_OP",
    "IncrementalGraph",
]

#: Relative tolerance deciding a join key's normaliser is unchanged (mirrors
#: :attr:`repro.dataflow.operators.JoinNode._NORM_TOLERANCE`).
NORM_TOLERANCE = 1e-9


# ----------------------------------------------------------------------
# Row/record helpers
# ----------------------------------------------------------------------
def _row_keys(columns: Sequence[np.ndarray]) -> list[tuple[int, ...]]:
    """Hashable per-row keys (tuples of codes) for dict-indexed state."""
    return list(zip(*(column.tolist() for column in columns)))


def _decode_rows(columns: Sequence[np.ndarray], arity: int | None) -> list[Any]:
    interner = global_interner()
    if arity is None:
        return interner.atoms(columns[0])
    return list(zip(*(interner.atoms(column) for column in columns)))


def _decode_key(row_key: tuple[int, ...], arity: int | None) -> Any:
    interner = global_interner()
    if arity is None:
        return interner.atom(row_key[0])
    return tuple(interner.atom(code) for code in row_key)


def _encode_records(records: Sequence[Any]) -> tuple[tuple[np.ndarray, ...], int | None]:
    """Encode records into columns, detecting the decomposed layout."""
    interner = global_interner()
    if records and all(type(record) is tuple for record in records):
        width = len(records[0])
        if width >= 1 and all(len(record) == width for record in records):
            columns = tuple(
                interner.codes([record[index] for record in records])
                for index in range(width)
            )
            return columns, width
    return (interner.codes(list(records)),), None


# ----------------------------------------------------------------------
# Node base classes
# ----------------------------------------------------------------------
class DeltaNode:
    """A vertex of the incremental columnar dataflow graph."""

    def __init__(self, name: str = "") -> None:
        self.name = name or type(self).__name__
        self._consumers: list[tuple["DeltaNode", int]] = []

    def subscribe(self, consumer: "DeltaNode", port: int = 0) -> None:
        self._consumers.append((consumer, port))

    # -- committed deltas ------------------------------------------------
    def emit(self, delta: ColumnarDataset) -> None:
        if delta.is_empty():
            return
        for consumer, port in self._consumers:
            consumer.on_delta(delta, port)

    def on_delta(self, delta: ColumnarDataset, port: int = 0) -> None:
        raise NotImplementedError

    # -- introspection ---------------------------------------------------
    def state_entries(self) -> int:
        """Weighted entries held by this node's state (the memory proxy)."""
        return 0

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.name!r}>"


class SourceDeltaNode(DeltaNode):
    """Entry point of the graph; the source data itself lives with the engine
    (a :class:`~repro.inference.columnar_scoring.MutableColumnarSource`)."""

    def __init__(self, name: str) -> None:
        super().__init__(name)

    def on_delta(self, delta: ColumnarDataset, port: int = 0) -> None:
        self.emit(delta)


# ----------------------------------------------------------------------
# Linear (stateless) operators: kernels apply directly to the delta
# ----------------------------------------------------------------------
class SelectDeltaNode(DeltaNode):
    """Incremental ``Select``: linear, so the kernel maps the delta through."""

    def __init__(self, mapper: Callable[[Any], Any], name: str = "select") -> None:
        super().__init__(name)
        self._mapper = mapper

    def on_delta(self, delta: ColumnarDataset, port: int = 0) -> None:
        self.emit(kernels.select(delta, self._mapper))


class WhereDeltaNode(DeltaNode):
    """Incremental ``Where``: drop delta rows failing the predicate."""

    def __init__(self, predicate: Callable[[Any], bool], name: str = "where") -> None:
        super().__init__(name)
        self._predicate = predicate

    def _mask(self, columns: Sequence[np.ndarray], arity: int | None) -> np.ndarray:
        predicate = self._predicate
        if arity is not None:
            if (
                isinstance(predicate, FieldsDiffer)
                and predicate.first < arity
                and predicate.second < arity
            ):
                return columns[predicate.first] != columns[predicate.second]
            if isinstance(predicate, FieldIs) and predicate.index < arity:
                try:
                    code = global_interner().code(predicate.value)
                except TypeError:
                    code = None
                if code is not None:
                    return columns[predicate.index] == code
        count = columns[0].shape[0]
        return np.fromiter(
            (bool(predicate(record)) for record in _decode_rows(columns, arity)),
            dtype=bool,
            count=count,
        )

    def on_delta(self, delta: ColumnarDataset, port: int = 0) -> None:
        mask = self._mask(delta.columns, delta.arity)
        self.emit(
            ColumnarDataset(
                tuple(column[mask] for column in delta.columns),
                delta.weights[mask],
                delta.arity,
                delta.tolerance,
                assume_unique=True,
            )
        )


class SelectManyDeltaNode(DeltaNode):
    """Incremental ``SelectMany``: linear per record, collections memoised."""

    def __init__(self, mapper: Callable[[Any], Any], name: str = "select_many") -> None:
        super().__init__(name)
        self._mapper = mapper
        self._normalized: dict[Any, list[tuple[Any, float]]] = {}

    def _normalized_output(self, record: Any) -> list[tuple[Any, float]]:
        cached = self._normalized.get(record)
        if cached is None:
            produced = xf.normalize_weighted_output(self._mapper(record))
            norm = sum(abs(weight) for _, weight in produced)
            scale = 1.0 / max(1.0, norm)
            cached = [(out, weight * scale) for out, weight in produced]
            self._normalized[record] = cached
        return cached

    def _expand(
        self, columns: Sequence[np.ndarray], weights: np.ndarray, arity: int | None
    ) -> tuple[list[Any], list[float], list[int]]:
        out_records: list[Any] = []
        out_weights: list[float] = []
        out_rows: list[int] = []
        for row, (record, weight) in enumerate(
            zip(_decode_rows(columns, arity), weights.tolist())
        ):
            for out_record, unit in self._normalized_output(record):
                out_records.append(out_record)
                out_weights.append(unit * weight)
                out_rows.append(row)
        return out_records, out_weights, out_rows

    def on_delta(self, delta: ColumnarDataset, port: int = 0) -> None:
        if isinstance(self._mapper, ExplodeFields) and delta.decomposed:
            self.emit(kernels.select_many(delta, self._mapper))
            return
        records, weights, _ = self._expand(delta.columns, delta.weights, delta.arity)
        columns, arity = _encode_records(records)
        self.emit(
            ColumnarDataset(
                columns,
                np.asarray(weights, dtype=np.float64),
                arity,
                delta.tolerance,
            )
        )

    def state_entries(self) -> int:
        return sum(len(outputs) for outputs in self._normalized.values())


class DownScaleDeltaNode(DeltaNode):
    """Incremental ``DownScale``: deltas scale straight through."""

    def __init__(self, factor: float, name: str = "down_scale") -> None:
        super().__init__(name)
        self._factor = float(factor)

    def on_delta(self, delta: ColumnarDataset, port: int = 0) -> None:
        self.emit(kernels.down_scale(delta, self._factor))


class ConcatDeltaNode(DeltaNode):
    """Incremental ``Concat``: deltas from either port pass straight through."""

    def __init__(self, name: str = "concat") -> None:
        super().__init__(name)

    def on_delta(self, delta: ColumnarDataset, port: int = 0) -> None:
        self.emit(delta)


class ExceptDeltaNode(DeltaNode):
    """Incremental ``Except``: port 1 deltas pass through negated."""

    def __init__(self, name: str = "except") -> None:
        super().__init__(name)

    def on_delta(self, delta: ColumnarDataset, port: int = 0) -> None:
        if port == 0:
            self.emit(delta)
        else:
            self.emit(
                ColumnarDataset(
                    delta.columns,
                    -delta.weights,
                    delta.arity,
                    delta.tolerance,
                    assume_unique=True,
                )
            )


# ----------------------------------------------------------------------
# Stateful per-row operators
# ----------------------------------------------------------------------
class _LayoutStateNode(DeltaNode):
    """Shared machinery for nodes keyed by row-code tuples.

    The node adopts the layout of the first delta it sees; a later delta in a
    different layout forces the node (and its state keys) into opaque form
    once, mirroring :meth:`MutableColumnarSource._rebuild_opaque`.
    """

    _UNSET = object()

    def __init__(self, name: str = "") -> None:
        super().__init__(name)
        self._arity: Any = self._UNSET

    def _rekey(self, row_key: tuple[int, ...], arity: int | None) -> tuple[int, ...]:
        record = _decode_key(row_key, arity)
        return (global_interner().code(record),)

    def _convert_state_opaque(self, old_arity: int | None) -> None:
        raise NotImplementedError

    def _adopt_delta(self, delta: ColumnarDataset) -> ColumnarDataset:
        if self._arity is self._UNSET:
            self._arity = delta.arity
            return delta
        if delta.arity == self._arity:
            return delta
        if self._arity is not None:
            old = self._arity
            self._arity = None
            self._convert_state_opaque(old)
        return delta.as_opaque()


class DistinctDeltaNode(_LayoutStateNode):
    """Incremental ``Distinct``: re-cap only rows whose weight changed."""

    def __init__(self, cap: float = 1.0, name: str = "distinct") -> None:
        super().__init__(name)
        self._cap = float(cap)
        self._weights: dict[tuple[int, ...], float] = {}

    def _convert_state_opaque(self, old_arity: int | None) -> None:
        self._weights = {
            self._rekey(key, old_arity): weight
            for key, weight in self._weights.items()
        }

    def on_delta(self, delta: ColumnarDataset, port: int = 0) -> None:
        delta = self._adopt_delta(delta)
        cap = self._cap
        out = np.empty(delta.weights.shape[0], dtype=np.float64)
        for index, (key, change) in enumerate(
            zip(_row_keys(delta.columns), delta.weights.tolist())
        ):
            before = self._weights.get(key, 0.0)
            after = before + change
            if abs(after) <= DEFAULT_TOLERANCE:
                self._weights.pop(key, None)
                after = 0.0
            else:
                self._weights[key] = after
            out[index] = min(after, cap) - min(before, cap)
        self.emit(
            ColumnarDataset(
                delta.columns, out, delta.arity, delta.tolerance, assume_unique=True
            )
        )

    def state_entries(self) -> int:
        return len(self._weights)


class UnionDeltaNode(_LayoutStateNode):
    """Incremental ``Union`` (element-wise max over two inputs)."""

    combiner = staticmethod(max)

    def __init__(self, name: str = "union") -> None:
        super().__init__(name)
        self._weights: dict[tuple[int, ...], list[float]] = {}

    def _convert_state_opaque(self, old_arity: int | None) -> None:
        self._weights = {
            self._rekey(key, old_arity): pair for key, pair in self._weights.items()
        }

    def on_delta(self, delta: ColumnarDataset, port: int = 0) -> None:
        if port not in (0, 1):
            raise DataflowError(f"binary operator has ports 0 and 1, got {port}")
        delta = self._adopt_delta(delta)
        combiner = self.combiner
        out = np.empty(delta.weights.shape[0], dtype=np.float64)
        for index, (key, change) in enumerate(
            zip(_row_keys(delta.columns), delta.weights.tolist())
        ):
            pair = self._weights.get(key)
            if pair is None:
                pair = [0.0, 0.0]
                self._weights[key] = pair
            before = combiner(pair[0], pair[1])
            pair[port] += change
            if abs(pair[port]) <= DEFAULT_TOLERANCE:
                pair[port] = 0.0
            after = combiner(pair[0], pair[1])
            if pair[0] == 0.0 and pair[1] == 0.0:
                self._weights.pop(key, None)
            out[index] = after - before
        self.emit(
            ColumnarDataset(
                delta.columns, out, delta.arity, delta.tolerance, assume_unique=True
            )
        )

    def state_entries(self) -> int:
        return 2 * len(self._weights)


class IntersectDeltaNode(UnionDeltaNode):
    """Incremental ``Intersect`` (element-wise min over two inputs)."""

    combiner = staticmethod(min)

    def __init__(self, name: str = "intersect") -> None:
        super().__init__(name)


class ShaveDeltaNode(_LayoutStateNode):
    """Incremental ``Shave``: re-slice only the rows whose weight changed."""

    def __init__(self, slice_weights: Any = 1.0, name: str = "shave") -> None:
        super().__init__(name)
        self._slice_weights = slice_weights
        self._weights: dict[tuple[int, ...], float] = {}

    def _convert_state_opaque(self, old_arity: int | None) -> None:
        self._weights = {
            self._rekey(key, old_arity): weight
            for key, weight in self._weights.items()
        }

    def _slices(self, record: Any, weight: float) -> dict[Any, float]:
        if weight <= 0.0:
            return {}
        single = WeightedDataset({record: weight})
        return xf.shave(single, self._slice_weights).to_dict()

    def _diff(
        self,
        keys: list[tuple[int, ...]],
        changes: list[float],
        arity: int | None,
        read: Callable[[tuple[int, ...], int], float],
        write: Callable[[tuple[int, ...], int, float], None],
    ) -> tuple[list[Any], list[float], list[int]]:
        out_records: list[Any] = []
        out_weights: list[float] = []
        out_rows: list[int] = []
        for row, (key, change) in enumerate(zip(keys, changes)):
            record = _decode_key(key, arity)
            before_weight = read(key, row)
            after_weight = before_weight + change
            write(key, row, after_weight)
            before = self._slices(record, before_weight)
            after = self._slices(record, after_weight)
            for out_record, weight in after.items():
                out_records.append(out_record)
                out_weights.append(weight - before.pop(out_record, 0.0))
                out_rows.append(row)
            for out_record, weight in before.items():
                out_records.append(out_record)
                out_weights.append(-weight)
                out_rows.append(row)
        return out_records, out_weights, out_rows

    def on_delta(self, delta: ColumnarDataset, port: int = 0) -> None:
        delta = self._adopt_delta(delta)

        def read(key: tuple[int, ...], row: int) -> float:
            return self._weights.get(key, 0.0)

        def write(key: tuple[int, ...], row: int, value: float) -> None:
            if abs(value) <= DEFAULT_TOLERANCE:
                self._weights.pop(key, None)
            else:
                self._weights[key] = value

        records, weights, _ = self._diff(
            _row_keys(delta.columns), delta.weights.tolist(), delta.arity, read, write
        )
        columns, arity = _encode_records(records)
        self.emit(
            ColumnarDataset(
                columns, np.asarray(weights, dtype=np.float64), arity, delta.tolerance
            )
        )

    def state_entries(self) -> int:
        return len(self._weights)


class GroupByDeltaNode(DeltaNode):
    """Incremental ``GroupBy``: recompute only the groups whose key changed.

    The prefix emission is inherently record-level (it calls the reducer per
    prefix and orders ties by ``repr``), so state is kept over decoded record
    objects — exactly like the dataflow node — and only the delta transport
    and the final collision accumulation are columnar.
    """

    def __init__(
        self,
        key: Callable[[Any], Any],
        reducer: Callable[[Sequence[Any]], Any] = tuple,
        name: str = "group_by",
    ) -> None:
        super().__init__(name)
        self._key = key
        self._reducer = reducer
        self._groups: dict[Any, dict[Any, float]] = {}

    def _output_of(self, key: Any, part: dict[Any, float]) -> dict[Any, float]:
        part = {
            record: weight
            for record, weight in part.items()
            if abs(weight) > DEFAULT_TOLERANCE
        }
        if not part:
            return {}
        output: dict[Any, float] = {}
        for members, weight in xf.group_prefixes(part):
            record = (key, self._reducer(list(members)))
            output[record] = output.get(record, 0.0) + weight
        return output

    def on_delta(self, delta: ColumnarDataset, port: int = 0) -> None:
        by_key: dict[Any, dict[Any, float]] = {}
        for record, weight in zip(delta.records(), delta.weights.tolist()):
            by_key.setdefault(self._key(record), {})[record] = weight
        out_records: list[Any] = []
        out_weights: list[float] = []
        for key, key_delta in by_key.items():
            part = self._groups.setdefault(key, {})
            before = self._output_of(key, part)
            for record, change in key_delta.items():
                updated = part.get(record, 0.0) + change
                if abs(updated) <= DEFAULT_TOLERANCE:
                    part.pop(record, None)
                else:
                    part[record] = updated
            if not part:
                self._groups.pop(key, None)
            after = self._output_of(key, part)
            for record, weight in after.items():
                out_records.append(record)
                out_weights.append(weight - before.pop(record, 0.0))
            for record, weight in before.items():
                out_records.append(record)
                out_weights.append(-weight)
        columns, arity = _encode_records(out_records)
        self.emit(
            ColumnarDataset(
                columns, np.asarray(out_weights, dtype=np.float64), arity, delta.tolerance
            )
        )

    def state_entries(self) -> int:
        return sum(len(part) for part in self._groups.values())


# ----------------------------------------------------------------------
# Join
# ----------------------------------------------------------------------
class _Part:
    """One join key's rows on one side, as amortised-growth arrays."""

    __slots__ = ("columns", "weights", "size", "index", "norm", "negatives")

    def __init__(self, width: int) -> None:
        capacity = 4
        self.columns = [np.empty(capacity, dtype=np.int64) for _ in range(width)]
        self.weights = np.zeros(capacity, dtype=np.float64)
        self.size = 0
        self.index: dict[tuple[int, ...], int] = {}
        self.norm = 0.0
        self.negatives = 0

    def ensure(self, row_key: tuple[int, ...]) -> int:
        position = self.index.get(row_key)
        if position is None:
            if self.size >= self.weights.shape[0]:
                self.columns = [
                    np.concatenate([column, np.empty(column.shape[0], dtype=np.int64)])
                    for column in self.columns
                ]
                self.weights = np.concatenate(
                    [self.weights, np.zeros(self.weights.shape[0], dtype=np.float64)]
                )
            position = self.size
            self.size += 1
            for buffer, code in zip(self.columns, row_key):
                buffer[position] = code
            self.index[row_key] = position
        return position

    def add(self, position: int, change: float) -> None:
        old = float(self.weights[position])
        new = old + change
        if abs(new) <= DEFAULT_TOLERANCE:
            new = 0.0
        self.weights[position] = new
        self.norm += abs(new) - abs(old)
        self.negatives += int(new < 0) - int(old < 0)

    def view(self) -> tuple[list[np.ndarray], np.ndarray]:
        return [column[: self.size] for column in self.columns], self.weights[: self.size]


class JoinDeltaNode(DeltaNode):
    """Incremental wPINQ ``Join`` over per-key code/weight arrays.

    State per side is an index ``key code -> _Part`` with per-key norms
    maintained incrementally.  Deltas follow the two regimes of
    :class:`~repro.dataflow.operators.JoinNode`: when a key's normaliser
    ``‖A_k‖ + ‖B_k‖`` is unchanged (the MCMC edge-swap case) only the changed
    rows are crossed against the other side — a fancy-indexed array product —
    and otherwise the key's full contribution is recomputed before/after.
    """

    _UNSET = object()

    def __init__(
        self,
        left_key: Callable[[Any], Any],
        right_key: Callable[[Any], Any],
        result_selector: Callable[[Any, Any], Any] = lambda a, b: (a, b),
        name: str = "join",
    ) -> None:
        super().__init__(name)
        self._keys = (left_key, right_key)
        self._selector = result_selector
        self._sides: tuple[dict[int, _Part], dict[int, _Part]] = ({}, {})
        self._arities: list[Any] = [self._UNSET, self._UNSET]

    # -- layout ----------------------------------------------------------
    def _side_to_opaque(self, port: int) -> None:
        arity = self._arities[port]
        converted: dict[int, _Part] = {}
        for key_code, part in self._sides[port].items():
            new_part = _Part(1)
            columns, weights = part.view()
            for row_key, weight in zip(_row_keys(columns), weights.tolist()):
                new_key = (global_interner().code(_decode_key(row_key, arity)),)
                position = new_part.ensure(new_key)
                new_part.add(position, weight)
            converted[key_code] = new_part
        self._sides = (
            (converted, self._sides[1]) if port == 0 else (self._sides[0], converted)
        )
        self._arities[port] = None

    def _adopt(self, port: int, arity: int | None) -> bool:
        """Record the side's layout; True when the incoming data must be
        converted to opaque to match previously-seen data."""
        current = self._arities[port]
        if current is self._UNSET:
            self._arities[port] = arity
            return False
        if arity == current:
            return False
        if current is not None:
            self._side_to_opaque(port)
        return True

    # -- key codes -------------------------------------------------------
    def _key_codes(
        self, columns: Sequence[np.ndarray], arity: int | None, port: int
    ) -> np.ndarray:
        key = self._keys[port]
        if isinstance(key, Field) and arity is not None and key.index < arity:
            return columns[key.index]
        return global_interner().codes(
            [key(record) for record in _decode_rows(columns, arity)]
        )

    # -- output assembly -------------------------------------------------
    def _selector_is_fast(self) -> bool:
        selector = self._selector
        if not isinstance(selector, JoinFields):
            return False
        left_arity, right_arity = self._arities[0], self._arities[1]
        if left_arity in (self._UNSET, None) or right_arity in (self._UNSET, None):
            return False
        return all(
            index < (left_arity if side == "l" else right_arity)
            for side, index in selector.picks
        )

    def _emit_pairs(
        self,
        left_columns: Sequence[np.ndarray],
        right_columns: Sequence[np.ndarray],
        left_rows: np.ndarray,
        right_rows: np.ndarray,
        weights: np.ndarray,
    ) -> tuple[tuple[np.ndarray, ...], int | None]:
        """Assemble output columns for matched (left_row, right_row) pairs."""
        if self._selector_is_fast():
            columns = tuple(
                left_columns[index][left_rows]
                if side == "l"
                else right_columns[index][right_rows]
                for side, index in self._selector.picks
            )
            return columns, len(self._selector.picks)
        return _encode_records(
            self._pair_records(left_columns, right_columns, left_rows, right_rows)
        )

    def _pair_records(
        self,
        left_columns: Sequence[np.ndarray],
        right_columns: Sequence[np.ndarray],
        left_rows: np.ndarray,
        right_rows: np.ndarray,
    ) -> list[Any]:
        left_records = _decode_rows(
            [column[left_rows] for column in left_columns], self._arities[0]
        )
        right_records = _decode_rows(
            [column[right_rows] for column in right_columns], self._arities[1]
        )
        return [self._selector(a, b) for a, b in zip(left_records, right_records)]

    def _key_cross(
        self, key_code: int
    ) -> tuple[tuple[np.ndarray, ...] | None, int | None, list[Any] | None, np.ndarray] | None:
        """Full contribution of one key as ``(columns, arity, records, weights)``.

        ``columns`` is set for spec selectors, ``records`` otherwise.  Returns
        None when either side is absent or carries no weight (a part whose
        rows all pruned to zero behaves exactly like a missing part).
        """
        left = self._sides[0].get(key_code)
        right = self._sides[1].get(key_code)
        if left is None or right is None or left.size == 0 or right.size == 0:
            return None
        if left.norm <= 0.0 or right.norm <= 0.0:
            return None
        denominator = left.norm + right.norm
        left_columns, left_weights = left.view()
        right_columns, right_weights = right.view()
        pair_weights = (
            left_weights[:, None] * right_weights[None, :] / denominator
        ).ravel()
        left_rows = np.repeat(np.arange(left.size), right.size)
        right_rows = np.tile(np.arange(right.size), left.size)
        if self._selector_is_fast():
            columns = tuple(
                left_columns[index][left_rows]
                if side == "l"
                else right_columns[index][right_rows]
                for side, index in self._selector.picks
            )
            return columns, len(self._selector.picks), None, pair_weights
        records = self._pair_records(left_columns, right_columns, left_rows, right_rows)
        return None, None, records, pair_weights

    # -- deltas ----------------------------------------------------------
    def on_delta(self, delta: ColumnarDataset, port: int = 0) -> None:
        if port not in (0, 1):
            raise DataflowError(f"binary operator has ports 0 and 1, got {port}")
        if self._adopt(port, delta.arity):
            delta = delta.as_opaque()
        key_codes = self._key_codes(delta.columns, delta.arity, port)
        row_keys = _row_keys(delta.columns)
        weights = delta.weights
        side = self._sides[port]
        other = self._sides[1 - port]
        width = len(delta.columns)

        order = np.argsort(key_codes, kind="stable")
        sorted_keys = key_codes[order]
        boundaries = np.flatnonzero(
            np.concatenate(([True], sorted_keys[1:] != sorted_keys[:-1]))
        )
        ends = np.append(boundaries[1:], order.shape[0])

        out_record_lists: list[Any] = []
        out_weight_arrays: list[np.ndarray] = []
        fast_columns: list[tuple[np.ndarray, ...]] = []
        fast_weights: list[np.ndarray] = []
        fast_arity: int | None = None

        for start, end in zip(boundaries, ends):
            rows = order[start:end]
            key_code = int(sorted_keys[start])
            group_changes = weights[rows]
            part = side.get(key_code)
            if part is None:
                part = _Part(width)
                side[key_code] = part
            positions = [part.ensure(row_keys[row]) for row in rows.tolist()]
            old = part.weights[positions]
            net = float(group_changes.sum())
            norm_preserved = (
                abs(net) <= NORM_TOLERANCE
                and part.negatives == 0
                and bool(((old + group_changes) >= 0.0).all())
            )
            if norm_preserved:
                other_part = other.get(key_code)
                denominator = part.norm + (other_part.norm if other_part else 0.0)
                for position, change in zip(positions, group_changes.tolist()):
                    part.add(position, change)
                if (
                    other_part is None
                    or other_part.size == 0
                    or denominator <= 0.0
                ):
                    continue
                other_columns, other_weights = other_part.view()
                pair_weights = (
                    group_changes[:, None] * other_weights[None, :] / denominator
                ).ravel()
                delta_rows = np.repeat(rows, other_part.size)
                other_rows = np.tile(np.arange(other_part.size), rows.shape[0])
                sides = (
                    (delta.columns, other_columns, delta_rows, other_rows)
                    if port == 0
                    else (other_columns, delta.columns, other_rows, delta_rows)
                )
                if self._selector_is_fast():
                    columns, arity = self._emit_pairs(*sides, pair_weights)
                    fast_columns.append(columns)
                    fast_weights.append(pair_weights)
                    fast_arity = arity
                else:
                    out_record_lists.extend(self._pair_records(*sides))
                    out_weight_arrays.append(pair_weights)
            else:
                before = self._key_cross(key_code)
                for position, change in zip(positions, group_changes.tolist()):
                    part.add(position, change)
                after = self._key_cross(key_code)
                for cross, sign in ((after, 1.0), (before, -1.0)):
                    if cross is None:
                        continue
                    columns, arity, records, pair_weights = cross
                    if columns is not None:
                        fast_columns.append(columns)
                        fast_weights.append(sign * pair_weights)
                        fast_arity = arity
                    else:
                        out_record_lists.extend(records)
                        out_weight_arrays.append(sign * pair_weights)

        self._emit_outputs(
            fast_columns,
            fast_weights,
            fast_arity,
            out_record_lists,
            out_weight_arrays,
            delta.tolerance,
        )

    def _emit_outputs(
        self,
        fast_columns: list[tuple[np.ndarray, ...]],
        fast_weights: list[np.ndarray],
        fast_arity: int | None,
        generic_records: list[Any],
        generic_weights: list[np.ndarray],
        tolerance: float,
    ) -> None:
        if generic_records:
            columns, arity = _encode_records(generic_records)
            generic_weight = (
                np.concatenate(generic_weights)
                if generic_weights
                else np.empty(0, dtype=np.float64)
            )
            # Mixed fast/generic outputs (possible mid-layout-change) are
            # emitted as two deltas; downstream consumers sum them.
            self.emit(ColumnarDataset(columns, generic_weight, arity, tolerance))
        if fast_columns:
            width = len(fast_columns[0])
            columns = tuple(
                np.concatenate([group[index] for group in fast_columns])
                for index in range(width)
            )
            self.emit(
                ColumnarDataset(
                    columns, np.concatenate(fast_weights), fast_arity, tolerance
                )
            )

    def state_entries(self) -> int:
        return sum(
            part.size for parts in self._sides for part in parts.values()
        )


# ----------------------------------------------------------------------
# Graph compiler
# ----------------------------------------------------------------------
#: Plan ``op`` -> the delta node class implementing it, constructed as
#: ``NODE_FOR_OP[plan.op](*plan.operands())``.  Sources are the graph's own
#: :class:`SourceDeltaNode`, one per name.
NODE_FOR_OP: dict[str, type[DeltaNode]] = {
    "select": SelectDeltaNode,
    "where": WhereDeltaNode,
    "select_many": SelectManyDeltaNode,
    "group_by": GroupByDeltaNode,
    "shave": ShaveDeltaNode,
    "distinct": DistinctDeltaNode,
    "down_scale": DownScaleDeltaNode,
    "join": JoinDeltaNode,
    "union": UnionDeltaNode,
    "intersect": IntersectDeltaNode,
    "concat": ConcatDeltaNode,
    "except_": ExceptDeltaNode,
}


class IncrementalGraph:
    """Compile wPINQ plans into a shared incremental columnar node DAG.

    Mirrors :class:`~repro.dataflow.engine.DataflowEngine` construction:
    shared sub-plans compile to shared nodes (a self-join is one node fed
    through both ports), and the subscription order fixes the propagation
    order so the incremental semantics match the dict-based engine exactly.
    """

    def __init__(self) -> None:
        self._sources: dict[str, SourceDeltaNode] = {}
        self._nodes: dict[int, DeltaNode] = {}
        self._plans: dict[int, Plan] = {}
        self._all_nodes: list[DeltaNode] = []

    # -- construction ----------------------------------------------------
    def compile(self, plan: Plan) -> DeltaNode:
        existing = self._nodes.get(id(plan))
        if existing is not None:
            return existing
        self._plans[id(plan)] = plan

        op = getattr(plan, "op", None)  # None (not a Plan): refused below
        if op == "source":
            source = self._sources.get(plan.name)
            if source is None:
                source = self._sources[plan.name] = SourceDeltaNode(plan.name)
                self._all_nodes.append(source)
            self._nodes[id(plan)] = source
            return source
        node_type = NODE_FOR_OP.get(op)
        if node_type is None:
            raise DataflowError(
                f"cannot compile plan node of type {type(plan).__name__} "
                f"for incremental columnar execution"
            )
        node = self._nodes[id(plan)] = node_type(*plan.operands())
        self._all_nodes.append(node)
        # Not a Plan.fold: subscribing to child k before child k+1 is
        # compiled fixes the propagation order (see the class docstring).
        for port, child in enumerate(plan.children):
            self.compile(child).subscribe(node, port)
        return node

    def attach(self, plan: Plan, consumer: DeltaNode, port: int = 0) -> None:
        """Subscribe ``consumer`` (e.g. a measurement sink) to a plan's node."""
        self.compile(plan).subscribe(consumer, port)
        if consumer not in self._all_nodes:
            self._all_nodes.append(consumer)

    # -- data flow -------------------------------------------------------
    def source_names(self) -> set[str]:
        return set(self._sources)

    def push(self, source_name: str, delta: ColumnarDataset) -> None:
        source = self._sources.get(source_name)
        if source is None:
            return
        source.on_delta(delta, 0)

    # -- introspection ---------------------------------------------------
    def state_entry_count(self) -> int:
        return sum(node.state_entries() for node in self._all_nodes)

    def node_count(self) -> int:
        return len(self._all_nodes)
