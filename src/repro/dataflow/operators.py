"""Incremental implementations of every wPINQ transformation.

Each class mirrors one stable transformation from
:mod:`repro.core.transformations` and maintains whatever indexed state it
needs to answer the question "how does my output change when my input changes
by this delta?" without recomputing from scratch (Appendix B of the paper).

Linear operators (Select, Where, SelectMany, Concat, Except) are stateless
pipelines: an input weight change of ``δ`` on record ``x`` simply produces the
correspondingly scaled output changes.  Non-linear operators (Shave, GroupBy,
Join, Union, Intersect) keep their inputs indexed — by record or by join/group
key — and recompute only the affected parts, emitting the difference between
the part's old and new output.  Because every wPINQ transformation is
data-parallel over those parts, this is exactly the "only recompute what
changed" strategy the paper describes.

GroupBy has one shortcut.  A *size-only* reducer (builtin ``len``, or any
callable declaring ``size_only = True`` such as ``GroupSize``) reads nothing
but the length of each prefix, so a key's output is a function of the key's
sorted weight multiset alone.  When a delta leaves that multiset unchanged —
an edge swap moves an edge between two vertices without changing any degree
— the node folds the delta into the part and emits nothing, at O(k log k) in
the changed records instead of a re-sort of the whole (hub-sized) group.

All mapper/key/reducer functions are assumed to be pure (deterministic,
side-effect free); the same assumption underlies the eager evaluator and the
privacy proofs.

These loops run once per changed record on every MCMC step, so they are
written flat: attribute lookups are hoisted out of them, output deltas are
accumulated with ``output[r] = output.get(r, 0.0) + w`` in place, and every
write to operator state goes through ``apply_change`` / ``_apply_to_part``
(or their inlined equivalent) with the open step's undo cells, so that a
rejected step can be rolled back exactly.
"""

from __future__ import annotations

from typing import Any, Callable, Sequence

from ..core import transformations as xf
from ..core.dataset import DEFAULT_TOLERANCE, WeightedDataset
from .delta import Delta, apply_change, apply_delta
from .nodes import Node

__all__ = [
    "NODE_FOR_OP",
    "SelectNode",
    "WhereNode",
    "SelectManyNode",
    "ShaveNode",
    "GroupByNode",
    "JoinNode",
    "UnionNode",
    "IntersectNode",
    "ConcatNode",
    "ExceptNode",
    "DistinctNode",
    "DownScaleNode",
]


def _add_difference(output: Delta, after: dict[Any, float], before: dict[Any, float]) -> None:
    """Accumulate ``after − before`` into ``output`` (consumes ``before``)."""
    get = output.get
    for out_record, weight in after.items():
        output[out_record] = get(out_record, 0.0) + (weight - before.pop(out_record, 0.0))
    for out_record, weight in before.items():
        output[out_record] = get(out_record, 0.0) - weight


def _apply_to_part(
    index: dict[Any, dict[Any, float]], key: Any, key_delta: Delta, undo: list | None
) -> None:
    """Fold ``key_delta`` into ``index[key]``, creating or dropping the part."""
    part = index.get(key)
    if part is None:
        part = index[key] = {}
        if undo is not None:
            undo.append((index, key, None))
    apply_delta(part, key_delta, undo=undo)
    if not part:
        del index[key]
        if undo is not None:
            undo.append((index, key, part))


def _group_by_key(delta: Delta, key_func: Callable[[Any], Any]) -> dict[Any, Delta]:
    """Split a delta into one delta per key."""
    by_key: dict[Any, Delta] = {}
    for record, change in delta.items():
        key = key_func(record)
        key_delta = by_key.get(key)
        if key_delta is None:
            by_key[key] = {record: change}
        else:
            key_delta[record] = change
    return by_key


def _sorted_weights_unchanged(part: dict[Any, float], key_delta: Delta) -> bool:
    """Whether folding ``key_delta`` into ``part`` keeps its sorted weights.

    Compares, one entry per touched record, the stored weight with the one
    :func:`apply_change` would store, ``0.0`` standing for an absent record.
    """
    before, after = [], []
    for record, change in key_delta.items():
        prior = part.get(record)
        updated = change if prior is None else prior + change
        before.append(0.0 if prior is None else prior)
        after.append(0.0 if abs(updated) <= DEFAULT_TOLERANCE else updated)
    before.sort()
    after.sort()
    return before == after


# ----------------------------------------------------------------------
# Stateless / linear operators
# ----------------------------------------------------------------------
class SelectNode(Node):
    """Incremental ``Select``: linear, so deltas map straight through."""

    def __init__(self, mapper: Callable[[Any], Any], name: str = "select") -> None:
        super().__init__(name)
        self._mapper = mapper

    def on_delta(self, delta: Delta, port: int = 0) -> None:
        mapper = self._mapper
        output: Delta = {}
        get = output.get
        for record, change in delta.items():
            mapped = mapper(record)
            output[mapped] = get(mapped, 0.0) + change
        self.emit(output)


class WhereNode(Node):
    """Incremental ``Where``: drop delta entries failing the predicate."""

    def __init__(self, predicate: Callable[[Any], bool], name: str = "where") -> None:
        super().__init__(name)
        self._predicate = predicate

    def on_delta(self, delta: Delta, port: int = 0) -> None:
        predicate = self._predicate
        self.emit({record: change for record, change in delta.items() if predicate(record)})


class SelectManyNode(Node):
    """Incremental ``SelectMany``.

    The transformation is linear in the input weight — record ``x`` with
    weight ``A(x)`` contributes ``A(x) · f(x)/max(1, ‖f(x)‖)`` — so a weight
    change of ``δ`` contributes ``δ`` times the same normalised collection.
    The normalised collections are memoised per record because the mapper may
    be arbitrarily expensive and MCMC revisits the same records repeatedly.
    """

    def __init__(self, mapper: Callable[[Any], Any], name: str = "select_many") -> None:
        super().__init__(name)
        self._mapper = mapper
        self._normalized: dict[Any, list[tuple[Any, float]]] = {}

    def _normalized_output(self, record: Any) -> list[tuple[Any, float]]:
        if record not in self._normalized:
            produced = xf.normalize_weighted_output(self._mapper(record))
            norm = sum(abs(weight) for _, weight in produced)
            scale = 1.0 / max(1.0, norm)
            self._normalized[record] = [
                (out_record, weight * scale) for out_record, weight in produced
            ]
        return self._normalized[record]

    def on_delta(self, delta: Delta, port: int = 0) -> None:
        normalized = self._normalized_output
        output: Delta = {}
        get = output.get
        for record, change in delta.items():
            for out_record, unit_weight in normalized(record):
                output[out_record] = get(out_record, 0.0) + unit_weight * change
        self.emit(output)


class DownScaleNode(Node):
    """Incremental ``DownScale``: linear, so deltas are scaled straight through."""

    def __init__(self, factor: float, name: str = "down_scale") -> None:
        super().__init__(name)
        self._factor = float(factor)

    def on_delta(self, delta: Delta, port: int = 0) -> None:
        factor = self._factor
        self.emit({record: change * factor for record, change in delta.items()})


class DistinctNode(Node):
    """Incremental ``Distinct``: re-cap only the records whose weight changed."""

    def __init__(self, cap: float = 1.0, name: str = "distinct") -> None:
        super().__init__(name)
        self._cap = float(cap)
        self._weights: dict[Any, float] = {}

    def on_delta(self, delta: Delta, port: int = 0) -> None:
        weights, cap, undo = self._weights, self._cap, self.undo.cells
        output: Delta = {}
        for record, change in delta.items():
            before = min(weights.get(record, 0.0), cap)
            after = min(apply_change(weights, record, change, undo=undo), cap)
            if after != before:
                output[record] = after - before
        self.emit(output)


class ConcatNode(Node):
    """Incremental ``Concat``: deltas from either port pass straight through."""

    def __init__(self, name: str = "concat") -> None:
        super().__init__(name)

    def on_delta(self, delta: Delta, port: int = 0) -> None:
        self.emit(delta)


class ExceptNode(Node):
    """Incremental ``Except``: port 1 deltas pass through negated."""

    def __init__(self, name: str = "except") -> None:
        super().__init__(name)

    def on_delta(self, delta: Delta, port: int = 0) -> None:
        if port == 0:
            self.emit(delta)
        else:
            self.emit({record: -change for record, change in delta.items()})


# ----------------------------------------------------------------------
# Stateful per-record operators
# ----------------------------------------------------------------------
class ShaveNode(Node):
    """Incremental ``Shave``: re-slice only the records whose weight changed."""

    def __init__(self, slice_weights: Any = 1.0, name: str = "shave") -> None:
        super().__init__(name)
        self._slice_weights = slice_weights
        self._weights: dict[Any, float] = {}

    def _slices(self, record: Any) -> dict[Any, float]:
        weight = self._weights.get(record, 0.0)
        if weight <= 0.0:
            return {}
        single = WeightedDataset({record: weight})
        return xf.shave(single, self._slice_weights).to_dict()

    def on_delta(self, delta: Delta, port: int = 0) -> None:
        weights, undo = self._weights, self.undo.cells
        output: Delta = {}
        for record, change in delta.items():
            before = self._slices(record)
            apply_change(weights, record, change, undo=undo)
            _add_difference(output, self._slices(record), before)
        self.emit(output)


class UnionNode(Node):
    """Incremental ``Union`` (element-wise max over two inputs)."""

    #: Keep the larger of the two weights (``max``); Intersect keeps the smaller.
    _keeps_max = True

    def __init__(self, name: str = "union") -> None:
        super().__init__(name)
        self._weights: tuple[dict[Any, float], dict[Any, float]] = ({}, {})

    def on_delta(self, delta: Delta, port: int = 0) -> None:
        if port not in (0, 1):
            raise ValueError(f"binary operator has ports 0 and 1, got {port}")
        mine, other = self._weights[port], self._weights[1 - port]
        keeps_max, undo, tolerance = self._keeps_max, self.undo.cells, DEFAULT_TOLERANCE
        output: Delta = {}
        # ``apply_change`` and max/min inlined: this loop sees every changed
        # wedge of a triangle query.  Like the builtins, a comparison keeps
        # "mine" (the first operand) on ties, so max(0.0, -0.0) is 0.0.
        for record, change in delta.items():
            prior = mine.get(record)
            theirs = other.get(record, 0.0)
            if undo is not None:
                undo.append((mine, record, prior))
            if prior is None:
                before = 0.0
                updated = change
            else:
                before = prior
                updated = prior + change
            if -tolerance <= updated <= tolerance:
                if prior is not None:
                    del mine[record]
                updated = 0.0
            else:
                mine[record] = updated
            if keeps_max:
                if theirs > before:
                    before = theirs
                after = theirs if theirs > updated else updated
            else:
                if theirs < before:
                    before = theirs
                after = theirs if theirs < updated else updated
            if after != before:
                output[record] = after - before
        self.emit(output)


class IntersectNode(UnionNode):
    """Incremental ``Intersect`` (element-wise min over two inputs)."""

    _keeps_max = False

    def __init__(self, name: str = "intersect") -> None:
        super().__init__(name)


# ----------------------------------------------------------------------
# Stateful keyed operators
# ----------------------------------------------------------------------
class GroupByNode(Node):
    """Incremental ``GroupBy``: recompute only the groups whose key changed."""

    def __init__(
        self,
        key: Callable[[Any], Any],
        reducer: Callable[[Sequence[Any]], Any] = tuple,
        name: str = "group_by",
    ) -> None:
        super().__init__(name)
        self._key = key
        self._reducer = reducer
        self._size_only = reducer is len or getattr(reducer, "size_only", False) is True
        self._groups: dict[Any, dict[Any, float]] = {}

    def _group_output(self, key: Any) -> dict[Any, float]:
        part = self._groups.get(key)
        if not part:
            return {}
        output: dict[Any, float] = {}
        for members, weight in xf.group_prefixes(WeightedDataset(part)):
            out_record = (key, self._reducer(list(members)))
            output[out_record] = output.get(out_record, 0.0) + weight
        return output

    def on_delta(self, delta: Delta, port: int = 0) -> None:
        groups, undo, size_only = self._groups, self.undo.cells, self._size_only
        output: Delta = {}
        for key, key_delta in _group_by_key(delta, self._key).items():
            if size_only and _sorted_weights_unchanged(groups.get(key, {}), key_delta):
                # Same multiset, same output: only the members changed.
                _apply_to_part(groups, key, key_delta, undo)
                continue
            before = self._group_output(key)
            _apply_to_part(groups, key, key_delta, undo)
            _add_difference(output, self._group_output(key), before)
        self.emit(output)


class JoinNode(Node):
    """Incremental wPINQ ``Join``.

    Both inputs are kept indexed by join key.  When a delta arrives on either
    port, only the affected keys are re-joined.  Two regimes (Appendix B):

    * If the per-key normaliser ``‖A_k‖ + ‖B_k‖`` is unchanged by the delta —
      the common case under the MCMC edge-swap walk, where edges move between
      keys without changing any degree — the emitted difference is simply the
      cross product of the *changed* records against the other side, scaled by
      the unchanged normaliser: ``(a ⋈ B_k) / n``.
    * Otherwise the node recomputes the affected key's full contribution
      before and after folding in the delta and emits the difference, which
      correctly rescales every output record of that key.
    """

    #: Absolute tolerance on ``|Σ change|`` of a key's delta, under which (with
    #: every weight staying non-negative) the key's normaliser is unchanged.
    _NORM_TOLERANCE = 1e-9

    def __init__(
        self,
        left_key: Callable[[Any], Any],
        right_key: Callable[[Any], Any],
        result_selector: Callable[[Any, Any], Any] = lambda a, b: (a, b),
        name: str = "join",
    ) -> None:
        super().__init__(name)
        self._keys = (left_key, right_key)
        self._result_selector = result_selector
        self._indexes: tuple[dict[Any, dict[Any, float]], dict[Any, dict[Any, float]]] = (
            {},
            {},
        )

    def _key_norm(self, key: Any) -> float:
        total = 0.0
        for index in self._indexes:
            part = index.get(key)
            if part:
                total += sum(map(abs, part.values()))
        return total

    def _key_output(self, key: Any) -> dict[Any, float]:
        left_part = self._indexes[0].get(key)
        right_part = self._indexes[1].get(key)
        if not left_part or not right_part:
            return {}
        denominator = self._key_norm(key)
        if denominator <= 0.0:
            return {}
        output: dict[Any, float] = {}
        selector, get = self._result_selector, output.get
        for left_record, left_weight in left_part.items():
            for right_record, right_weight in right_part.items():
                weight = left_weight * right_weight / denominator
                if weight == 0.0:
                    continue
                out_record = selector(left_record, right_record)
                output[out_record] = get(out_record, 0.0) + weight
        return output

    def on_delta(self, delta: Delta, port: int = 0) -> None:
        if port not in (0, 1):
            raise ValueError(f"binary operator has ports 0 and 1, got {port}")
        index, other_index = self._indexes[port], self._indexes[1 - port]
        selector, undo = self._result_selector, self.undo.cells
        norm_tolerance = self._NORM_TOLERANCE
        output: Delta = {}
        get = output.get
        for key, key_delta in _group_by_key(delta, self._keys[port]).items():
            old_part = index.get(key, {})
            norm_preserved = (
                abs(sum(key_delta.values())) <= norm_tolerance
                and all(old_part.get(record, 0.0) + change >= 0.0 for record, change in key_delta.items())
                and (not old_part or min(old_part.values()) >= 0.0)
            )
            if norm_preserved:
                # Fast path: ‖A_k‖ + ‖B_k‖ is unchanged, so existing output
                # records keep their scale and only the changed records'
                # pairings against the other (fixed) side are emitted.
                denominator = self._key_norm(key)
                _apply_to_part(index, key, key_delta, undo)
                other = other_index.get(key)
                if not other or denominator <= 0.0:
                    continue
                for record, change in key_delta.items():
                    if port == 0:
                        for other_record, other_weight in other.items():
                            weight = change * other_weight / denominator
                            if weight != 0.0:
                                out_record = selector(record, other_record)
                                output[out_record] = get(out_record, 0.0) + weight
                    else:
                        for other_record, other_weight in other.items():
                            weight = change * other_weight / denominator
                            if weight != 0.0:
                                out_record = selector(other_record, record)
                                output[out_record] = get(out_record, 0.0) + weight
                continue
            before = self._key_output(key)
            _apply_to_part(index, key, key_delta, undo)
            _add_difference(output, self._key_output(key), before)
        self.emit(output)


#: Plan ``op`` -> the node class implementing it incrementally, constructed
#: as ``NODE_FOR_OP[plan.op](*plan.operands())``.  Sources are the engine's
#: own :class:`~repro.dataflow.nodes.SourceNode`, one per name.
NODE_FOR_OP: dict[str, type[Node]] = {
    "select": SelectNode,
    "where": WhereNode,
    "select_many": SelectManyNode,
    "group_by": GroupByNode,
    "shave": ShaveNode,
    "distinct": DistinctNode,
    "down_scale": DownScaleNode,
    "join": JoinNode,
    "union": UnionNode,
    "intersect": IntersectNode,
    "concat": ConcatNode,
    "except_": ExceptNode,
}
