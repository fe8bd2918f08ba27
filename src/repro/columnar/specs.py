"""Introspectable record functions the vectorized kernels can compile.

wPINQ transformations are parameterised by arbitrary Python callables (key
selectors, mappers, predicates), which every backend can always execute by
calling them record-by-record.  The columnar backend additionally recognises
the *structural* callables defined here — field picks, permutations, field
comparisons — and replaces the per-record calls with array operations on the
decomposed field columns.

Every spec is a plain callable with exactly the semantics of the lambda it
stands in for, so query plans built from specs behave identically on the
eager and dataflow backends; only the vectorized backend inspects them.  The
analyses use them for their hot joins (``length_two_paths`` builds its key
selectors from :class:`Field` and its result selector from
:class:`JoinFields`), which is what gives the join-heavy graph queries a
fully vectorized execution path.

This module deliberately has no NumPy dependency: specs are shared vocabulary
between the plan layer and the kernels, not kernels themselves.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Any, Callable, Sequence

__all__ = [
    "ColumnarSpec",
    "Field",
    "Permute",
    "Constant",
    "JoinFields",
    "FieldsDiffer",
    "FieldIs",
    "ExplodeFields",
    "GroupSize",
]


class ColumnarSpec:
    """Marker base class for callables the vectorized kernels understand.

    A spec is a value: ``repr``, equality and hashing read its public slots.
    ``Permute`` and ``JoinFields`` also declare ``__call__`` as a slot and
    store a getter compiled from their value there in ``__init__``: the type
    finds the slot descriptor, the descriptor hands back the instance's
    getter, and a per-record call by the eager or dataflow backend runs it
    with no Python frame in between.  They pickle as their constructor call
    (``__reduce__``), so the wire form holds the value only.
    """

    __slots__ = ()

    def _items(self) -> list[tuple[str, Any]]:
        return [
            (name, getattr(self, name)) for name in self.__slots__ if name[0] != "_"
        ]

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}" for name, value in self._items())
        return f"{type(self).__name__}({fields})"

    def __eq__(self, other: object) -> bool:
        return type(other) is type(self) and other._items() == self._items()

    def __hash__(self) -> int:
        return hash((type(self), *self._items()))


def _tuple_getter(indices: tuple[int, ...]) -> Callable[[Any], tuple]:
    """``record -> tuple(record[i] for i in indices)``, compiled once.

    ``Permute`` and ``JoinFields`` are called per record by the eager and
    dataflow backends; ``operator.itemgetter`` moves the loop over the
    indices out of every call.  (It returns a bare field, not a tuple, for a
    single index, hence the two small cases.)
    """
    if len(indices) > 1:
        return itemgetter(*indices)
    if indices:
        (index,) = indices
        return lambda record: (record[index],)
    return lambda record: ()


def _pair_getter(picks: tuple[tuple[str, int], ...]) -> Callable[[Any, Any], tuple]:
    """``(left, right) -> tuple of the picked fields``, compiled once.

    Each side's fields are picked in one go and concatenated; only picks
    that interleave the sides pay a third getter to put them in order.
    """
    pick_left = _tuple_getter(tuple(i for side, i in picks if side == "l"))
    pick_right = _tuple_getter(tuple(i for side, i in picks if side == "r"))
    # Output positions in the order ``left fields + right fields`` holds them.
    seated = sorted(range(len(picks)), key=lambda position: picks[position][0])
    if seated == list(range(len(picks))):
        return lambda a, b: pick_left(a) + pick_right(b)
    reorder = _tuple_getter(tuple(seated.index(k) for k in range(len(picks))))
    return lambda a, b: reorder(pick_left(a) + pick_right(b))


class Field(ColumnarSpec):
    """``record -> record[index]`` — a single-field pick (key selectors)."""

    __slots__ = ("index",)

    def __init__(self, index: int) -> None:
        self.index = int(index)

    def __call__(self, record: Any) -> Any:
        return record[self.index]


class Permute(ColumnarSpec):
    """``record -> tuple(record[i] for i in indices)`` — reorder/project fields.

    ``Permute(1, 0)`` is edge reversal, ``Permute(1, 2, 0)`` rotates a
    length-two path, ``Permute(0, 2)`` projects a path onto its endpoints.
    """

    __slots__ = ("indices", "__call__")

    def __init__(self, *indices: int) -> None:
        if not indices:
            raise ValueError("Permute requires at least one field index")
        self.indices = tuple(int(index) for index in indices)
        self.__call__ = _tuple_getter(self.indices)

    def __reduce__(self) -> tuple:
        return (Permute, self.indices)

    def is_permutation_of(self, arity: int) -> bool:
        """True when the pick is a bijection on ``arity``-tuples."""
        return sorted(self.indices) == list(range(arity))


class Constant(ColumnarSpec):
    """``record -> value`` — funnel all weight onto a single record."""

    __slots__ = ("value",)

    def __init__(self, value: Any) -> None:
        self.value = value

    def __call__(self, record: Any) -> Any:
        return self.value


class JoinFields(ColumnarSpec):
    """A join result selector assembling output tuples from both sides.

    ``picks`` is a sequence of ``("l", i)`` / ``("r", i)`` pairs; the output
    record is the tuple of the picked fields in order.  The
    ``length_two_paths`` selector ``(a, b) ⋈ (b, c) -> (a, b, c)`` is
    ``JoinFields(("l", 0), ("l", 1), ("r", 1))``.
    """

    __slots__ = ("picks", "__call__")

    def __init__(self, *picks: tuple[str, int]) -> None:
        if not picks:
            raise ValueError("JoinFields requires at least one pick")
        normalised = []
        for side, index in picks:
            if side not in ("l", "r"):
                raise ValueError(f"pick side must be 'l' or 'r', got {side!r}")
            normalised.append((side, int(index)))
        self.picks = tuple(normalised)
        self.__call__ = _pair_getter(self.picks)

    def __reduce__(self) -> tuple:
        return (JoinFields, self.picks)


class FieldsDiffer(ColumnarSpec):
    """``record -> record[i] != record[j]`` — the non-degeneracy predicate."""

    __slots__ = ("first", "second")

    def __init__(self, first: int, second: int) -> None:
        self.first = int(first)
        self.second = int(second)

    def __call__(self, record: Any) -> bool:
        return record[self.first] != record[self.second]


class FieldIs(ColumnarSpec):
    """``record -> record[index] == value`` — keep one field value only."""

    __slots__ = ("index", "value")

    def __init__(self, index: int, value: Any) -> None:
        self.index = int(index)
        self.value = value

    def __call__(self, record: Any) -> bool:
        return record[self.index] == self.value


class GroupSize(ColumnarSpec):
    """``group -> len(group) // bucket`` — the degree/bucketed-degree reducer.

    With ``bucket == 1`` this is exactly ``len``, the reducer of the
    ``(vertex, degree)`` dataset (Section 2.5); larger buckets apply the
    integer-division bucketing remedy of Section 5.2.  Expressed as a spec it
    is picklable, so group-by plans built from it — ``node_degrees`` feeds
    every MCMC fitting workload — can cross process boundaries
    (:mod:`repro.shard`) without shipping closures.

    ``size_only`` declares that the output reads only the length of the group
    it is handed, so the incremental GroupBy may skip a key whose sorted
    weights a delta leaves unchanged (:mod:`repro.dataflow.operators`).
    """

    __slots__ = ("bucket",)
    size_only = True

    def __init__(self, bucket: int = 1) -> None:
        bucket = int(bucket)
        if bucket < 1:
            raise ValueError("bucket must be a positive integer")
        self.bucket = bucket

    def __call__(self, group: Sequence[Any]) -> int:
        return len(group) // self.bucket if self.bucket > 1 else len(group)


class ExplodeFields(ColumnarSpec):
    """A SelectMany mapper emitting every field of the record at unit weight.

    Used by ``nodes_from_edges``: each edge produces both endpoints, and the
    SelectMany rescaling divides the record's weight by the field count.  The
    fields are returned as explicit ``(field, 1.0)`` pairs so that a field
    which happens to be a ``(value, number)`` tuple cannot be misread as a
    weighted pair by ``normalize_weighted_output`` — the eager and vectorized
    executions are unambiguous and identical.
    """

    __slots__ = ()

    def __call__(self, record: Sequence[Any]) -> list:
        return [(field, 1.0) for field in record]
