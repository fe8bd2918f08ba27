"""Weighted datasets: the fundamental data type of wPINQ.

A *weighted dataset* generalises a multiset.  Where a multiset maps each
record to a non-negative integer count, a weighted dataset is a function
``A : D -> R`` assigning a real-valued weight ``A(x)`` to every record ``x``
in some (arbitrarily large) domain ``D``.  Records not mentioned explicitly
have weight zero.

Two quantities from the paper (Section 2.1) drive the whole privacy story:

* the *size* of a dataset, ``‖A‖ = Σ_x |A(x)|``, and
* the *distance* between datasets, ``‖A − B‖ = Σ_x |A(x) − B(x)|``.

Differential privacy for weighted datasets (Definition 1) bounds the change
in output distribution by ``exp(ε · ‖A − B‖)``, so stable transformations are
exactly those that do not expand this distance.

:class:`WeightedDataset` is deliberately a thin, dictionary-backed value type:
the transformation semantics live in :mod:`repro.core.transformations`, the
privacy accounting in :mod:`repro.core.queryable`, and the incremental
evaluation in :mod:`repro.dataflow`.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Iterator, Mapping, Sequence
from typing import Any, Callable

__all__ = ["WeightedDataset", "DEFAULT_TOLERANCE"]

#: Weights whose magnitude falls below this threshold are treated as zero and
#: dropped from the dataset.  Keeping a tolerance avoids the accumulation of
#: floating point dust produced by long chains of rescaling transformations.
DEFAULT_TOLERANCE = 1e-12


class WeightedDataset:
    """An immutable mapping from hashable records to real-valued weights.

    Parameters
    ----------
    weights:
        A mapping or an iterable of ``(record, weight)`` pairs.  Weights of
        repeated records accumulate.  Records whose accumulated weight is
        within ``tolerance`` of zero are dropped.
    tolerance:
        Magnitude below which a weight is considered zero.

    Examples
    --------
    The two running examples from Section 2.1 of the paper::

        >>> A = WeightedDataset({"1": 0.75, "2": 2.0, "3": 1.0})
        >>> B = WeightedDataset({"1": 3.0, "4": 2.0})
        >>> A["2"]
        2.0
        >>> B["0"]
        0.0
        >>> A.total_weight()
        3.75
        >>> A.distance(B)
        7.25
    """

    __slots__ = ("_weights", "_tolerance", "_norm")

    def __init__(
        self,
        weights: Mapping[Any, float] | Iterable[tuple[Any, float]] | None = None,
        tolerance: float = DEFAULT_TOLERANCE,
    ) -> None:
        if tolerance < 0:
            raise ValueError("tolerance must be non-negative")
        accumulated: dict[Any, float] = {}
        if weights is not None:
            items = weights.items() if isinstance(weights, Mapping) else weights
            for record, weight in items:
                weight = float(weight)
                if not math.isfinite(weight):
                    # The record and its weight are protected data; naming
                    # them in the exception would leak them into logs (R004).
                    raise ValueError("dataset weights must be finite floats")
                accumulated[record] = accumulated.get(record, 0.0) + weight
        self._tolerance = float(tolerance)
        self._weights = {
            record: weight
            for record, weight in accumulated.items()
            if abs(weight) > self._tolerance
        }
        self._norm = sum(abs(weight) for weight in self._weights.values())

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def from_records(
        cls,
        records: Iterable[Any],
        weight: float = 1.0,
        tolerance: float = DEFAULT_TOLERANCE,
    ) -> "WeightedDataset":
        """Build a dataset from plain records, each contributing ``weight``.

        This is the usual way to lift a traditional dataset (a multiset) into
        the weighted world: every occurrence of a record adds ``weight`` (by
        default 1.0) to that record.
        """
        return cls(((record, weight) for record in records), tolerance=tolerance)

    @classmethod
    def empty(cls, tolerance: float = DEFAULT_TOLERANCE) -> "WeightedDataset":
        """Return the empty dataset (all weights zero)."""
        return cls(tolerance=tolerance)

    @classmethod
    def _from_unique(
        cls, records: list, weights: list[float], tolerance: float
    ) -> "WeightedDataset":
        """Adopt aligned rows the caller guarantees already meet the invariants.

        For rows that are distinct records with finite float weights of
        magnitude above ``tolerance`` — the decoded rows of
        ``ColumnarDataset.to_weighted``, or rows taken out of a dataset of the
        same tolerance (:meth:`partition_by`): the per-row
        accumulate/validate/filter passes of ``__init__`` would change
        nothing, so they are skipped.  Insertion order and the norm's
        summation order are those of ``__init__``.
        """
        dataset = cls.__new__(cls)
        dataset._tolerance = float(tolerance)
        dataset._weights = dict(zip(records, weights))
        dataset._norm = sum(map(abs, weights))
        return dataset

    # ------------------------------------------------------------------
    # Mapping-style access
    # ------------------------------------------------------------------
    def weight(self, record: Any) -> float:
        """Return ``A(record)``; zero for records not present."""
        return self._weights.get(record, 0.0)

    def __getitem__(self, record: Any) -> float:
        return self.weight(record)

    def __contains__(self, record: Any) -> bool:
        return record in self._weights

    def __iter__(self) -> Iterator[Any]:
        return iter(self._weights)

    def __len__(self) -> int:
        """Number of records with non-zero weight (the *support* size)."""
        return len(self._weights)

    def records(self) -> Iterator[Any]:
        """Iterate over records with non-zero weight."""
        return iter(self._weights)

    def items(self) -> Iterator[tuple[Any, float]]:
        """Iterate over ``(record, weight)`` pairs with non-zero weight."""
        return iter(self._weights.items())

    def to_dict(self) -> dict[Any, float]:
        """Return a copy of the underlying ``record -> weight`` mapping."""
        return dict(self._weights)

    def in_canonical_order(self) -> tuple[tuple, Sequence[float]]:
        """The records sorted by canonical token, and their weights aligned.

        The noise-draw order of a release (:class:`~repro.core.aggregation
        .ExactAnswer`): a stable sort of the iteration order, so records whose
        tokens tie keep it.  A subclass that holds its rows in another form
        must return this same order.
        """
        from .aggregation import _canonical_sort_key  # it imports this module

        ordered = sorted(self._weights.items(), key=_canonical_sort_key)
        return (
            tuple(record for record, _ in ordered),
            [weight for _, weight in ordered],
        )

    @property
    def tolerance(self) -> float:
        """Magnitude below which weights are treated as zero."""
        return self._tolerance

    # ------------------------------------------------------------------
    # Norms and distances
    # ------------------------------------------------------------------
    def total_weight(self) -> float:
        """Return ``‖A‖ = Σ_x |A(x)|``, the size of the dataset."""
        return self._norm

    #: Alias matching the paper's ‖A‖ notation.
    norm = total_weight

    def distance(self, other: "WeightedDataset") -> float:
        """Return ``‖A − B‖ = Σ_x |A(x) − B(x)|``."""
        if not isinstance(other, WeightedDataset):
            raise TypeError("distance is only defined between WeightedDatasets")
        total = 0.0
        for record, weight in self._weights.items():
            total += abs(weight - other._weights.get(record, 0.0))
        for record, weight in other._weights.items():
            if record not in self._weights:
                total += abs(weight)
        return total

    # ------------------------------------------------------------------
    # Arithmetic (used by the incremental engine and by Concat/Except)
    # ------------------------------------------------------------------
    def __add__(self, other: "WeightedDataset") -> "WeightedDataset":
        if not isinstance(other, WeightedDataset):
            return NotImplemented
        combined = dict(self._weights)
        for record, weight in other._weights.items():
            combined[record] = combined.get(record, 0.0) + weight
        return WeightedDataset(combined, tolerance=self._tolerance)

    def __sub__(self, other: "WeightedDataset") -> "WeightedDataset":
        if not isinstance(other, WeightedDataset):
            return NotImplemented
        combined = dict(self._weights)
        for record, weight in other._weights.items():
            combined[record] = combined.get(record, 0.0) - weight
        return WeightedDataset(combined, tolerance=self._tolerance)

    def scale(self, factor: float) -> "WeightedDataset":
        """Return the dataset with every weight multiplied by ``factor``."""
        factor = float(factor)
        return WeightedDataset(
            {record: weight * factor for record, weight in self._weights.items()},
            tolerance=self._tolerance,
        )

    def __mul__(self, factor: float) -> "WeightedDataset":
        return self.scale(factor)

    __rmul__ = __mul__

    def __neg__(self) -> "WeightedDataset":
        return self.scale(-1.0)

    # ------------------------------------------------------------------
    # Comparisons and filtering helpers
    # ------------------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, WeightedDataset):
            return NotImplemented
        return self.distance(other) <= max(self._tolerance, other._tolerance) * (
            1 + len(self) + len(other)
        )

    def __ne__(self, other: object) -> bool:
        result = self.__eq__(other)
        if result is NotImplemented:
            return result
        return not result

    def __hash__(self) -> int:  # pragma: no cover - explicit unhashability
        raise TypeError("WeightedDataset is not hashable")

    def is_empty(self) -> bool:
        """True if every record has (effectively) zero weight."""
        return not self._weights

    def restrict(self, predicate: Callable[[Any], bool]) -> "WeightedDataset":
        """Return the sub-dataset of records satisfying ``predicate``.

        This is a plain helper used internally (e.g. by Join's per-key
        restriction ``A_k``); the privacy-aware filtering operator is
        ``Where`` in :mod:`repro.core.transformations`.
        """
        return WeightedDataset(
            {
                record: weight
                for record, weight in self._weights.items()
                if predicate(record)
            },
            tolerance=self._tolerance,
        )

    def partition_by(
        self, key: Callable[[Any], Any]
    ) -> dict[Any, "WeightedDataset"]:
        """Partition the dataset by a key function: ``A = Σ_k A_k``."""
        parts: dict[Any, tuple[list, list[float]]] = {}
        for record, weight in self._weights.items():
            part_key = key(record)
            part = parts.get(part_key)
            if part is None:
                part = parts[part_key] = ([], [])
            part[0].append(record)
            part[1].append(weight)
        # Every part's rows already satisfy this dataset's invariants.
        return {
            part_key: WeightedDataset._from_unique(records, weights, self._tolerance)
            for part_key, (records, weights) in parts.items()
        }

    def top(self, count: int) -> list[tuple[Any, float]]:
        """Return the ``count`` heaviest records as ``(record, weight)`` pairs."""
        if count < 0:
            raise ValueError("count must be non-negative")
        ranked = sorted(self._weights.items(), key=lambda item: (-item[1], repr(item[0])))
        return ranked[:count]

    def __repr__(self) -> str:
        # Sanctioned debug affordance: the repr deliberately previews
        # protected records/weights for interactive use; nothing in the
        # release path ever logs a dataset repr.
        preview = ", ".join(
            f"{record!r}: {weight:.4g}"  # lint: disable=R004
            for record, weight in list(self._weights.items())[:6]
        )
        suffix = ", ..." if len(self._weights) > 6 else ""
        return (
            f"WeightedDataset({{{preview}{suffix}}}, "  # lint: disable=R004
            f"records={len(self._weights)}, norm={self._norm:.6g})"
        )
