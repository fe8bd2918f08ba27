"""Weight deltas: the currency of the incremental dataflow engine.

A *delta* is simply a mapping ``record -> change in weight``.  Pushing the
delta ``{x: +1.0}`` into a source corresponds to adding a unit-weight record
``x``; ``{x: -1.0}`` removes it.  The incremental operators in
:mod:`repro.dataflow.operators` consume input deltas and emit output deltas so
that, after any sequence of pushes, every operator's accumulated output equals
what the eager evaluator would produce on the accumulated input — the
correspondence the engine's tests verify exhaustively.

Deltas are plain ``dict`` objects; this module only provides the small set of
helpers the operators share (accumulation, negation, pruning of floating-point
dust and conversion from datasets) and the :class:`UndoLog` that makes a
speculative push exactly reversible.
"""

from __future__ import annotations

from collections.abc import Mapping
from typing import Any, Iterable

from ..core.dataset import DEFAULT_TOLERANCE, WeightedDataset
from ..exceptions import DataflowError

__all__ = [
    "Delta",
    "delta_from_dataset",
    "accumulate",
    "negate",
    "prune",
    "apply_change",
    "apply_delta",
    "UndoLog",
]

#: Type alias used throughout the dataflow package.
Delta = dict


def delta_from_dataset(dataset: WeightedDataset) -> Delta:
    """View a dataset as a delta from the empty dataset."""
    return dataset.to_dict()


def accumulate(target: Delta, updates: Mapping[Any, float] | Iterable[tuple[Any, float]]) -> Delta:
    """Add ``updates`` into ``target`` in place and return it."""
    items = updates.items() if isinstance(updates, Mapping) else updates
    for record, weight in items:
        target[record] = target.get(record, 0.0) + weight
    return target


def negate(delta: Mapping[Any, float]) -> Delta:
    """Return the delta with every weight change negated."""
    return {record: -weight for record, weight in delta.items()}


def prune(delta: Delta, tolerance: float = DEFAULT_TOLERANCE) -> Delta:
    """Drop entries whose magnitude is below ``tolerance`` (in place)."""
    stale = [record for record, weight in delta.items() if abs(weight) <= tolerance]
    for record in stale:
        del delta[record]
    return delta


class UndoLog:
    """Prior values of the state cells overwritten while a step is open.

    A *cell* is one entry of a state dict: a record's weight in a source,
    collector or operator weight dict, a key's part in a Join/GroupBy index,
    or an attribute in an object's instance dict (a ``MeasurementScore``'s
    distance).  While a step is open (:meth:`begin`), every write to a cell
    first appends ``(state dict, key, prior value)`` to :attr:`cells`, with
    ``None`` standing for "the key was absent".  :meth:`rollback` walks the
    entries backwards and puts each prior value back, so a cell written twice
    in one step ends at its oldest value, and the state is *identical* to what
    it was before the step — restored, not re-derived by arithmetic, so no
    floating-point dust is left behind.  :meth:`commit` just drops the entries.

    ``cells`` is ``None`` whenever no step is open; writers test that and
    record nothing, which keeps ``initialize()`` and ordinary pushes free of
    any bookkeeping.  One log belongs to one engine.
    """

    __slots__ = ("cells",)

    def __init__(self) -> None:
        self.cells: list[tuple[dict, Any, Any]] | None = None

    def begin(self) -> None:
        """Open a step: writes are recorded from here on."""
        if self.cells is not None:
            raise DataflowError("a step is already open")
        self.cells = []

    def _close(self) -> list[tuple[dict, Any, Any]]:
        cells, self.cells = self.cells, None
        if cells is None:
            raise DataflowError("no step is open")
        return cells

    def commit(self) -> None:
        """Close the step, keeping everything it wrote."""
        self._close()

    def rollback(self) -> None:
        """Close the step, restoring every cell it wrote."""
        for state, key, prior in reversed(self._close()):
            if prior is None:
                state.pop(key, None)
            else:
                state[key] = prior


def apply_change(
    weights: dict,
    record: Any,
    change: float,
    tolerance: float = DEFAULT_TOLERANCE,
    undo: list | None = None,
) -> float:
    """Add ``change`` to one record's weight in place; returns the new weight.

    A resulting weight within ``tolerance`` of zero removes the record (and
    returns ``0.0``) so state does not accumulate dead entries over long MCMC
    runs.  ``undo`` is the open step's :attr:`UndoLog.cells`, if any.
    """
    prior = weights.get(record)
    if undo is not None:
        undo.append((weights, record, prior))
    updated = change if prior is None else prior + change
    if abs(updated) <= tolerance:
        if prior is not None:
            del weights[record]
        return 0.0
    weights[record] = updated
    return updated


def apply_delta(
    weights: dict,
    delta: Mapping[Any, float],
    tolerance: float = DEFAULT_TOLERANCE,
    undo: list | None = None,
) -> dict:
    """Apply a delta to a ``record -> weight`` dict in place and return it."""
    for record, change in delta.items():
        apply_change(weights, record, change, tolerance, undo)
    return weights
