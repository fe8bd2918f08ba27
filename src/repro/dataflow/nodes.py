"""Base classes for incremental dataflow nodes.

The incremental engine (Section 4.3 of the paper) represents a wPINQ query as
a directed acyclic dataflow graph.  Each vertex is an operator node; each edge
carries weight *deltas* from a producer to one input *port* of a consumer.
When a small change is applied to a source (e.g. an MCMC edge swap), the
change propagates through the graph and only the affected portions of each
operator's output are recomputed — the data-parallel structure of every wPINQ
transformation is what makes this cheap.

Nodes follow a simple push protocol:

* ``node.on_delta(delta, port)`` is called by an upstream producer;
* the node updates its internal state (if any) and computes the delta of its
  *output* collection;
* the output delta is forwarded to every subscribed ``(consumer, port)`` pair
  via :meth:`Node.emit`.

Correctness does not depend on delivery order: a node with two inputs fed by
the same upstream producer (a self-join) simply processes two successive
correct incremental updates, and downstream consumers sum the emitted deltas.

Every node holds a reference to an :class:`~repro.dataflow.delta.UndoLog`
(its engine's, once compiled into one).  A node that overwrites a cell of its
state passes ``self.undo.cells`` to the write, so that a speculative step can
be rolled back exactly; outside an open step that is ``None`` and nothing is
recorded.
"""

from __future__ import annotations

from typing import Any, Callable, Mapping

from ..core.dataset import DEFAULT_TOLERANCE, WeightedDataset
from .delta import Delta, UndoLog, apply_delta, prune

__all__ = ["Node", "SourceNode", "OutputCollector"]


class Node:
    """A vertex of the incremental dataflow graph."""

    def __init__(self, name: str = "") -> None:
        self.name = name or type(self).__name__
        self._consumers: list[tuple["Node", int]] = []
        #: Replaced by the owning engine's log when the node joins a graph.
        self.undo = UndoLog()

    # ------------------------------------------------------------------
    def subscribe(self, consumer: "Node", port: int = 0) -> None:
        """Register ``consumer`` to receive this node's output deltas."""
        self._consumers.append((consumer, port))

    def emit(self, delta: Delta) -> None:
        """Forward an output delta to every subscribed consumer.

        The caller gives ``delta`` away: the last consumer receives the object
        itself, the others a copy each (consumers may mutate deltas while
        folding them into their state).
        """
        prune(delta)
        if not delta:
            return
        consumers = self._consumers
        for consumer, port in consumers[:-1]:
            consumer.on_delta(dict(delta), port)
        if consumers:
            consumer, port = consumers[-1]
            consumer.on_delta(delta, port)

    # ------------------------------------------------------------------
    def on_delta(self, delta: Delta, port: int = 0) -> None:
        """Process an input delta arriving on ``port`` (subclasses override)."""
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.name!r}>"


class SourceNode(Node):
    """Entry point of the graph; one per protected/synthetic source.

    The engine pushes deltas into sources; the node keeps the accumulated
    dataset (useful for debugging and for re-synchronisation checks) and
    forwards the delta unchanged.
    """

    def __init__(self, name: str) -> None:
        super().__init__(name)
        self.weights: dict[Any, float] = {}

    def on_delta(self, delta: Delta, port: int = 0) -> None:
        apply_delta(self.weights, delta, undo=self.undo.cells)
        self.emit(delta)

    def current(self) -> WeightedDataset:
        """The accumulated source dataset."""
        return WeightedDataset(self.weights)


class OutputCollector(Node):
    """Terminal node accumulating the current output of a query plan.

    Besides keeping the materialised output, collectors notify registered
    listeners of every delta they absorb.  The MCMC scorer uses a listener to
    maintain ``‖Q(A) − m‖₁`` incrementally instead of rescanning the whole
    output after each proposal.
    """

    def __init__(self, name: str = "output", tolerance: float = DEFAULT_TOLERANCE) -> None:
        super().__init__(name)
        self.weights: dict[Any, float] = {}
        self._tolerance = tolerance
        self._listeners: list[Callable[[Mapping[Any, float], Mapping[Any, float]], None]] = []

    def add_listener(
        self, listener: Callable[[Mapping[Any, float], Mapping[Any, float]], None]
    ) -> None:
        """Register ``listener(old_weights_for_changed_records, delta)``.

        The first argument maps every record touched by the delta to its
        weight *before* the delta was applied, so listeners can compute
        old-vs-new differences without storing their own copy of the output.
        """
        self._listeners.append(listener)

    def on_delta(self, delta: Delta, port: int = 0) -> None:
        weights = self.weights
        old = {record: weights.get(record, 0.0) for record in delta}
        apply_delta(weights, delta, self._tolerance, self.undo.cells)
        for listener in self._listeners:
            listener(old, delta)

    def current(self) -> WeightedDataset:
        """The accumulated query output as a dataset."""
        return WeightedDataset(self.weights)

    def weight(self, record: Any) -> float:
        """Current output weight of ``record``."""
        return self.weights.get(record, 0.0)
