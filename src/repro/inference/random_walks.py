"""Random walks over candidate datasets (Section 4.2 / 5.1).

Metropolis–Hastings needs a reversible random walk over the space of
candidate inputs.  Two walks are provided:

* :class:`EdgeSwapWalk` — the paper's graph walk: pick two random edges
  ``(a, b)`` and ``(c, d)`` and propose replacing them with ``(a, d)`` and
  ``(c, b)``.  The move preserves every node's degree, so a synthetic graph
  seeded with the DP degree sequence keeps that degree sequence forever.
* :class:`RecordReplacementWalk` — the "natural default" walk for plain
  weighted datasets: move one unit of weight from a random current record to
  a random record of the domain.

Both expose their proposals as deltas against the wPINQ source dataset, which
is what the incremental engine consumes.
"""

from __future__ import annotations

from typing import Any, Hashable, Sequence

import numpy as np

from ..dataflow.delta import Delta
from ..graph.graph import Graph

__all__ = ["EdgeSwapWalk", "RecordReplacementWalk"]


class EdgeSwapWalk:
    """Degree-preserving edge-swap proposals over a synthetic graph.

    The walk owns the synthetic :class:`~repro.graph.graph.Graph` (public
    data) and keeps an edge list for O(1) sampling, with an edge → slot map
    beside it so an accepted swap rewrites its two slots in O(1).  Proposals
    are returned as the delta to the *symmetric directed* edge dataset plus
    accept/reject callbacks that keep the graph and the edge list in sync
    with the engine.
    """

    def __init__(self, graph: Graph, rng: np.random.Generator | int | None = None) -> None:
        self.graph = graph
        self._rng = rng if isinstance(rng, np.random.Generator) else np.random.default_rng(rng)
        self._edges: list[tuple[Any, Any]] = graph.edge_list()
        self._slots: dict[tuple[Any, Any], int] = {
            edge: slot for slot, edge in enumerate(self._edges)
        }

    @property
    def rng(self) -> np.random.Generator:
        """The generator used to sample proposals."""
        return self._rng

    def propose(self) -> tuple[Delta, Any, Any, Any, Any] | None:
        """Sample a candidate swap; returns None if the sample is invalid.

        Returns the symmetric edge-record delta and the four endpoints
        ``(a, b, c, d)`` of the proposed swap ``(a,b),(c,d) -> (a,d),(c,b)``.
        """
        if len(self._edges) < 2:
            return None
        first = int(self._rng.integers(0, len(self._edges)))
        second = int(self._rng.integers(0, len(self._edges)))
        if first == second:
            return None
        a, b = self._edges[first]
        c, d = self._edges[second]
        if self._rng.random() < 0.5:
            c, d = d, c
        if not self.graph.can_swap(a, b, c, d):
            return None
        delta = edge_swap_delta(a, b, c, d)
        return delta, a, b, c, d

    def proposal_for_engine(self, source_name: str = "edges"):
        """Adapt :meth:`propose` to the incremental MCMC proposal protocol.

        Returns a callable suitable for
        :class:`~repro.inference.mcmc.IncrementalMetropolisHastings`: it
        produces ``(deltas, on_accept, on_reject)`` tuples where ``on_accept``
        commits the swap to the synthetic graph and ``on_reject`` leaves it
        untouched.
        """

        def generate(rng: np.random.Generator):
            del rng  # the walk keeps its own generator for reproducibility
            proposal = self.propose()
            if proposal is None:
                return None
            delta, a, b, c, d = proposal

            def on_accept() -> None:
                self.graph.swap_edges(a, b, c, d)
                self._replace_edge((a, b), (a, d))
                self._replace_edge((c, d), (c, b))

            def on_reject() -> None:
                return None

            return {source_name: delta}, on_accept, on_reject

        return generate

    def _replace_edge(self, old: tuple[Any, Any], new: tuple[Any, Any]) -> None:
        """Swap one entry of the edge list (either orientation of ``old``)."""
        slot = self._slots.pop(old, None)
        if slot is None:
            slot = self._slots.pop((old[1], old[0]))
        self._edges[slot] = new
        self._slots[new] = slot


def edge_swap_delta(a: Any, b: Any, c: Any, d: Any) -> Delta:
    """The symmetric-edge-record delta of the swap ``(a,b),(c,d) -> (a,d),(c,b)``."""
    return {
        (a, b): -1.0,
        (b, a): -1.0,
        (c, d): -1.0,
        (d, c): -1.0,
        (a, d): 1.0,
        (d, a): 1.0,
        (c, b): 1.0,
        (b, c): 1.0,
    }


class RecordReplacementWalk:
    """The default walk of Section 4.2 for plain weighted datasets.

    Each proposal removes one unit of weight from a randomly chosen current
    record and adds one unit to a record drawn uniformly from the supplied
    domain.  The state is kept as a ``record -> weight`` dictionary.
    """

    def __init__(
        self,
        initial: dict[Hashable, float],
        domain: Sequence[Hashable],
        rng: np.random.Generator | int | None = None,
    ) -> None:
        if not domain:
            raise ValueError("the record domain must not be empty")
        self.weights = {record: float(weight) for record, weight in initial.items() if weight > 0}
        self.domain = list(domain)
        self._rng = rng if isinstance(rng, np.random.Generator) else np.random.default_rng(rng)

    def propose(self) -> Delta | None:
        """One unit of weight moved from a current record to a domain record."""
        current = [record for record, weight in self.weights.items() if weight > 0]
        if not current:
            return None
        source = current[int(self._rng.integers(0, len(current)))]
        target = self.domain[int(self._rng.integers(0, len(self.domain)))]
        if source == target:
            return None
        return {source: -1.0, target: 1.0}

    def apply(self, delta: Delta) -> None:
        """Fold an accepted proposal back into the walk's state."""
        for record, change in delta.items():
            updated = self.weights.get(record, 0.0) + change
            if updated <= 0:
                self.weights.pop(record, None)
            else:
                self.weights[record] = updated

    def proposal_for_engine(self, source_name: str):
        """Adapt the walk to :class:`IncrementalMetropolisHastings`."""

        def generate(rng: np.random.Generator):
            del rng
            delta = self.propose()
            if delta is None:
                return None

            def on_accept() -> None:
                self.apply(delta)

            def on_reject() -> None:
                return None

            return {source_name: delta}, on_accept, on_reject

        return generate
