"""Compiling logical plans into an incremental dataflow graph.

The :class:`DataflowEngine` takes one or more :class:`~repro.core.plan.Plan`
DAGs (typically the plans behind the measurements an analyst released), builds
the corresponding graph of incremental operator nodes, and exposes a small
imperative API:

* :meth:`DataflowEngine.initialize` — load the initial (synthetic) datasets;
* :meth:`DataflowEngine.push` — apply a delta to a source and propagate it;
* :meth:`DataflowEngine.begin` / :meth:`~DataflowEngine.commit` /
  :meth:`~DataflowEngine.rollback` — make the pushes in between one
  speculative step that can be undone exactly;
* :meth:`DataflowEngine.output` — read the currently materialised output of
  any registered plan.

Shared sub-plans compile to shared nodes, so a self-join such as
``temp.join(temp, ...)`` is represented once and fed through both ports, and
the state kept by Join/GroupBy/Shave nodes is never duplicated.  This is the
engine that gives Metropolis–Hastings its per-step cost proportional to the
amount of *changed* intermediate data rather than the total query size
(Section 4.3).
"""

from __future__ import annotations

from typing import Any, Iterable, Mapping

from ..core.dataset import WeightedDataset
from ..core.plan import Plan
from ..exceptions import DataflowError
from .delta import Delta, UndoLog, prune
from .nodes import Node, OutputCollector, SourceNode
from .operators import NODE_FOR_OP

__all__ = ["DataflowEngine"]


class DataflowEngine:
    """Incremental evaluator for a set of wPINQ query plans.

    **Speculative steps.**  Metropolis–Hastings applies a proposal, reads the
    score and usually rejects.  Between :meth:`begin` and :meth:`commit` /
    :meth:`rollback` every state cell a push overwrites — source, collector
    and operator weights, Join/GroupBy parts (created or dropped), the
    residual of each listening ``MeasurementScore`` — first records its prior
    value in the engine's own :class:`~repro.dataflow.delta.UndoLog`.
    ``rollback()`` puts those values back, newest first: a reject costs one
    propagation plus a walk over the cells it touched, not two propagations,
    and the state afterwards is bit-for-bit the state before.  ``commit()``
    drops the log.  ``initialize()`` and pushes outside an open step record
    nothing.
    """

    def __init__(self) -> None:
        self._undo = UndoLog()
        self._sources: dict[str, SourceNode] = {}
        self._nodes: dict[int, Node] = {}
        self._collectors: dict[int, OutputCollector] = {}
        self._all_nodes: list[Node] = []
        self._initialized = False

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_plans(cls, plans: Iterable[Plan]) -> "DataflowEngine":
        """Build an engine with a collector registered for every plan."""
        engine = cls()
        for plan in plans:
            engine.add_plan(plan)
        return engine

    def add_plan(self, plan: Plan) -> OutputCollector:
        """Register ``plan`` and return the collector holding its output.

        Plans must be added before :meth:`initialize` so that the initial data
        load reaches every operator.
        """
        if self._initialized:
            raise DataflowError("cannot add plans after the engine has been initialized")
        if id(plan) in self._collectors:
            return self._collectors[id(plan)]
        node = self._compile(plan)
        collector = OutputCollector(name=f"collector:{type(plan).__name__}")
        node.subscribe(collector, 0)
        self._collectors[id(plan)] = collector
        self._adopt(collector)
        return collector

    def _adopt(self, node: Node) -> None:
        """Add a node to the graph and point it at this engine's undo log."""
        node.undo = self._undo
        self._all_nodes.append(node)

    def _compile(self, plan: Plan) -> Node:
        """Recursively compile a plan into nodes, sharing repeated sub-plans.

        Not a :meth:`Plan.fold`: a node subscribes to child *k* as soon as
        child *k* is compiled, before child *k+1* is, and that order is the
        order deltas propagate in.
        """
        existing = self._nodes.get(id(plan))
        if existing is not None:
            return existing
        op = getattr(plan, "op", None)  # None (not a Plan): refused below
        if op == "source":
            node = self._sources.get(plan.name)
            if node is None:
                node = self._sources[plan.name] = SourceNode(plan.name)
                self._adopt(node)
            self._nodes[id(plan)] = node
            return node
        node_type = NODE_FOR_OP.get(op)
        if node_type is None:
            raise DataflowError(f"cannot compile plan node of type {type(plan).__name__}")
        node = self._nodes[id(plan)] = node_type(*plan.operands())
        self._adopt(node)
        for port, child in enumerate(plan.children):
            self._compile(child).subscribe(node, port)
        return node

    # ------------------------------------------------------------------
    # Data loading and updates
    # ------------------------------------------------------------------
    def source_names(self) -> set[str]:
        """Names of all sources referenced by the registered plans."""
        return set(self._sources)

    def initialize(
        self, environment: Mapping[str, WeightedDataset | Mapping[Any, float]]
    ) -> None:
        """Load initial datasets by pushing them as deltas from empty.

        Sources that the plans reference but ``environment`` omits start out
        empty; extra entries in ``environment`` are ignored.
        """
        if self._initialized:
            raise DataflowError("engine is already initialized")
        self._initialized = True
        for name, source in self._sources.items():
            data = environment.get(name)
            if data is None:
                continue
            if isinstance(data, WeightedDataset):
                delta = data.to_dict()
            else:
                delta = dict(data)
            prune(delta)
            if delta:
                source.on_delta(delta, 0)

    def push(self, source_name: str, delta: Delta) -> None:
        """Apply ``delta`` to a source and propagate it through the graph."""
        if not self._initialized:
            raise DataflowError("initialize() must be called before push()")
        source = self._sources.get(source_name)
        if source is None:
            raise DataflowError(f"no source named {source_name!r} in this engine")
        delta = dict(delta)
        if delta:
            source.on_delta(delta, 0)

    # ------------------------------------------------------------------
    # Speculative steps
    # ------------------------------------------------------------------
    def begin(self) -> None:
        """Open a step: pushes are recorded until ``commit``/``rollback``."""
        self._undo.begin()

    def commit(self) -> None:
        """Keep everything pushed since :meth:`begin`."""
        self._undo.commit()

    def rollback(self) -> None:
        """Restore the exact state :meth:`begin` saw."""
        self._undo.rollback()

    # ------------------------------------------------------------------
    # Reading outputs
    # ------------------------------------------------------------------
    def collector(self, plan: Plan) -> OutputCollector:
        """The collector registered for ``plan`` (by identity)."""
        try:
            return self._collectors[id(plan)]
        except KeyError as exc:
            raise DataflowError("plan was not registered with add_plan") from exc

    def output(self, plan: Plan) -> WeightedDataset:
        """Currently materialised output of ``plan``."""
        return self.collector(plan).current()

    def source_dataset(self, source_name: str) -> WeightedDataset:
        """Currently accumulated contents of a source."""
        source = self._sources.get(source_name)
        if source is None:
            raise DataflowError(f"no source named {source_name!r} in this engine")
        return source.current()

    # ------------------------------------------------------------------
    # Introspection (used by the scalability experiment, Figure 6)
    # ------------------------------------------------------------------
    def state_entry_count(self) -> int:
        """Total number of weighted entries held by all operator state.

        This is a platform-independent proxy for the memory footprint the
        paper reports: it grows with the size of intermediate results such as
        the length-two path index of the triangle queries (≈ Σ_v d_v²).
        """
        total = 0
        for node in self._all_nodes:
            total += _node_state_entries(node)
        return total

    def node_count(self) -> int:
        """Number of operator nodes in the compiled graph."""
        return len(self._all_nodes)


def _node_state_entries(node: Node) -> int:
    """Count the weighted entries stored by one node's private state."""
    total = 0
    for attribute in vars(node).values():
        total += _count_entries(attribute)
    return total


def _count_entries(value: Any) -> int:
    if isinstance(value, dict):
        total = 0
        for nested in value.values():
            if isinstance(nested, dict):
                total += len(nested)
            elif isinstance(nested, (int, float)):
                total += 1
            else:
                total += _count_entries(nested)
        return total
    if isinstance(value, tuple):
        return sum(_count_entries(item) for item in value)
    return 0
