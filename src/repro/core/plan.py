"""Logical query plans.

A wPINQ query is a DAG of stable transformations rooted at one or more
protected sources.  :class:`Plan` nodes capture that DAG so the platform can

* be evaluated by an execution backend (:mod:`repro.core.executor`) — either
  the eager :class:`~repro.core.executor.EagerExecutor` or the incremental
  dataflow engine (:mod:`repro.dataflow.engine`),
* price a measurement (:func:`stability_bounds`) — the per-source stability
  bound of Theorem 1, folded from each node's declared stability constant; it
  is Section 2.3's path count ``k`` when every constant is 1, and a
  measurement at ``ε`` is charged exactly ``bound·ε`` per source, and
* render itself for introspection (:meth:`Plan.describe`,
  :func:`explain_plan`).

Plans are shared, immutable, and compared by identity: the expression
``temp.join(temp, ...)`` reuses a single plan object on both sides, which
every backend exploits — the eager executor via memoisation, the dataflow
compiler via node reuse.  :meth:`Plan.evaluate` remains as a thin
compatibility wrapper over a one-shot eager executor.

**What a transformation is.**  Each plan type declares, once, the facts
every layer needs: ``op``, the transformation's name — the function of that
name in :mod:`repro.core.transformations` and in
:mod:`repro.columnar.kernels`, the key of both incremental engines' node
tables, and the node's kind on the shard wire — ``params``, the attribute
names of its operands in the order all of those take them after the child
datasets, and ``stability``, its proven stability constant, which is all the
privacy accounting knows about it.  Nothing outside this module dispatches
on a plan's *type*; analyses of a plan are ``visit`` functions handed to the
one traversal, :meth:`Plan.fold`.
"""

from __future__ import annotations

from collections import Counter
from typing import Any, Callable, Sequence

from ..exceptions import PlanError
from .dataset import WeightedDataset

__all__ = [
    "Plan",
    "PLAN_FOR_OP",
    "sum_by_key",
    "stability_bounds",
    "explain_plan",
    "SourcePlan",
    "SelectPlan",
    "WherePlan",
    "SelectManyPlan",
    "GroupByPlan",
    "ShavePlan",
    "JoinPlan",
    "UnionPlan",
    "IntersectPlan",
    "ConcatPlan",
    "ExceptPlan",
    "DistinctPlan",
    "DownScalePlan",
]


def sum_by_key(children: list[dict]) -> dict:
    """Add up the children's ``key -> number`` results of a :meth:`Plan.fold`.

    How per-source stability bounds combine at any transformation.  An only
    child's mapping is passed through as is, so results must be treated as
    read-only.
    """
    if len(children) == 1:
        return children[0]
    total: dict = {}
    for child in children:
        for key, value in child.items():
            total[key] = total.get(key, 0) + value
    return total


class Plan:
    """Base class for logical plan nodes."""

    #: The transformation this node applies (see the module docstring).
    op: str = ""
    #: Attribute names of the node's operands, in call order.
    params: tuple[str, ...] = ()
    #: Stability constant ``c`` (Definition 2, Theorems 1/4/5): the node's
    #: output moves by at most ``c`` times the sum of its inputs' distances.
    #: Every concrete type declares one; a node without it cannot be priced.
    stability: float | None = None
    #: Child plans, in evaluation order.  Binary operators have two entries
    #: (which may be the same object for self-joins).
    children: tuple["Plan", ...] = ()

    def operands(self) -> tuple[Any, ...]:
        """The operand values :attr:`params` names, in call order."""
        return tuple(getattr(self, name) for name in self.params)

    def fold(self, visit: Callable[["Plan", list], Any]) -> Any:
        """Reduce the DAG bottom-up: the one plan traversal.

        ``visit(node, child_results)`` is called exactly once per distinct
        node (shared sub-plans are memoised by identity), children before
        parents and left before right; a node reached through several edges
        hands the same result to each of them.  Returns the root's result.
        """
        results: dict[int, Any] = {}

        def reduce(node: Plan) -> Any:
            key = id(node)
            if key not in results:
                results[key] = visit(node, list(map(reduce, node.children)))
            return results[key]

        return reduce(self)

    def evaluate(
        self,
        environment: dict[str, WeightedDataset],
        memo: dict[int, WeightedDataset] | None = None,
    ) -> WeightedDataset:
        """Evaluate the plan against concrete datasets for every source.

        Compatibility wrapper over a one-shot
        :class:`~repro.core.executor.EagerExecutor`; shared sub-plans are
        evaluated once thanks to the memo cache keyed by plan identity.  Code
        that evaluates many plans (or the same plan repeatedly) should hold an
        executor instead.
        """
        from .executor import EagerExecutor

        return EagerExecutor(environment, memo=memo).recurse(self)

    def source_names(self) -> set[str]:
        """The set of protected source names referenced by the plan."""

        def visit(node: Plan, children: list[set[str]]) -> set[str]:
            return {node.name} if node.op == "source" else set().union(*children)

        return self.fold(visit)

    # Human-readable plan rendering (handy in error messages and docs).
    def describe(self, indent: int = 0) -> str:
        """Return an indented, human-readable rendering of the plan tree."""
        pad = "  " * indent
        lines = [f"{pad}{self._label()}"]
        for child in self.children:
            lines.append(child.describe(indent + 1))
        return "\n".join(lines)

    def _label(self) -> str:
        return type(self).__name__

    def __repr__(self) -> str:
        names = ", ".join(sorted(self.source_names()))
        return f"<{type(self).__name__} sources=[{names}]>"


class SourcePlan(Plan):
    """A leaf referring to a named protected dataset."""

    op = "source"
    params = ("name",)
    stability = 1.0

    def __init__(self, name: str) -> None:
        if not isinstance(name, str) or not name:
            raise PlanError("source name must be a non-empty string")
        self.name = name

    def _label(self) -> str:
        return f"Source({self.name})"


class _UnaryPlan(Plan):
    """Common machinery for single-input transformations."""

    def __init__(self, child: Plan) -> None:
        if not isinstance(child, Plan):
            raise PlanError(f"expected a Plan child, got {type(child).__name__}")
        self.child = child
        self.children = (child,)


class SelectPlan(_UnaryPlan):
    """Per-record mapping with weight accumulation (Section 2.4)."""

    op = "select"
    params = ("mapper",)
    stability = 1.0

    def __init__(self, child: Plan, mapper: Callable[[Any], Any]) -> None:
        super().__init__(child)
        self.mapper = mapper


class WherePlan(_UnaryPlan):
    """Per-record filtering (Section 2.4)."""

    op = "where"
    params = ("predicate",)
    stability = 1.0

    def __init__(self, child: Plan, predicate: Callable[[Any], bool]) -> None:
        super().__init__(child)
        self.predicate = predicate


class SelectManyPlan(_UnaryPlan):
    """One-to-many mapping with data-dependent rescaling (Section 2.4)."""

    op = "select_many"
    params = ("mapper",)
    stability = 1.0

    def __init__(self, child: Plan, mapper: Callable[[Any], Any]) -> None:
        super().__init__(child)
        self.mapper = mapper


class GroupByPlan(_UnaryPlan):
    """Keyed grouping and reduction (Section 2.5)."""

    op = "group_by"
    params = ("key", "reducer")
    stability = 1.0

    def __init__(
        self,
        child: Plan,
        key: Callable[[Any], Any],
        reducer: Callable[[Sequence[Any]], Any] = tuple,
    ) -> None:
        super().__init__(child)
        self.key = key
        self.reducer = reducer


class ShavePlan(_UnaryPlan):
    """Decompose heavy records into indexed unit slices (Section 2.8)."""

    op = "shave"
    params = ("slice_weights",)
    stability = 1.0

    def __init__(
        self, child: Plan, slice_weights: float | Sequence[float] | Callable[[Any], Any] = 1.0
    ) -> None:
        super().__init__(child)
        self.slice_weights = slice_weights


class DistinctPlan(_UnaryPlan):
    """Cap every record's weight at a constant (PINQ's ``Distinct``)."""

    op = "distinct"
    params = ("cap",)
    stability = 1.0

    def __init__(self, child: Plan, cap: float = 1.0) -> None:
        super().__init__(child)
        cap = float(cap)
        if cap <= 0:
            raise PlanError("Distinct cap must be positive")
        self.cap = cap

    def _label(self) -> str:
        return f"Distinct(cap={self.cap:g})"


class DownScalePlan(_UnaryPlan):
    """Uniformly scale every weight down by a constant in ``(0, 1]``."""

    op = "down_scale"
    params = ("factor",)

    @property
    def stability(self) -> float:
        """Scaling every weight by ``factor`` scales every distance by it."""
        return self.factor

    def __init__(self, child: Plan, factor: float) -> None:
        super().__init__(child)
        factor = float(factor)
        if not 0.0 < factor <= 1.0:
            raise PlanError("DownScale factor must satisfy 0 < factor <= 1")
        self.factor = factor

    def _label(self) -> str:
        return f"DownScale(factor={self.factor:g})"


class _BinaryPlan(Plan):
    """Common machinery for two-input transformations."""

    def __init__(self, left: Plan, right: Plan) -> None:
        for side in (left, right):
            if not isinstance(side, Plan):
                raise PlanError(f"expected Plan operands, got {type(side).__name__}")
        self.left = left
        self.right = right
        self.children = (left, right)


class JoinPlan(_BinaryPlan):
    """wPINQ's weight-rescaling equi-join (Section 2.7)."""

    op = "join"
    params = ("left_key", "right_key", "result_selector")
    stability = 1.0

    def __init__(
        self,
        left: Plan,
        right: Plan,
        left_key: Callable[[Any], Any],
        right_key: Callable[[Any], Any],
        result_selector: Callable[[Any, Any], Any] = lambda a, b: (a, b),
    ) -> None:
        super().__init__(left, right)
        self.left_key = left_key
        self.right_key = right_key
        self.result_selector = result_selector


class UnionPlan(_BinaryPlan):
    """Element-wise maximum of weights (Section 2.6)."""

    op = "union"
    stability = 1.0


class IntersectPlan(_BinaryPlan):
    """Element-wise minimum of weights (Section 2.6)."""

    op = "intersect"
    stability = 1.0


class ConcatPlan(_BinaryPlan):
    """Element-wise sum of weights (Section 2.6)."""

    op = "concat"
    stability = 1.0


class ExceptPlan(_BinaryPlan):
    """Element-wise difference of weights (Section 2.6)."""

    op = "except_"
    stability = 1.0


#: ``op`` -> the plan type that ``type(*children, *operands)`` rebuilds, which
#: is what the shard codec does with a wire row.  A plan type that borrows
#: another's ``op`` (a partition part is a ``where``) is not listed and so has
#: no portable encoding.
PLAN_FOR_OP: dict[str, type[Plan]] = {
    plan_type.op: plan_type
    for plan_type in (
        SourcePlan,
        SelectPlan,
        WherePlan,
        SelectManyPlan,
        GroupByPlan,
        ShavePlan,
        DistinctPlan,
        DownScalePlan,
        JoinPlan,
        UnionPlan,
        IntersectPlan,
        ConcatPlan,
        ExceptPlan,
    )
}


def stability_bounds(
    plan: Plan,
    nodes: dict[int, dict] | None = None,
    leaf: Callable[[Plan], Any] | None = None,
) -> dict:
    """The per-source stability bound of ``plan``: what a measurement costs.

    ``‖Q(A) − Q(A')‖ ≤ bound[s] · ‖A − A'‖`` when only source ``s`` changes
    (Theorem 1), so a measurement of ``plan`` at ``ε`` is
    ``bound[s]·ε``-differentially private for ``s`` — and that is exactly what
    the budget machinery charges.  A source leaf's bound is its own constant
    (1); any other node adds up its children's bounds per source and
    multiplies the sum by its :attr:`Plan.stability`.  A source reached along
    several paths therefore counts once per path (Section 2.3's multiplicity
    ``k``, which is the bound whenever every constant is 1, as an
    integer-valued float), and ``DownScale(f)`` scales everything below it by
    ``f``.  Cost is linear in the number of distinct nodes.

    ``nodes``, when given, receives every node's bound keyed by ``id(node)``
    (the ``explain --verify`` annotations).  ``leaf(node)``, when given, may
    return a key at which the fold stops as it does at a source, with the
    node's constant as the bound: a partition group ends paths at its parts.
    Returned mappings may be shared between nodes and are read-only.  Raises
    :class:`~repro.exceptions.PlanError` naming the type of a node that
    declares no stability constant — an unknown transformation could amplify
    distances arbitrarily, so nothing is charged for it.
    """
    if not isinstance(plan, Plan):
        raise PlanError(f"expected a Plan, got {type(plan).__name__}")

    def visit(node: Plan, children: list[dict]) -> dict:
        constant = node.stability
        if constant is None:
            raise PlanError(
                f"no stability constant is declared for plan node {type(node).__name__}"
            )
        key = None if leaf is None else leaf(node)
        if key is not None:
            bound = {key: constant}
        elif node.op == "source":
            bound = {node.name: constant}
        else:
            bound = sum_by_key(children)
            if constant != 1.0:
                bound = {name: value * constant for name, value in bound.items()}
        if nodes is not None:
            nodes[id(node)] = bound
        return bound

    return plan.fold(visit)


def explain_plan(
    plan: Plan,
    epsilon: float | None = None,
    backend: str | None = None,
    verify: bool = False,
) -> str:
    """Render a plan as a readable tree annotated with what it costs.

    Sub-plans referenced more than once (the shared DAG nodes every execution
    backend evaluates a single time) are tagged ``#n`` on first appearance and
    rendered as a back-reference afterwards.  The footer lists, per protected
    source, the stability bound of :func:`stability_bounds` — and, when
    ``epsilon`` is supplied, the charge ``bound·ε`` a measurement at that ε
    incurs.

    ``backend`` (``"eager"``, ``"dataflow"``, ``"vectorized"`` or
    ``"sharded"``) annotates every node with the execution backend that will
    evaluate it, making the ``"auto"`` and ``"sharded"`` executors' routing
    decisions inspectable.  On ``"vectorized"``
    a node whose callables are not all structural specs is marked
    ``(per-record)``: its kernel calls Python once per record instead of
    running on the field columns.

    ``verify=True`` annotates every node with its own per-source stability
    bound and appends the portability verdict of the shard codec's analysis
    (:mod:`repro.lint.plans`).  The default output is byte-identical to
    ``verify=False``.
    """
    if not isinstance(plan, Plan):
        raise PlanError(f"explain_plan expects a Plan, got {type(plan).__name__}")
    suffix = f" @{backend}" if backend else ""
    per_record = None
    if backend == "vectorized":
        # Imported lazily: repro.columnar imports this module.
        from ..columnar.executor import runs_per_record as per_record

    node_bounds: dict[int, dict] | None = {} if verify else None
    bounds = stability_bounds(plan, node_bounds)
    if verify:
        # Imported lazily: repro.lint.plans imports this module.
        from ..lint.plans import check_portability, format_bounds

    references: Counter = Counter()

    def count(node: Plan, _children: list) -> None:
        for child in node.children:
            references[id(child)] += 1

    plan.fold(count)
    shared_ids = {node_id for node_id, uses in references.items() if uses > 1}

    lines: list[str] = []
    tags: dict[int, int] = {}

    def render(node: Plan, depth: int) -> None:
        pad = "  " * depth
        node_id = id(node)
        if node_id in tags:
            lines.append(f"{pad}#{tags[node_id]} {node._label()} (shared, defined above)")
            return
        tag = ""
        if node_id in shared_ids:
            tags[node_id] = len(tags) + 1
            tag = f"  [#{tags[node_id]}]"
        bound = ""
        if node_bounds is not None:
            bound = f"  [stability: {format_bounds(node_bounds[node_id])}]"
        slow = " (per-record)" if per_record is not None and per_record(node) else ""
        lines.append(f"{pad}{node._label()}{suffix}{slow}{tag}{bound}")
        for child in node.children:
            render(child, depth + 1)

    render(plan, 0)

    lines.append("")
    if not bounds:
        lines.append("sources: (none)")
    else:
        lines.append("sources:")
        for name, bound in sorted(bounds.items()):
            note = f"  {name}: x{bound:g}"
            if epsilon is not None:
                note += f"  (measurement at eps={epsilon:g} charges {bound * epsilon:g})"
            else:
                note += f"  (a measurement at eps charges {bound:g}*eps)"
            lines.append(note)

    if verify:
        lines.append("")
        lines.append("static verification:")
        lines.append(f"  stability bound: {format_bounds(bounds) or '(no sources)'}")
        portability = check_portability(plan)
        if not portability:
            lines.append("  portability: OK (plan can ship to shard workers)")
        else:
            lines.append(f"  portability: {len(portability)} issue(s)")
            for item in portability:
                lines.append(f"    - {item.message}")
    return "\n".join(lines)
