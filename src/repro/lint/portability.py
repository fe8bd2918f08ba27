"""Shared portability analysis for plan parameters.

A plan parameter is *portable* when it can cross a process boundary intact:
a structural :class:`~repro.columnar.specs.ColumnarSpec` (pickled by value),
a module-level function (pickled by reference), or a plain picklable value
(shave slice weights, caps, factors, source names).  Lambdas, closures and
bound methods are not — they either fail to pickle outright or drag
unpicklable state with them.

This module is the single source of truth for that judgement.  The shard
wire codec (:mod:`repro.shard.plan`) raises the first of
:func:`node_portability_issues` at encode time; the static plan checker
(:mod:`repro.lint.plans`) calls :func:`plan_portability_issues` to surface
the same findings *before* a plan ever reaches a worker.  Which attributes of
a node are its wire parameters is the node's own ``params`` declaration
(:mod:`repro.core.plan`), so the checker and the codec cannot drift apart.
"""

from __future__ import annotations

import pickle
from typing import Any

from ..columnar.specs import ColumnarSpec
from ..core.plan import PLAN_FOR_OP, Plan
from ..exceptions import PlanError

__all__ = [
    "UnportablePlanError",
    "node_portability_issues",
    "plan_portability_issues",
    "portability_error",
]


class UnportablePlanError(PlanError):
    """A plan parameter cannot cross a process boundary."""


def portability_error(value: Any, node: str, role: str) -> str | None:
    """Explain why one plan parameter cannot cross the wire, or ``None``.

    Specs are value objects and always portable.  Other callables must
    round-trip through pickle *by reference* (module-level functions,
    builtins); a lambda or closure fails here with a named error.
    Non-callable parameters (shave slice weights, caps, factors) must simply
    pickle.
    """
    if isinstance(value, ColumnarSpec):
        return None
    try:
        pickle.loads(pickle.dumps(value))
    except Exception:
        kind = "callable" if callable(value) else "value"
        return (
            f"{node} {role} is not portable: the {kind} {value!r} cannot be "
            f"pickled for a worker process. Use a structural spec from "
            f"repro.columnar.specs or a module-level function."
        )
    return None


def node_portability_issues(node: Plan) -> list[tuple[str, str]]:
    """``(parameter role, message)`` for everything keeping one node off the wire.

    A wire row rebuilds as ``PLAN_FOR_OP[op](*children, *operands)``, so a
    node of any other type (for example a
    :class:`~repro.core.partition.PartitionPlan`, whose closure predicate
    never ships to workers) has no portable encoding at all; otherwise every
    operand must pass :func:`portability_error`.
    """
    if PLAN_FOR_OP.get(node.op) is not type(node):
        return [("node", f"plan node {type(node).__name__} has no portable encoding")]
    issues = []
    for role, value in zip(node.params, node.operands()):
        message = portability_error(value, node._label(), role)
        if message is not None:
            issues.append((role, message))
    return issues


def plan_portability_issues(plan: Plan) -> list[tuple[str, str, str]]:
    """Collect every portability problem in a plan DAG.

    Returns ``(node label, parameter role, message)`` triples in first-visit
    order, one per offending parameter — the static checker reports them all,
    where the codec stops at the first.  Shared sub-plans are visited once
    (plan identity), matching the codec's flattening.
    """
    issues: list[tuple[str, str, str]] = []

    def visit(node: Plan, _children: list) -> None:
        for role, message in node_portability_issues(node):
            issues.append((node._label(), role, message))

    plan.fold(visit)
    return issues
