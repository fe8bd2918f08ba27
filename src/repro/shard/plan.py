"""Picklable plan and measurement protocol for worker processes.

Plans are compared by identity throughout the platform and may close over
arbitrary callables, so a live :class:`~repro.core.plan.Plan` object cannot
simply be pickled: lambdas fail outright, and shipping the object graph
twice would silently *split* shared sub-plans (identity is lost across two
pickles).  This module defines the wire form the workers rebuild from:

* :func:`encode_plan` flattens a plan DAG into a :class:`PortablePlan` —
  a list of ``(kind, params, child indices)`` node rows in first-visit
  order, with sharing captured as indices, so :func:`decode_plan` restores
  an identity-shared DAG on the other side.  A row's kind is the node's
  ``op`` and its params are the node's operands, both as declared in
  :mod:`repro.core.plan`; there is no codec-side table to extend.
* Callable parameters must be *portable*: a structural
  :class:`~repro.columnar.specs.ColumnarSpec` (pickled by value) or a
  module-level function (pickled by reference).  Anything else —
  lambdas, closures, bound methods — raises :class:`UnportablePlanError`
  at encode time, with the offending node named, rather than a cryptic
  pickling failure inside a worker.

  Record callables that consult ``hash(str)`` are a silent cross-process
  hazard (the salt differs per process, ``PYTHONHASHSEED``); specs never
  hash, which is one more reason the analyses express their plans with
  them.
* :func:`encode_measurement` / :func:`decode_measurement` carry a
  *released* :class:`~repro.core.aggregation.NoisyCountResult` across the
  boundary: the released values, ε and the portable plan.  The worker
  rehydrates with :meth:`NoisyCountResult.from_released`, so the protected
  data is never consulted in a worker and the fixed released targets —
  what every MCMC scoring backend reads — are bit-identical to the
  coordinator's.

The portable form doubles as the structural identity the ROADMAP's
cost-based optimizer needs: :meth:`PortablePlan.fingerprint` hashes the
pickled node rows, so equivalent plans built independently (even in
different processes) get equal fingerprints — used here to key worker-side
decoded-plan caches.
"""

from __future__ import annotations

import hashlib
import pickle
from typing import Any

from ..core.aggregation import NoisyCountResult
from ..core.plan import PLAN_FOR_OP, Plan

# The portability judgement (what may cross a process boundary) lives in
# repro.lint.portability so the static plan checker and this runtime codec
# can never disagree.  UnportablePlanError is re-exported here for
# compatibility.
from ..lint.portability import UnportablePlanError, node_portability_issues

__all__ = [
    "UnportablePlanError",
    "PortablePlan",
    "PortableMeasurement",
    "encode_plan",
    "decode_plan",
    "encode_measurement",
    "decode_measurement",
]


class PortablePlan:
    """A flattened, picklable plan DAG (sharing captured as node indices)."""

    __slots__ = ("nodes", "_fingerprint")

    def __init__(self, nodes: tuple[tuple, ...]) -> None:
        #: ``(kind, params tuple, child index tuple)`` rows; children always
        #: precede their parents, the root is the last row.
        self.nodes = nodes
        self._fingerprint: str | None = None

    def __getstate__(self):
        return self.nodes

    def __setstate__(self, state):
        self.nodes = state
        self._fingerprint = None

    def fingerprint(self) -> str:
        """Structural digest: equal for structurally equal plans.

        Specs pickle deterministically (value objects with fixed slots), so
        two plans built from the same specs — by different sessions or
        processes — hash equal.  Plans containing by-reference callables
        hash by the function's module path, which is as structural as a
        black-box function can get.
        """
        if self._fingerprint is None:
            self._fingerprint = hashlib.sha256(
                pickle.dumps(self.nodes, protocol=4)
            ).hexdigest()
        return self._fingerprint

    def __repr__(self) -> str:
        return f"PortablePlan(nodes={len(self.nodes)}, root={self.nodes[-1][0]})"


def encode_plan(plan: Plan) -> PortablePlan:
    """Flatten a plan DAG into its portable form, validating every parameter."""
    rows: list[tuple] = []

    def visit(node: Plan, children: list[int]) -> int:
        issues = node_portability_issues(node)
        if issues:
            # Named here, not as a cryptic pickling failure inside a worker.
            raise UnportablePlanError(issues[0][1])
        rows.append((node.op, node.operands(), tuple(children)))
        return len(rows) - 1

    plan.fold(visit)
    return PortablePlan(tuple(rows))


def decode_plan(portable: PortablePlan) -> Plan:
    """Rebuild an identity-shared plan DAG from its portable form."""
    built: list[Plan] = []
    for kind, params, children in portable.nodes:
        built.append(PLAN_FOR_OP[kind](*(built[child] for child in children), *params))
    return built[-1]


class PortableMeasurement:
    """A released measurement in wire form: values + ε + portable plan."""

    __slots__ = ("values", "epsilon", "query_name", "plan")

    def __init__(
        self,
        values: list[tuple[Any, float]],
        epsilon: float,
        query_name: str,
        plan: PortablePlan | None,
    ) -> None:
        self.values = values
        self.epsilon = epsilon
        self.query_name = query_name
        self.plan = plan

    def __getstate__(self):
        return (self.values, self.epsilon, self.query_name, self.plan)

    def __setstate__(self, state):
        self.values, self.epsilon, self.query_name, self.plan = state


def encode_measurement(measurement: NoisyCountResult) -> PortableMeasurement:
    """Encode a released measurement for a worker.

    Only the values released *so far* travel — which is exactly what the
    MCMC scoring backends read (their targets are fixed at construction).
    A worker-side rehydrated result drawing fresh noise for never-released
    records would diverge from the coordinator, so the scorers' fixed-target
    contract is what makes process chains bit-identical to in-process ones.
    """
    plan = measurement.plan
    return PortableMeasurement(
        list(measurement.items()),
        measurement.epsilon,
        measurement.query_name,
        encode_plan(plan) if plan is not None else None,
    )


def decode_measurement(
    portable: PortableMeasurement,
    plan_cache: dict[str, Plan] | None = None,
) -> NoisyCountResult:
    """Rehydrate a measurement without touching protected data.

    ``plan_cache`` (fingerprint → decoded plan) lets a persistent worker
    reuse one plan object across requests, preserving identity-keyed
    sharing between measurements that reference the same sub-plans — two
    measurements in one payload share decoded nodes only if their roots
    are distinct, so cross-measurement sharing is restored per-payload by
    the caller, not here.
    """
    plan = None
    if portable.plan is not None:
        if plan_cache is not None:
            fingerprint = portable.plan.fingerprint()
            plan = plan_cache.get(fingerprint)
            if plan is None:
                plan = decode_plan(portable.plan)
                plan_cache[fingerprint] = plan
        else:
            plan = decode_plan(portable.plan)
    return NoisyCountResult.from_released(
        portable.values,
        portable.epsilon,
        plan=plan,
        query_name=portable.query_name,
    )
