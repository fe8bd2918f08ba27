"""Static stability and sensitivity verification for plan DAGs.

Every transformation in :mod:`repro.core.transformations` is *stable* in the
sense of Definition 2: unary operators satisfy ``‖T(A) − T(A')‖ ≤ ‖A − A'‖``
(Select/Where/SelectMany 1-stable by construction, GroupBy by Theorem 5,
Shave/Distinct 1-Lipschitz per record, DownScale contracting by its factor),
and binary operators are bounded by the *sum* of their input distances
(Join by Theorem 4; Union/Intersect/Concat/Except element-wise 1-Lipschitz
in each argument).  Stability composes (Theorem 1), so a whole plan DAG has
a static per-source bound computed bottom-up:

* a source leaf is distance 1 from itself,
* every other node combines its children's bounds — unary nodes pass them
  through, ``DownScale`` multiplies them by its factor, binary nodes add
  them element-wise (a source reached through both operands of a self-join
  counts twice, matching Section 2.3's path-counting multiplicity).

Each of those cases is one row of :data:`STABILITY_RULES`, keyed by the
transformation's name (a plan node's ``op``), and the walk itself is
:meth:`repro.core.plan.Plan.fold`.

The derived bound is what a measurement's ε must be multiplied by for the
release to be ``bound·ε``-differentially private with respect to each
source.  :func:`verify_epsilon` checks the charge actually levied by the
budget machinery against that requirement: a charge *below* the bound is a
privacy violation (noise calibrated too low), a charge above it is sound
but wasteful (possible when ``DownScale`` tightens the bound below the raw
path count the runtime charges by).

:func:`verify_plan` bundles the bound, the per-node annotations consumed by
``explain_plan(..., verify=True)``, the ε check, and the shared portability
analysis (:mod:`repro.lint.portability`) into one report.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..core.plan import Plan, sum_by_key
from ..exceptions import PlanError
from .portability import plan_portability_issues

__all__ = [
    "PlanIssue",
    "StabilityReport",
    "check_portability",
    "format_bounds",
    "node_stability_bounds",
    "stability_bounds",
    "verify_epsilon",
    "verify_plan",
]

#: Tolerance for comparing charged against required ε (floating point only —
#: the bounds themselves are exact sums and products of plan constants).
EPSILON_TOLERANCE = 1e-9

Bounds = dict[str, float]


def _source(node: Plan, _children: list[Bounds]) -> Bounds:
    return {node.name: 1.0}


def _sum(_node: Plan, children: list[Bounds]) -> Bounds:
    return sum_by_key(children)


def _scaled(node: Plan, children: list[Bounds]) -> Bounds:
    return {name: value * node.factor for name, value in _sum(node, children).items()}


#: Plan ``op`` -> how the node's per-source bound follows from its
#: children's (see the module docstring): a 1-stable transformation's output
#: distance is at most the sum of its input distances, whatever its arity.
#: An op without a row has no proven stability constant.
STABILITY_RULES = {
    "source": _source,
    "select": _sum,
    "where": _sum,
    "select_many": _sum,
    "group_by": _sum,
    "shave": _sum,
    "distinct": _sum,
    "down_scale": _scaled,
    "join": _sum,
    "union": _sum,
    "intersect": _sum,
    "concat": _sum,
    "except_": _sum,
}


@dataclass(frozen=True)
class PlanIssue:
    """One problem found by the static plan checker."""

    kind: str  #: "epsilon-mismatch" | "epsilon-overcharge" | "unportable"
    node: str  #: label of the offending plan node (or source name)
    message: str
    severity: str = "error"  #: "error" | "warning"


@dataclass
class StabilityReport:
    """Everything the static checker derives about one plan."""

    #: Per-source stability bound of the root: a measurement at ε is
    #: ``bounds[s]·ε``-DP with respect to source ``s``.
    bounds: dict[str, float]
    #: Per-node bounds keyed by ``id(node)`` (for explain annotations).
    node_bounds: dict[int, dict[str, float]]
    issues: list[PlanIssue] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """True when no error-severity issue was found."""
        return not any(issue.severity == "error" for issue in self.issues)


def node_stability_bounds(plan: Plan) -> dict[int, dict[str, float]]:
    """Compute the static stability bound of every node in a plan DAG.

    Returns ``id(node) -> {source name -> bound}``; shared sub-plans are
    computed once.  Raises :class:`~repro.exceptions.PlanError` for a node
    whose ``op`` has no row in :data:`STABILITY_RULES` — an unknown
    transformation could amplify distances arbitrarily, so the checker
    refuses to guess.
    """
    if not isinstance(plan, Plan):
        raise PlanError(f"expected a Plan, got {type(plan).__name__}")
    bounds: dict[int, Bounds] = {}

    def visit(node: Plan, children: list[Bounds]) -> Bounds:
        rule = STABILITY_RULES.get(node.op)
        if rule is None:
            raise PlanError(
                f"no static stability bound is known for plan node "
                f"{type(node).__name__}"
            )
        bound = bounds[id(node)] = rule(node, children)
        return bound

    plan.fold(visit)
    return bounds


def stability_bounds(plan: Plan) -> dict[str, float]:
    """The root's per-source stability bound (see :func:`node_stability_bounds`)."""
    return node_stability_bounds(plan)[id(plan)]


def format_bounds(bounds: dict[str, float]) -> str:
    """Render ``{"edges": 9.0}`` as ``"edges<=9"`` (sorted, comma-joined)."""
    return ", ".join(f"{name}<={value:g}" for name, value in sorted(bounds.items()))


def verify_epsilon(
    plan: Plan,
    epsilon: float,
    charged: dict[str, float] | None = None,
    tolerance: float = EPSILON_TOLERANCE,
) -> list[PlanIssue]:
    """Check a measurement's per-source charge against the derived bound.

    ``charged`` maps source name to the ε actually levied; when omitted it
    defaults to what the budget machinery charges — ``multiplicity · ε``
    per Section 2.3 (see ``execute_batch``).  A charge below ``bound · ε``
    is reported as an error (the Laplace noise at ε would under-protect the
    source); a charge above it as a warning (sound, but the ``DownScale``
    tightening is being left on the table).  Partition-group max-accounting
    charges are intentionally *not* modelled here — pass the group's
    ``charged`` mapping explicitly to check those.
    """
    bounds = stability_bounds(plan)
    if charged is None:
        charged = {
            name: uses * epsilon
            for name, uses in plan.source_multiplicities().items()
        }
    issues: list[PlanIssue] = []
    for name, bound in sorted(bounds.items()):
        required = bound * epsilon
        actual = charged.get(name, 0.0)
        if actual < required - tolerance:
            issues.append(
                PlanIssue(
                    kind="epsilon-mismatch",
                    node=name,
                    message=(
                        f"source {name!r} is charged {actual:g} but the plan's "
                        f"static stability bound requires at least "
                        f"{bound:g}*eps = {required:g}: the release would be "
                        f"under-protected"
                    ),
                )
            )
        elif actual > required + tolerance:
            issues.append(
                PlanIssue(
                    kind="epsilon-overcharge",
                    node=name,
                    message=(
                        f"source {name!r} is charged {actual:g} but the plan's "
                        f"static stability bound only requires {required:g} "
                        f"(sound, but over-conservative)"
                    ),
                    severity="warning",
                )
            )
    for name in sorted(set(charged) - set(bounds)):
        issues.append(
            PlanIssue(
                kind="epsilon-mismatch",
                node=name,
                message=(
                    f"source {name!r} is charged {charged[name]:g} but does "
                    f"not appear in the plan"
                ),
                severity="warning",
            )
        )
    return issues


def check_portability(plan: Plan) -> list[PlanIssue]:
    """Wrap the shared portability analysis as checker issues."""
    return [
        PlanIssue(kind="unportable", node=f"{node} {role}", message=message)
        for node, role, message in plan_portability_issues(plan)
    ]


def verify_plan(
    plan: Plan,
    epsilon: float | None = None,
    charged: dict[str, float] | None = None,
) -> StabilityReport:
    """Run the full static analysis over one plan.

    Always derives the stability bounds and the portability issues; when
    ``epsilon`` is supplied the charge check of :func:`verify_epsilon` is
    included as well.
    """
    node_bounds = node_stability_bounds(plan)
    issues = check_portability(plan)
    if epsilon is not None:
        issues.extend(verify_epsilon(plan, epsilon, charged))
    return StabilityReport(
        bounds=dict(node_bounds[id(plan)]),
        node_bounds=node_bounds,
        issues=issues,
    )
