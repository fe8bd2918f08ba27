"""Static checks of plan DAGs: explicit ε charges and portability.

Every transformation in :mod:`repro.core.transformations` is *stable* in the
sense of Definition 2, with the constant its plan type declares as
``stability`` (:mod:`repro.core.plan`), and stability composes (Theorem 1).
:func:`repro.core.plan.stability_bounds` folds those constants into the
per-source bound of a whole plan, and the budget machinery charges a
measurement at ε exactly ``bound·ε`` — the charge *is* the proof, so there is
nothing to check about it here.

What remains to check statically:

* :func:`verify_epsilon` — a charge computed some *other* way (a partition
  group's max-accounting, a hand-built figure) against ``bound·ε``; a charge
  below it is a privacy violation (noise calibrated too low);
* :func:`check_portability` — the shared portability analysis
  (:mod:`repro.lint.portability`), before a plan ever reaches a shard worker.

:func:`verify_plan` bundles the bound, the per-node bounds and both checks
into one report.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..core.plan import Plan, stability_bounds
from .portability import plan_portability_issues

__all__ = [
    "PlanIssue",
    "StabilityReport",
    "check_portability",
    "format_bounds",
    "verify_epsilon",
    "verify_plan",
]

#: Tolerance for comparing charged against required ε (floating point only —
#: the bounds themselves are exact sums and products of plan constants).
EPSILON_TOLERANCE = 1e-9


@dataclass(frozen=True)
class PlanIssue:
    """One problem found by the static plan checker."""

    kind: str  #: "epsilon-mismatch" | "unportable"
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


def format_bounds(bounds: dict[str, float]) -> str:
    """Render ``{"edges": 9.0}`` as ``"edges<=9"`` (sorted, comma-joined)."""
    return ", ".join(f"{name}<={value:g}" for name, value in sorted(bounds.items()))


def verify_epsilon(
    plan: Plan,
    epsilon: float,
    charged: dict[str, float],
    tolerance: float = EPSILON_TOLERANCE,
) -> list[PlanIssue]:
    """Check an explicitly given per-source charge against the derived bound.

    ``charged`` maps source name to the ε levied for a measurement of
    ``plan`` at ``epsilon`` — for example a partition group's ``charged()``
    against the parent plan at the group's maximum part ε.  A charge below
    ``bound · ε`` is reported as an error (the Laplace noise at ε would
    under-protect the source); a charge to a source the plan does not use as
    a warning.
    """
    bounds = stability_bounds(plan)
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

    Always derives the stability bounds and the portability issues; when a
    ``charged`` mapping is supplied (with the ``epsilon`` it was levied at)
    the check of :func:`verify_epsilon` is included as well.
    """
    node_bounds: dict[int, dict[str, float]] = {}
    bounds = stability_bounds(plan, node_bounds)
    issues = check_portability(plan)
    if charged is not None:
        issues.extend(verify_epsilon(plan, epsilon, charged))
    return StabilityReport(bounds=dict(bounds), node_bounds=node_bounds, issues=issues)
