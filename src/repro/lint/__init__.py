"""Static analysis for privacy invariants.

Two analyzers live here:

* :mod:`repro.lint.plans` — checks a charge computed outside the budget
  machinery (a partition group's max-accounting, a hand-built figure)
  against the per-source stability bound of a
  :class:`~repro.core.plan.Plan` DAG — the same fold,
  :func:`repro.core.plan.stability_bounds`, that prices every measurement —
  and detects unportable closures before the shard codec hits them at
  runtime.
* :mod:`repro.lint.rules` + :mod:`repro.lint.engine` — an AST linter over
  the source tree enforcing the repo-wide privacy/concurrency invariants
  (rules R001–R006; run it with ``repro lint``).
* :mod:`repro.lint.concurrency` — the interprocedural lock-order analysis
  (rules R007–R009): every lock is assigned a level in the declared
  hierarchy via ``# lock-order:`` annotations, the may-hold graph is built
  across function calls, and cycles (potential deadlocks), hierarchy
  violations and blocking calls under non-``io-ok`` locks are reported.
  ``repro lint --concurrency`` runs it; ``repro locks`` prints the
  hierarchy and graph.  :mod:`repro.sanitize` enforces the same hierarchy
  at runtime when ``REPRO_SANITIZE=1``.
* :mod:`repro.lint.flow` — the interprocedural privacy taint analysis
  (rule R010): values derived from protected records/weights are tracked
  through assignments and calls until they die in a sanctioned release
  (``NoisyCountResult``) or reach a sink (logs, exception messages, HTTP
  response bodies, pickled payloads).  ``repro lint --flow`` runs it.

:mod:`repro.lint.portability` is the shared portability analysis: the shard
codec (:mod:`repro.shard.plan`) delegates to it, so the static checker and
the runtime wire format can never disagree about what crosses a process
boundary.
"""

from .concurrency import (
    ConcurrencyAnalysis,
    analyze_concurrency,
    build_concurrency_analysis,
    find_cycles,
    render_lock_report,
)
from .engine import (
    Baseline,
    LintError,
    LintIssue,
    ModuleSource,
    Rule,
    format_issues,
    lint_paths,
)
from .flow import analyze_flow
from .plans import (
    PlanIssue,
    StabilityReport,
    check_portability,
    format_bounds,
    verify_epsilon,
    verify_plan,
)
from .portability import (
    UnportablePlanError,
    plan_portability_issues,
    portability_error,
)
from .rules import DEFAULT_RULES, RELEASE_PACKAGES

__all__ = [
    "Baseline",
    "ConcurrencyAnalysis",
    "DEFAULT_RULES",
    "LintError",
    "LintIssue",
    "ModuleSource",
    "PlanIssue",
    "RELEASE_PACKAGES",
    "Rule",
    "StabilityReport",
    "UnportablePlanError",
    "analyze_concurrency",
    "analyze_flow",
    "build_concurrency_analysis",
    "check_portability",
    "find_cycles",
    "format_bounds",
    "format_issues",
    "lint_paths",
    "render_lock_report",
    "plan_portability_issues",
    "portability_error",
    "verify_epsilon",
    "verify_plan",
]
