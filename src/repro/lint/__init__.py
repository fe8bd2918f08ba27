"""Static analysis for privacy invariants.

``repro lint`` runs every checker here over one parse of the tree
(:func:`lint_tree`); each guards one invariant:

* :mod:`repro.lint.rules` — per-module AST rules: seeded RNG on release
  paths (R001), no lambdas or closures handed to plan builders (R005).
* :mod:`repro.lint.concurrency` — the interprocedural lock-order analysis
  (R008, R009): every lock is declared by its ``ordered_lock`` /
  ``ordered_rlock`` call, the may-hold graph is built across function calls,
  and hierarchy violations — a ``peers`` lock taken in a loop not over
  ``sorted(...)`` and every deadlock cycle included — and blocking calls
  under non-``io-ok`` locks are reported.  ``repro locks`` prints the
  hierarchy and graph.  :mod:`repro.sanitize` enforces the same hierarchy at
  runtime when ``REPRO_SANITIZE=1``.
* :mod:`repro.lint.flow` — the interprocedural privacy taint analysis
  (R010): values derived from protected records/weights are tracked through
  assignments and calls until they die in a sanctioned release
  (``NoisyCountResult``) or reach a sink (logs, ``print``, exception
  messages, HTTP response bodies, pickled payloads).
* :mod:`repro.lint.plans` — checks a charge computed outside the budget
  machinery (a partition group's max-accounting, a hand-built figure)
  against the per-source stability bound of a
  :class:`~repro.core.plan.Plan` DAG — the same fold,
  :func:`repro.core.plan.stability_bounds`, that prices every measurement —
  and detects unportable closures before the shard codec hits them at
  runtime.  ``repro lint`` with no path verifies every named query plan.

:mod:`repro.lint.portability` is the shared portability analysis: the shard
codec (:mod:`repro.shard.plan`) delegates to it, so the static checker and
the runtime wire format can never disagree about what crosses a process
boundary.
"""

from pathlib import Path
from typing import Iterable

from .concurrency import (
    ConcurrencyAnalysis,
    build_concurrency_analysis,
    find_cycles,
    render_lock_report,
)
from .engine import (
    LintError,
    LintIssue,
    ModuleSource,
    Rule,
    check_rules,
    format_issues,
    lint_paths,
    load_modules,
    sort_issues,
)
from .flow import analyze_flow
from .model import RepoModel
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
    "analyze_flow",
    "build_concurrency_analysis",
    "check_portability",
    "find_cycles",
    "format_bounds",
    "format_issues",
    "lint_paths",
    "lint_tree",
    "render_lock_report",
    "plan_portability_issues",
    "portability_error",
    "verify_epsilon",
    "verify_plan",
]


def lint_tree(paths: Iterable[Path], root: Path) -> list[LintIssue]:
    """Every finding of every checker (R001, R005, R008–R010, E001), one parse."""
    modules, issues = load_modules(paths, root)
    model = RepoModel(modules)
    issues += check_rules(modules, DEFAULT_RULES)
    issues += build_concurrency_analysis(paths, root, model=model).issues
    issues += analyze_flow(paths, root, model=model)
    return sort_issues(issues)
