"""The privacy-invariant lint rules (R001–R006).

Each rule enforces an invariant the platform's privacy or concurrency
guarantees depend on but python cannot:

* **R001 seeded-rng** — release paths must not draw from unseeded or
  hidden-global-state RNGs.  Reproducible noise is a *correctness* property
  here: the shard workers, the persistence replay and the multi-backend
  bit-identity tests all assume a measurement's noise stream is a pure
  function of the session seed.
* **R002 lock-order** — budget locks are only ever acquired through
  ``ExitStack`` over ``sorted(...)`` names (the ``BudgetLedger.charge``
  discipline); ad-hoc nesting or multi-item ``with`` acquisitions are how
  lock-order inversions (and deadlocks under the service's concurrency)
  get introduced.
* **R003 check-then-act** — reading ``can_afford``/``remaining``/``spent``
  and then charging outside one held lock re-introduces the budget race
  fixed in PR 4: two racing measurements could both pass the check and
  overspend ε.
* **R004 weight-leak** — protected dataset weights must not be printed,
  logged or interpolated into strings in release packages.  The weights
  *are* the protected data; anything that writes them to a log defeats the
  Laplace noise entirely.  Sanctioned debug affordances carry an explicit
  ``# lint: disable=R004``.
* **R005 module-level-specs** — record functions handed to plan builders
  must be structural specs or module-level functions.  Lambdas and
  closures break :class:`~repro.shard.plan.PortablePlan` at encode time
  and are opaque to the vectorized backend.
* **R006 unused-import** — PR 4's one-off sweep, made permanent.
"""

from __future__ import annotations

import ast
import re
from typing import Iterator

from ..core.plan import PLAN_FOR_OP
from .engine import LintIssue, ModuleSource, Rule

__all__ = [
    "DEFAULT_RULES",
    "RELEASE_PACKAGES",
    "CheckThenActRule",
    "LockOrderRule",
    "ModuleLevelSpecRule",
    "UnseededRandomRule",
    "UnusedImportRule",
    "WeightLeakRule",
]

#: Packages whose code runs in the release path of a measurement — the
#: rules with privacy consequences (R001, R004) apply only there.
RELEASE_PACKAGES = frozenset(
    {"core", "columnar", "service", "persistence", "shard", "resilience"}
)

_IDENTIFIER_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


def _in_release_package(parts: tuple[str, ...]) -> bool:
    """True when any *directory* component names a release package.

    The lint root may be the ``repro`` package itself (components like
    ``core/plan.py``) or a directory above it (``repro/core/plan.py``);
    either way the package directory appears as a path component.
    """
    return any(part in RELEASE_PACKAGES for part in parts[:-1])


def _dotted_name(node: ast.AST) -> str | None:
    """``a.b.c`` for an Attribute/Name chain, else ``None``."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def _import_bindings(tree: ast.Module) -> dict[str, str]:
    """Map local names to the canonical dotted path they import."""
    bindings: dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.asname:
                    bindings[alias.asname] = alias.name
                else:
                    root = alias.name.split(".")[0]
                    bindings[root] = root
        elif isinstance(node, ast.ImportFrom):
            if node.module is None or node.level:
                continue
            for alias in node.names:
                if alias.name == "*":
                    continue
                bindings[alias.asname or alias.name] = f"{node.module}.{alias.name}"
    return bindings


def _canonical_call(node: ast.Call, bindings: dict[str, str]) -> str | None:
    """Resolve a call's dotted name through the module's imports.

    Returns ``None`` when the call root is not an imported name — a local
    variable called ``random`` must not trip the RNG rule.
    """
    dotted = _dotted_name(node.func)
    if dotted is None:
        return None
    root, _, rest = dotted.partition(".")
    canonical_root = bindings.get(root)
    if canonical_root is None:
        return None
    return f"{canonical_root}.{rest}" if rest else canonical_root


def _is_lock_expr(node: ast.AST) -> bool:
    """An expression that acquires a lock by convention of this codebase."""
    if isinstance(node, ast.Attribute):
        return node.attr == "lock" or node.attr.endswith("_lock")
    if isinstance(node, ast.Name):
        return node.id == "lock" or node.id.endswith("_lock")
    return False


def _is_function(node: ast.AST) -> bool:
    return isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))


def _mentions_weight(node: ast.AST) -> bool:
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and "weight" in sub.id.lower():
            return True
        if isinstance(sub, ast.Attribute) and "weight" in sub.attr.lower():
            return True
    return False


class UnseededRandomRule(Rule):
    code = "R001"
    name = "seeded-rng"
    description = (
        "release paths must not draw from unseeded default_rng(), "
        "module-level random.*, or legacy numpy.random global state"
    )

    _LOG_SEEDED_OK = "pass an explicit seed so releases are reproducible"

    def check(self, module: ModuleSource) -> Iterator[LintIssue]:
        if not _in_release_package(module.parts):
            return
        bindings = _import_bindings(module.tree)
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            canonical = _canonical_call(node, bindings)
            if canonical is None:
                continue
            if canonical == "numpy.random.default_rng":
                if self._unseeded(node):
                    yield self.issue(
                        module,
                        node,
                        f"unseeded default_rng() in a release path; "
                        f"{self._LOG_SEEDED_OK}",
                    )
            elif canonical.startswith("random.") or canonical == "random.Random":
                function = canonical.split(".", 1)[1]
                if function == "Random" and not self._unseeded(node):
                    continue
                yield self.issue(
                    module,
                    node,
                    f"random.{function}() uses the process-global random state "
                    f"in a release path; use a seeded numpy Generator",
                )
            elif canonical.startswith("numpy.random."):
                function = canonical.rsplit(".", 1)[1]
                if function[:1].isupper() and not self._unseeded(node):
                    continue  # PCG64(seed), SeedSequence(entropy), Generator(bg)
                yield self.issue(
                    module,
                    node,
                    f"numpy.random.{function}() uses legacy global (or unseeded) "
                    f"random state in a release path; {self._LOG_SEEDED_OK}",
                )

    @staticmethod
    def _unseeded(node: ast.Call) -> bool:
        if not node.args and not node.keywords:
            return True
        if node.args and isinstance(node.args[0], ast.Constant) and node.args[0].value is None:
            return True
        for keyword in node.keywords:
            if keyword.arg == "seed" and isinstance(keyword.value, ast.Constant):
                if keyword.value.value is None:
                    return True
        return False


class LockOrderRule(Rule):
    code = "R002"
    name = "lock-order"
    description = (
        "budget locks are acquired via ExitStack over sorted names; "
        "never nested ad hoc or multi-item"
    )

    def check(self, module: ModuleSource) -> Iterator[LintIssue]:
        for node in ast.walk(module.tree):
            if isinstance(node, (ast.With, ast.AsyncWith)):
                yield from self._check_with(module, node)
            elif isinstance(node, ast.Call):
                yield from self._check_enter_context(module, node)

    def _check_with(
        self, module: ModuleSource, node: ast.With | ast.AsyncWith
    ) -> Iterator[LintIssue]:
        lock_items = [
            item for item in node.items if _is_lock_expr(item.context_expr)
        ]
        if len(lock_items) >= 2:
            yield self.issue(
                module,
                node,
                "multiple locks acquired in one with-statement; acquire them "
                "via ExitStack over sorted(names) like BudgetLedger.charge",
            )
        if not lock_items:
            return
        for ancestor in module.ancestors(node):
            if _is_function(ancestor):
                break
            if isinstance(ancestor, (ast.With, ast.AsyncWith)) and any(
                _is_lock_expr(item.context_expr) for item in ancestor.items
            ):
                yield self.issue(
                    module,
                    node,
                    "lock acquired while another lock is held in the same "
                    "function; nested ad-hoc acquisition risks lock-order "
                    "inversion — use ExitStack over sorted(names)",
                )
                break

    def _check_enter_context(
        self, module: ModuleSource, node: ast.Call
    ) -> Iterator[LintIssue]:
        func = node.func
        if not (isinstance(func, ast.Attribute) and func.attr == "enter_context"):
            return
        if not (node.args and _is_lock_expr(node.args[0])):
            return
        for ancestor in module.ancestors(node):
            if _is_function(ancestor):
                break
            if isinstance(ancestor, (ast.For, ast.AsyncFor)):
                iterator = ancestor.iter
                sorted_iter = (
                    isinstance(iterator, ast.Call)
                    and isinstance(iterator.func, ast.Name)
                    and iterator.func.id == "sorted"
                )
                if not sorted_iter:
                    yield self.issue(
                        module,
                        node,
                        "enter_context(<lock>) inside a loop that does not "
                        "iterate sorted(...) names; unordered multi-lock "
                        "acquisition can deadlock",
                    )
                break


class CheckThenActRule(Rule):
    code = "R003"
    name = "check-then-act"
    description = (
        "no check-then-act on PrivacyBudget state (can_afford/remaining/"
        "spent) outside a held lock"
    )

    _STATE_ATTRS = frozenset({"can_afford", "remaining", "spent"})
    _CHARGE_ATTRS = frozenset({"charge"})

    def check(self, module: ModuleSource) -> Iterator[LintIssue]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.If):
                continue
            if not self._reads_budget_state(node.test):
                continue
            function = self._enclosing_function(module, node)
            if function is None or not self._charges(function):
                continue
            if self._under_lock(module, node):
                continue
            yield self.issue(
                module,
                node,
                "budget state is checked here and charged in the same "
                "function without holding the budget lock across both; "
                "racing callers can both pass the check and overspend",
            )

    def _reads_budget_state(self, test: ast.AST) -> bool:
        return any(
            isinstance(sub, ast.Attribute) and sub.attr in self._STATE_ATTRS
            for sub in ast.walk(test)
        )

    def _charges(self, function: ast.AST) -> bool:
        for sub in ast.walk(function):
            if (
                isinstance(sub, ast.Call)
                and isinstance(sub.func, ast.Attribute)
                and sub.func.attr in self._CHARGE_ATTRS
            ):
                return True
            if isinstance(sub, ast.AugAssign) and _mentions_spent(sub.target):
                return True
        return False

    @staticmethod
    def _enclosing_function(module: ModuleSource, node: ast.AST) -> ast.AST | None:
        for ancestor in module.ancestors(node):
            if _is_function(ancestor):
                return ancestor
        return None

    def _under_lock(self, module: ModuleSource, node: ast.AST) -> bool:
        for ancestor in module.ancestors(node):
            if _is_function(ancestor):
                return False
            if not isinstance(ancestor, (ast.With, ast.AsyncWith)):
                continue
            if any(_is_lock_expr(item.context_expr) for item in ancestor.items):
                return True
            if self._is_exitstack_with_locks(ancestor):
                return True
        return False

    @staticmethod
    def _is_exitstack_with_locks(node: ast.With | ast.AsyncWith) -> bool:
        holds_stack = any(
            isinstance(item.context_expr, ast.Call)
            and (_dotted_name(item.context_expr.func) or "").endswith("ExitStack")
            for item in node.items
        )
        if not holds_stack:
            return False
        for sub in ast.walk(node):
            if (
                isinstance(sub, ast.Call)
                and isinstance(sub.func, ast.Attribute)
                and sub.func.attr == "enter_context"
                and sub.args
                and _is_lock_expr(sub.args[0])
            ):
                return True
        return False


def _mentions_spent(node: ast.AST) -> bool:
    return any(
        isinstance(sub, ast.Attribute) and "spent" in sub.attr
        for sub in ast.walk(node)
    )


class WeightLeakRule(Rule):
    code = "R004"
    name = "weight-leak"
    description = (
        "protected dataset weights must not be printed, logged or "
        "string-interpolated in release packages"
    )

    _LOG_METHODS = frozenset(
        {"debug", "info", "warning", "error", "exception", "critical", "log"}
    )

    def check(self, module: ModuleSource) -> Iterator[LintIssue]:
        if not _in_release_package(module.parts):
            return
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Call):
                yield from self._check_call(module, node)
            elif isinstance(node, ast.JoinedStr):
                yield from self._check_fstring(module, node)

    def _check_call(self, module: ModuleSource, node: ast.Call) -> Iterator[LintIssue]:
        sink = None
        if isinstance(node.func, ast.Name) and node.func.id == "print":
            sink = "print"
        elif (
            isinstance(node.func, ast.Attribute)
            and node.func.attr in self._LOG_METHODS
        ):
            receiver = _dotted_name(node.func.value) or ""
            if "log" in receiver.lower():
                sink = f"{receiver}.{node.func.attr}"
        if sink is None:
            return
        for argument in [*node.args, *[kw.value for kw in node.keywords]]:
            # f-string arguments are flagged by _check_fstring already.
            if not isinstance(argument, ast.JoinedStr) and _mentions_weight(argument):
                yield self.issue(
                    module,
                    argument,
                    f"protected weight value passed to {sink}(); weights are "
                    f"the protected data — remove or aggregate before release",
                )

    def _check_fstring(
        self, module: ModuleSource, node: ast.JoinedStr
    ) -> Iterator[LintIssue]:
        for value in node.values:
            if isinstance(value, ast.FormattedValue) and _mentions_weight(value.value):
                yield self.issue(
                    module,
                    node,
                    "f-string interpolates a protected weight value; weights "
                    "must not leak into messages, logs or exceptions in "
                    "release packages",
                )
                return


class ModuleLevelSpecRule(Rule):
    code = "R005"
    name = "module-level-specs"
    description = (
        "record functions handed to plan builders must be structural specs "
        "or module-level functions, never lambdas/closures"
    )

    # The plan types an operand of which may be a record function (its
    # ``__init__`` annotation names a ``Callable``), watched by constructor
    # name and as the ``Queryable`` method named after the type's ``op``.
    _PLAN_TYPES = [
        plan_type
        for plan_type in PLAN_FOR_OP.values()
        if any(
            "Callable" in str(plan_type.__init__.__annotations__.get(name))
            for name in plan_type.params
        )
    ]
    _PLAN_METHODS = frozenset(plan_type.op for plan_type in _PLAN_TYPES)
    _PLAN_CTORS = frozenset(plan_type.__name__ for plan_type in _PLAN_TYPES)

    def check(self, module: ModuleSource) -> Iterator[LintIssue]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            builder = self._builder_name(node)
            if builder is None:
                continue
            for argument in [*node.args, *[kw.value for kw in node.keywords]]:
                if isinstance(argument, ast.Lambda):
                    yield self.issue(
                        module,
                        argument,
                        f"lambda passed to {builder}(); lambdas break "
                        f"PortablePlan and are opaque to the vectorized "
                        f"backend — use a spec from repro.columnar.specs or "
                        f"a module-level function",
                    )

    def _builder_name(self, node: ast.Call) -> str | None:
        if isinstance(node.func, ast.Attribute) and node.func.attr in self._PLAN_METHODS:
            return node.func.attr
        dotted = _dotted_name(node.func)
        if dotted is not None and dotted.rsplit(".", 1)[-1] in self._PLAN_CTORS:
            return dotted.rsplit(".", 1)[-1]
        return None


class UnusedImportRule(Rule):
    code = "R006"
    name = "unused-import"
    description = "imported names must be used (or re-exported via __all__)"

    def check(self, module: ModuleSource) -> Iterator[LintIssue]:
        bindings: list[tuple[str, ast.AST]] = []
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    bindings.append((alias.asname or alias.name.split(".")[0], node))
            elif isinstance(node, ast.ImportFrom):
                if node.module == "__future__":
                    continue
                for alias in node.names:
                    if alias.name == "*":
                        continue
                    bindings.append((alias.asname or alias.name, node))
        if not bindings:
            return
        used = self._used_names(module.tree)
        for name, node in bindings:
            if name not in used:
                yield self.issue(module, node, f"unused import: {name}")

    @staticmethod
    def _used_names(tree: ast.Module) -> set[str]:
        used: set[str] = set()
        string_scopes: list[ast.AST] = []
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                used.add(node.id)
            elif isinstance(node, (ast.Assign, ast.AugAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                if any(
                    isinstance(target, ast.Name) and target.id == "__all__"
                    for target in targets
                ):
                    string_scopes.append(node.value)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                arguments = node.args
                for argument in [
                    *arguments.posonlyargs,
                    *arguments.args,
                    *arguments.kwonlyargs,
                    *filter(None, (arguments.vararg, arguments.kwarg)),
                ]:
                    if argument.annotation is not None:
                        string_scopes.append(argument.annotation)
                if node.returns is not None:
                    string_scopes.append(node.returns)
            elif isinstance(node, ast.AnnAssign):
                string_scopes.append(node.annotation)
        # Names exported via __all__ count as used (re-export modules), and
        # so do names inside quoted annotations (TYPE_CHECKING imports).
        for scope in string_scopes:
            for sub in ast.walk(scope):
                if isinstance(sub, ast.Constant) and isinstance(sub.value, str):
                    used.update(_IDENTIFIER_RE.findall(sub.value))
        return used


#: The rule set ``repro lint`` runs by default.
DEFAULT_RULES: tuple[Rule, ...] = (
    UnseededRandomRule(),
    LockOrderRule(),
    CheckThenActRule(),
    WeightLeakRule(),
    ModuleLevelSpecRule(),
    UnusedImportRule(),
)
