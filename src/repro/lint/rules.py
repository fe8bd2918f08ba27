"""The per-module lint rules (R001, R005).

Each rule enforces an invariant the platform's privacy or concurrency
guarantees depend on but python cannot.  The lock hierarchy (R008, R009) and
protected-value flow (R010) need the whole repository and live in
:mod:`repro.lint.concurrency` and :mod:`repro.lint.flow`.

* **R001 seeded-rng** — release paths must not draw from unseeded or
  hidden-global-state RNGs.  Reproducible noise is a *correctness* property
  here: the shard workers, the persistence replay and the multi-backend
  bit-identity tests all assume a measurement's noise stream is a pure
  function of the session seed.
* **R005 module-level-specs** — record functions handed to plan builders
  must be structural specs or module-level functions.  Lambdas and
  closures break :class:`~repro.shard.plan.PortablePlan` at encode time
  and are opaque to the vectorized backend.
"""

from __future__ import annotations

import ast
from typing import Iterator

from ..core.plan import PLAN_FOR_OP
from .engine import LintIssue, ModuleSource, Rule
from .model import dotted_name

__all__ = [
    "DEFAULT_RULES",
    "RELEASE_PACKAGES",
    "ModuleLevelSpecRule",
    "UnseededRandomRule",
    "in_release_package",
]

#: Packages whose code runs in the release path of a measurement — the
#: checks with privacy consequences (R001, R010) apply only there.
#: ``dataflow`` evaluates protected data for ``PrivacySession(executor="dataflow")``.
RELEASE_PACKAGES = frozenset(
    {"core", "columnar", "dataflow", "service", "persistence", "shard", "resilience"}
)


def in_release_package(parts: tuple[str, ...]) -> bool:
    """True when any *directory* component names a release package.

    The lint root may be the ``repro`` package itself (components like
    ``core/plan.py``) or a directory above it (``repro/core/plan.py``);
    either way the package directory appears as a path component.
    """
    return any(part in RELEASE_PACKAGES for part in parts[:-1])


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
    dotted = dotted_name(node.func)
    if dotted is None:
        return None
    root, _, rest = dotted.partition(".")
    canonical_root = bindings.get(root)
    if canonical_root is None:
        return None
    return f"{canonical_root}.{rest}" if rest else canonical_root


class UnseededRandomRule(Rule):
    code = "R001"
    name = "seeded-rng"
    description = (
        "release paths must not draw from unseeded default_rng(), "
        "module-level random.*, or legacy numpy.random global state"
    )

    _LOG_SEEDED_OK = "pass an explicit seed so releases are reproducible"

    def check(self, module: ModuleSource) -> Iterator[LintIssue]:
        if not in_release_package(module.parts):
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
                    kind = "lambda"
                elif isinstance(argument, ast.Name) and argument.id in _local_functions(
                    module, node
                ):
                    kind = f"closure {argument.id!r}"
                else:
                    continue
                yield self.issue(
                    module,
                    argument,
                    f"{kind} passed to {builder}(); lambdas and closures break "
                    f"PortablePlan and are opaque to the vectorized "
                    f"backend — use a spec from repro.columnar.specs or "
                    f"a module-level function",
                )

    def _builder_name(self, node: ast.Call) -> str | None:
        if isinstance(node.func, ast.Attribute) and node.func.attr in self._PLAN_METHODS:
            return node.func.attr
        dotted = dotted_name(node.func)
        if dotted is not None and dotted.rsplit(".", 1)[-1] in self._PLAN_CTORS:
            return dotted.rsplit(".", 1)[-1]
        return None


def _local_functions(module: ModuleSource, node: ast.AST) -> set[str]:
    """Names bound to a function by a ``def`` or ``name = lambda ...`` in a
    function enclosing ``node`` — each a closure, not a module-level function."""
    names: set[str] = set()
    for scope in module.ancestors(node):
        if not isinstance(scope, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        pending = list(scope.body)
        while pending:
            statement = pending.pop()
            if isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef)):
                names.add(statement.name)
                continue
            if isinstance(statement, ast.ClassDef):
                continue
            if isinstance(statement, ast.Assign) and isinstance(
                statement.value, ast.Lambda
            ):
                names.update(
                    target.id
                    for target in statement.targets
                    if isinstance(target, ast.Name)
                )
            pending.extend(ast.iter_child_nodes(statement))
    return names


#: The rule set ``repro lint`` runs by default.
DEFAULT_RULES: tuple[Rule, ...] = (
    UnseededRandomRule(),
    ModuleLevelSpecRule(),
)
