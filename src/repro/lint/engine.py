"""AST lint engine: module loading, suppression, reporting.

The engine is deliberately small: a :class:`ModuleSource` parses one file
and precomputes what every rule needs (AST, parent links, per-line
suppression comments), a :class:`Rule` yields :class:`LintIssue` objects,
and :func:`lint_paths` drives the two over a file tree.  Rules themselves
live in :mod:`repro.lint.rules`.

Suppression: a finding is silenced by a comment on the flagged line —
``# lint: disable=R010`` (comma-separate several codes, or use ``all``).
Suppressions are per-line and per-rule so they double as documentation of
the sanctioned exception.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator

__all__ = [
    "LintError",
    "LintIssue",
    "ModuleSource",
    "Rule",
    "check_rules",
    "format_issues",
    "iter_python_files",
    "lint_paths",
    "load_modules",
    "sort_issues",
    "unsuppressed",
]

_SUPPRESS_RE = re.compile(r"#\s*lint:\s*disable=([A-Za-z0-9_,\s]+)")


class LintError(Exception):
    """The linter itself could not run (an unreadable or non-python path)."""


@dataclass(frozen=True)
class LintIssue:
    """One finding: a rule violated at a location."""

    rule: str
    path: str  #: posix path relative to the lint root
    line: int
    col: int
    message: str

    def render(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.rule} {self.message}"

    @classmethod
    def at(
        cls, rule: str, module: "ModuleSource", node: ast.AST, message: str
    ) -> "LintIssue":
        """The finding ``rule`` at ``node`` of ``module``."""
        return cls(
            rule=rule,
            path=module.relpath,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0) + 1,
            message=message,
        )


class ModuleSource:
    """One parsed python file plus the per-rule conveniences."""

    def __init__(self, path: Path, relpath: str, text: str) -> None:
        self.path = path
        self.relpath = relpath
        self.text = text
        self.lines = text.splitlines()
        self.tree = ast.parse(text, filename=str(path))
        self._parents: dict[ast.AST, ast.AST] = {}
        for parent in ast.walk(self.tree):
            for child in ast.iter_child_nodes(parent):
                self._parents[child] = parent
        self._suppressed: dict[int, set[str]] = {}
        for number, line in enumerate(self.lines, start=1):
            match = _SUPPRESS_RE.search(line)
            if match:
                self._suppressed[number] = {
                    code.strip() for code in match.group(1).split(",") if code.strip()
                }

    @classmethod
    def load(cls, path: Path, root: Path) -> "ModuleSource":
        try:
            text = path.read_text(encoding="utf-8")
        except OSError as exc:
            raise LintError(f"cannot read {path}: {exc}") from exc
        try:
            relpath = path.resolve().relative_to(root.resolve()).as_posix()
        except ValueError:
            relpath = path.as_posix()
        return cls(path, relpath, text)

    # ------------------------------------------------------------------
    @property
    def parts(self) -> tuple[str, ...]:
        """Path components of the module relative to the lint root."""
        return tuple(self.relpath.split("/"))

    def parent(self, node: ast.AST) -> ast.AST | None:
        return self._parents.get(node)

    def ancestors(self, node: ast.AST) -> Iterator[ast.AST]:
        """Walk from a node's parent up to the module root."""
        current = self._parents.get(node)
        while current is not None:
            yield current
            current = self._parents.get(current)

    def source_line(self, line: int) -> str:
        if 1 <= line <= len(self.lines):
            return self.lines[line - 1].strip()
        return ""

    def suppressed(self, line: int, rule: str) -> bool:
        codes = self._suppressed.get(line)
        return bool(codes) and (rule in codes or "all" in codes)


class Rule:
    """Base class for lint rules; subclasses yield issues from ``check``."""

    code: str = "R000"
    name: str = ""
    description: str = ""

    def check(self, module: ModuleSource) -> Iterator[LintIssue]:
        raise NotImplementedError

    def issue(self, module: ModuleSource, node: ast.AST, message: str) -> LintIssue:
        return LintIssue.at(self.code, module, node, message)


def iter_python_files(paths: Iterable[Path]) -> Iterator[Path]:
    """Expand files/directories into a deterministic list of ``.py`` files."""
    seen: set[Path] = set()
    for path in paths:
        if path.is_dir():
            candidates = sorted(path.rglob("*.py"))
        elif path.suffix == ".py":
            candidates = [path]
        else:
            raise LintError(f"not a python file or directory: {path}")
        for candidate in candidates:
            resolved = candidate.resolve()
            if resolved not in seen:
                seen.add(resolved)
                yield candidate


def load_modules(
    paths: Iterable[Path], root: Path
) -> tuple[list[ModuleSource], list[LintIssue]]:
    """Parse every file once; a file that fails to parse is an ``E001`` issue."""
    modules: list[ModuleSource] = []
    issues: list[LintIssue] = []
    for path in iter_python_files(paths):
        try:
            modules.append(ModuleSource.load(path, root))
        except SyntaxError as exc:
            issues.append(
                LintIssue(
                    rule="E001",
                    path=path.as_posix(),
                    line=exc.lineno or 1,
                    col=(exc.offset or 0) + 1,
                    message=f"syntax error: {exc.msg}",
                )
            )
    return modules, issues


def unsuppressed(
    issues: Iterable[LintIssue], modules: Iterable[ModuleSource]
) -> list[LintIssue]:
    """``issues`` minus those a ``# lint: disable=`` comment silences."""
    by_path = {module.relpath: module for module in modules}
    return [
        issue
        for issue in issues
        if issue.path not in by_path
        or not by_path[issue.path].suppressed(issue.line, issue.rule)
    ]


def sort_issues(issues: Iterable[LintIssue]) -> list[LintIssue]:
    """Deterministic report order: path, then line, column and rule."""
    return sorted(
        issues, key=lambda issue: (issue.path, issue.line, issue.col, issue.rule)
    )


def check_rules(
    modules: Iterable[ModuleSource], rules: Iterable[Rule]
) -> list[LintIssue]:
    """Every rule over every module, suppression comments applied."""
    rules = list(rules)
    return [
        issue
        for module in modules
        for rule in rules
        for issue in rule.check(module)
        if not module.suppressed(issue.line, issue.rule)
    ]


def lint_paths(
    paths: Iterable[Path], rules: Iterable[Rule], root: Path
) -> list[LintIssue]:
    """Run every rule over every file; returns surviving issues, sorted.

    Per-line suppression comments are applied here so individual rules stay
    oblivious to them.  A file that fails to parse yields a single ``E001``
    issue rather than aborting the run.
    """
    modules, issues = load_modules(paths, root)
    return sort_issues([*issues, *check_rules(modules, rules)])


def format_issues(issues: Iterable[LintIssue]) -> str:
    return "\n".join(issue.render() for issue in issues)
