"""Interprocedural privacy taint analysis (R010).

R004 pattern-matches *names*: a weight-ish identifier inside a log call.
This pass tracks *values*.  A taint origin is protected data — the record
keys and weight values held by ``WeightedDataset`` (``core/dataset.py``),
``ColumnarDataset`` and the ``ColumnBackedDataset`` its ``to_weighted`` returns
(``columnar/dataset.py``), the exact answers a session holds, ``ExactAnswer``
(``core/aggregation.py``), and the ``repr`` tokens of protected atoms an
``Interner`` memoises (``columnar/interning.py``) — and taint propagates
through assignments, arithmetic, f-strings, containers and calls until it
either dies in a **sanctioned release** or reaches a **sink**:

* logging / ``print`` (the R004 sinks, now reached through any number of
  intermediate variables);
* exception messages (``raise E(tainted)``) — tracebacks end up in logs
  and HTTP 500 bodies;
* HTTP response bodies (``wfile.write``-ish receivers in
  ``service/http.py``);
* pickled payloads (``pickle.dumps``/``dump`` — ``shard/plan.py`` sends
  these across process boundaries).

Sanctioned releases kill taint: ``NoisyCountResult`` (the Laplace release
object), ``noisy_sum`` (the noise mechanism itself), ``from_released``
(replay of an already-released answer), and the cardinality-free builtins
``len``/``bool``/``type``/``id``/``isinstance``.

The analysis is interprocedural via function summaries computed to a
fixpoint: each function records which taint origins its return value
carries (the source, or specific parameters) and which parameters flow
into a sink inside it — so ``self._reply(payload)`` is flagged at the
call site when ``payload`` is tainted and ``_reply`` writes its argument
to the response stream.  Unresolvable calls propagate taint through their
result conservatively but are never sinks themselves.  Findings are
limited to the release packages, matching R001/R004.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable

from .engine import Baseline, LintIssue, ModuleSource, iter_python_files
from .model import (
    FunctionInfo,
    RepoModel,
    TypeEnv,
    annotation_identifiers,
    dotted_name,
)
from .rules import RELEASE_PACKAGES

__all__ = ["analyze_flow"]

#: The protected classes and what on them constitutes raw protected data.
_SOURCE_TYPES = frozenset(
    {"WeightedDataset", "ColumnarDataset", "ColumnBackedDataset", "ExactAnswer"}
    # An interner's token memo (_tokens, tokens()) is reprs of protected atoms.
    | {"Interner", "ShardInterner"}
)
_SOURCE_ATTRS = frozenset(
    {"_weights", "weights", "columns", "records", "_columnar", "_tokens"}
)
_SOURCE_METHODS = frozenset(
    {
        "items",
        "records",
        "to_dict",
        "weight",
        "weights_for",
        "weights_for_codes",
        "record_codes",
        "total_weight",
        "distance",
        "in_canonical_order",
        "tokens",
    }
)

#: Calls whose result is sanctioned for release (taint dies here).
_SANCTIONERS = frozenset(
    {
        "NoisyCountResult",
        "from_released",
        "noisy_sum",
        "len",
        "bool",
        "type",
        "id",
        "isinstance",
    }
)

_LOG_METHODS = frozenset(
    {"debug", "info", "warning", "error", "exception", "critical", "log"}
)

_SRC = "SRC"


def _in_release_package(parts: tuple[str, ...]) -> bool:
    return any(part in RELEASE_PACKAGES for part in parts[:-1])


@dataclass
class _Summary:
    """What one function does with taint, for its callers."""

    returns: set[str] = field(default_factory=set)  #: SRC and/or P<i>
    leaks: dict[int, str] = field(default_factory=dict)  #: param -> sink desc

    def snapshot(self) -> tuple:
        return (frozenset(self.returns), tuple(sorted(self.leaks.items())))


class _FunctionTaint:
    """One ordered taint pass over a function body."""

    def __init__(
        self,
        model: RepoModel,
        info: FunctionInfo,
        summaries: dict[str, _Summary],
        sink_here: bool,
        emit,
    ) -> None:
        self.model = model
        self.info = info
        self.module = info.module
        self.env = TypeEnv(model, info)
        self.bindings = model.bindings[id(info.module)]
        self.summaries = summaries
        self.summary = summaries[info.qualname]
        self.sink_here = sink_here  #: module is in a release package
        self.emit = emit
        self.state: dict[str, frozenset[str]] = {
            name: frozenset({f"P{index}"})
            for index, name in enumerate(info.param_names)
        }
        # A parameter annotated with a protected type is a source even when
        # the class body itself is outside the analyzed path set (partial
        # runs, fixtures): seed the type environment so receiver checks hit.
        for param, annotation in info.annotations.items():
            if param in self.env.locals:
                continue
            for ident in annotation_identifiers(annotation):
                if ident in _SOURCE_TYPES:
                    self.env.locals[param] = ident
                    break

    def run(self) -> None:
        for stmt in self.info.node.body:
            self._visit(stmt)

    # -- statements -----------------------------------------------------
    def _visit(self, stmt: ast.stmt) -> None:
        if isinstance(
            stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
        ):
            return
        if isinstance(stmt, ast.Assign):
            taint = self._taint(stmt.value)
            for target in stmt.targets:
                self._assign(target, taint)
            return
        if isinstance(stmt, ast.AnnAssign):
            if stmt.value is not None:
                self._assign(stmt.target, self._taint(stmt.value))
            return
        if isinstance(stmt, ast.AugAssign):
            extra = self._taint(stmt.value)
            if isinstance(stmt.target, ast.Name):
                current = self.state.get(stmt.target.id, frozenset())
                self.state[stmt.target.id] = current | extra
            return
        if isinstance(stmt, (ast.For, ast.AsyncFor)):
            self._assign(stmt.target, self._taint(stmt.iter))
            for child in [*stmt.body, *stmt.orelse]:
                self._visit(child)
            return
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            for item in stmt.items:
                taint = self._taint(item.context_expr)
                if item.optional_vars is not None:
                    self._assign(item.optional_vars, taint)
            for child in stmt.body:
                self._visit(child)
            return
        if isinstance(stmt, ast.Return):
            if stmt.value is not None:
                self.summary.returns |= self._taint(stmt.value)
            return
        if isinstance(stmt, ast.Raise):
            self._check_raise(stmt)
            return
        for child in ast.iter_child_nodes(stmt):
            if isinstance(child, ast.stmt):
                self._visit(child)
            elif isinstance(child, ast.expr):
                self._taint(child)
            else:
                for sub in ast.iter_child_nodes(child):
                    if isinstance(sub, ast.stmt):
                        self._visit(sub)
                    elif isinstance(sub, ast.expr):
                        self._taint(sub)

    def _assign(self, target: ast.expr, taint: frozenset[str]) -> None:
        if isinstance(target, ast.Name):
            self.state[target.id] = taint  # strong update
        elif isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                self._assign(element, taint)
        elif isinstance(target, ast.Starred):
            self._assign(target.value, taint)

    # -- expressions ----------------------------------------------------
    def _taint(self, expr: ast.expr | None) -> frozenset[str]:
        if expr is None or isinstance(expr, (ast.Constant, ast.Lambda)):
            return frozenset()
        if isinstance(expr, ast.Name):
            return self.state.get(expr.id, frozenset())
        if isinstance(expr, ast.Attribute):
            taint = self._taint(expr.value)
            receiver = self.env.infer(expr.value)
            if receiver in _SOURCE_TYPES and expr.attr in _SOURCE_ATTRS:
                taint = taint | {_SRC}
            return taint
        if isinstance(expr, ast.Call):
            return self._call_taint(expr)
        # Structural recursion (not ast.walk): a sanctioned call nested in
        # an f-string or container must kill the taint of its operands.
        taint: frozenset[str] = frozenset()
        for child in ast.iter_child_nodes(expr):
            if isinstance(child, ast.expr):
                taint = taint | self._taint(child)
            else:
                for sub in ast.iter_child_nodes(child):
                    if isinstance(sub, ast.expr):
                        taint = taint | self._taint(sub)
        return taint

    def _call_taint(self, call: ast.Call) -> frozenset[str]:
        tail = (dotted_name(call.func) or "").rsplit(".", 1)[-1]
        operands = [*call.args, *[kw.value for kw in call.keywords]]
        if tail in _SANCTIONERS:
            for operand in operands:
                self._taint(operand)  # still walk for nested sinks
            return frozenset()
        arg_taint = frozenset().union(
            *[self._taint(operand) for operand in operands]
        ) if operands else frozenset()
        receiver_taint: frozenset[str] = frozenset()
        source_hit = False
        if isinstance(call.func, ast.Attribute):
            receiver_taint = self._taint(call.func.value)
            receiver = self.env.infer(call.func.value)
            if receiver in _SOURCE_TYPES and call.func.attr in _SOURCE_METHODS:
                source_hit = True
        self._check_sink_call(call, arg_taint)
        resolved = self.env.resolve_call(call)
        summary = (
            self.summaries.get(resolved.qualname) if resolved is not None else None
        )
        if resolved is not None and summary is not None:
            actuals = self._bind_actuals(call, resolved)
            result: set[str] = set()
            if source_hit:
                result.add(_SRC)
            for origin in summary.returns:
                if origin == _SRC:
                    result.add(_SRC)
                else:
                    actual = actuals.get(int(origin[1:]))
                    if actual is not None:
                        result |= self._taint(actual)
            for index, desc in summary.leaks.items():
                actual = actuals.get(index)
                if actual is None:
                    continue
                taint = self._taint(actual)
                if _SRC in taint and self.sink_here:
                    self.emit(
                        self.module,
                        call,
                        f"value derived from protected records/weights is "
                        f"passed to {resolved.short}(), which leaks its "
                        f"argument to {desc}; release it via NoisyCountResult "
                        f"or drop the value",
                    )
                for origin in taint:
                    if origin != _SRC:
                        self.summary.leaks.setdefault(
                            int(origin[1:]), f"{desc} (via {resolved.short}())"
                        )
            return frozenset(result)
        # Unresolved call: propagate conservatively, never a sink.
        taint = arg_taint | receiver_taint
        if source_hit:
            taint = taint | {_SRC}
        return taint

    def _bind_actuals(
        self, call: ast.Call, resolved: FunctionInfo
    ) -> dict[int, ast.expr]:
        actuals: dict[int, ast.expr] = {}
        offset = 0
        if (
            isinstance(call.func, ast.Attribute)
            and resolved.cls is not None
            and resolved.param_names
            and resolved.param_names[0] == "self"
        ):
            actuals[0] = call.func.value
            offset = 1
        for position, argument in enumerate(call.args):
            actuals[position + offset] = argument
        names = {name: index for index, name in enumerate(resolved.param_names)}
        for keyword in call.keywords:
            if keyword.arg in names:
                actuals[names[keyword.arg]] = keyword.value
        return actuals

    # -- sinks ----------------------------------------------------------
    def _record_sink(
        self, node: ast.AST, taint: frozenset[str], desc: str
    ) -> None:
        if _SRC in taint and self.sink_here:
            self.emit(
                self.module,
                node,
                f"value derived from protected records/weights reaches "
                f"{desc}; only NoisyCountResult releases may leave the "
                f"privacy boundary",
            )
        for origin in taint:
            if origin != _SRC:
                self.summary.leaks.setdefault(int(origin[1:]), desc)

    def _check_sink_call(self, call: ast.Call, arg_taint: frozenset[str]) -> None:
        func = call.func
        # A protected dataset handed to a sink *as an object* (its repr
        # previews records) is a leak even though the object carries no
        # value taint.
        for operand in [*call.args, *[kw.value for kw in call.keywords]]:
            if self.env.infer(operand) in _SOURCE_TYPES:
                arg_taint = arg_taint | {_SRC}
                break
        if isinstance(func, ast.Name) and func.id == "print":
            self._record_sink(call, arg_taint, "print()")
            return
        dotted = dotted_name(func) or ""
        root, _, rest = dotted.partition(".")
        canonical = self.bindings.get(root, root) + (f".{rest}" if rest else "")
        if canonical in ("pickle.dumps", "pickle.dump"):
            self._record_sink(call, arg_taint, "a pickled payload")
            return
        if isinstance(func, ast.Attribute):
            receiver = (dotted_name(func.value) or "").lower()
            if func.attr in _LOG_METHODS and "log" in receiver:
                self._record_sink(call, arg_taint, f"{receiver}.{func.attr}()")
            elif func.attr == "write" and "wfile" in receiver:
                self._record_sink(call, arg_taint, "the HTTP response body")

    def _check_raise(self, stmt: ast.Raise) -> None:
        if stmt.exc is None:
            return
        if isinstance(stmt.exc, ast.Call):
            operands = [*stmt.exc.args, *[kw.value for kw in stmt.exc.keywords]]
            taint = frozenset().union(
                *[self._taint(operand) for operand in operands]
            ) if operands else frozenset()
            for operand in operands:
                if self.env.infer(operand) in _SOURCE_TYPES:
                    taint = taint | {_SRC}
                    break
        else:
            taint = self._taint(stmt.exc)
        self._record_sink(stmt, taint, "an exception message")


def analyze_flow(
    paths: Iterable[Path],
    root: Path,
    baseline: Baseline | None = None,
    model: RepoModel | None = None,
) -> list[LintIssue]:
    """The R010 issues for ``paths`` (suppressions + baseline applied)."""
    if model is None:
        modules = []
        for path in iter_python_files(paths):
            try:
                modules.append(ModuleSource.load(path, root))
            except SyntaxError:
                continue  # lint_paths reports E001 for unparseable files
        model = RepoModel(modules)

    functions: list[FunctionInfo] = []
    seen: set[str] = set()
    for group in (model.functions, model.methods):
        for infos in group.values():
            for info in infos:
                if info.qualname not in seen:
                    seen.add(info.qualname)
                    functions.append(info)
    summaries = {info.qualname: _Summary() for info in functions}

    issues: list[LintIssue] = []

    def emit(module: ModuleSource, node: ast.AST, message: str) -> None:
        line = getattr(node, "lineno", 1)
        issues.append(
            LintIssue(
                rule="R010",
                path=module.relpath,
                line=line,
                col=getattr(node, "col_offset", 0) + 1,
                message=message,
                text=module.source_line(line),
            )
        )

    # Fixpoint: summaries grow monotonically; issues are collected fresh on
    # each round and the final round's set is reported.
    for _ in range(12):
        issues.clear()
        before = {name: summary.snapshot() for name, summary in summaries.items()}
        for info in functions:
            _FunctionTaint(
                model,
                info,
                summaries,
                sink_here=_in_release_package(info.module.parts),
                emit=emit,
            ).run()
        if all(
            summaries[name].snapshot() == before[name] for name in summaries
        ):
            break

    module_by_path = {module.relpath: module for module in model.modules}
    surviving = []
    seen_sites: set[tuple[str, int, str]] = set()
    for issue in issues:
        module = module_by_path.get(issue.path)
        if module is not None and module.suppressed(issue.line, issue.rule):
            continue
        if baseline is not None and baseline.contains(issue):
            continue
        site = (issue.path, issue.line, issue.message)
        if site in seen_sites:
            continue
        seen_sites.add(site)
        surviving.append(issue)
    surviving.sort(key=lambda issue: (issue.path, issue.line, issue.col, issue.rule))
    return surviving
